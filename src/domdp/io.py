"""JSON schemas for instances, benchmarks, policies, ALP bases and reports.

One writer, ``dumps``, emits every report and instance file. Callers hand it
NumPy arrays as they are; every float is emitted with 17 significant digits,
so reports round-trip exactly and are byte-stable for identical inputs. All
floats are parsed as 64-bit. A file whose JSON types do not fit the schema
is reported as a ValueError by the ``parse_*`` function that decodes it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .alp import BasisSet
from .dominance import GeneratorFamily, _distribution, reconstruct_utility, weighted_kink_family
from .mdp import Benchmark, MdpInstance, Policy
from .portfolio import PortfolioConfig

_ARRAY_SPECS = {"f": "%.17g", "i": "%d", "u": "%d"}


def _format_array(a: np.ndarray) -> str:
    """A numeric array of any shape, through one template and one ``%``."""
    if a.dtype.kind == "f" and not np.isfinite(a).all():
        raise ValueError(f"cannot emit non-finite float {float(a[~np.isfinite(a)][0])!r}")
    template = _ARRAY_SPECS[a.dtype.kind]
    for n in reversed(a.shape):
        template = "[" + ",".join([template] * n) + "]"
    return template % tuple(a.ravel().tolist())


def _format(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v) or math.isinf(v):
            raise ValueError(f"cannot emit non-finite float {v!r}")
        return format(v, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = ",".join(f"{json.dumps(str(k))}:{_format(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, np.ndarray) and value.dtype.kind in _ARRAY_SPECS:
        return _format_array(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(_format(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def dumps(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats; arrays go in as they are."""
    return _format(obj)


def _decodes(what: str):
    """Report JSON of the wrong types (TypeError, IndexError, KeyError) as a ValueError."""

    def wrap(parse):
        @functools.wraps(parse)
        def checked(*args):
            try:
                return parse(*args)
            except (TypeError, IndexError, KeyError) as exc:
                raise ValueError(f"malformed {what}: {type(exc).__name__}: {exc}") from exc

        return checked

    return wrap


@dataclass(frozen=True)
class LoadedInstance:
    instance: MdpInstance
    benchmark: Benchmark | None
    family: GeneratorFamily | None
    extra_grid: np.ndarray | None


@_decodes("benchmark")
def parse_benchmark(obj: dict) -> Benchmark:
    if not isinstance(obj, dict) or "support" not in obj or "probs" not in obj:
        raise ValueError("benchmark needs 'support' and 'probs'")
    return Benchmark(support=np.asarray(obj["support"], dtype=float), probs=obj["probs"])


def _require(obj: dict, key: str):
    if key not in obj:
        raise ValueError(f"instance file missing key '{key}'")
    return obj[key]


@_decodes("instance file")
def parse_instance(obj: dict) -> LoadedInstance:
    """Decode the instance file schema into validated domain objects."""
    num_states = int(_require(obj, "states"))
    actions = tuple(tuple(str(a) for a in acts) for acts in _require(obj, "actions"))
    mode = str(_require(obj, "mode"))
    if len(actions) != num_states:
        raise ValueError("'actions' must list one action set per state")
    P = _require(obj, "P")
    r = _require(obj, "r")
    z = _require(obj, "z")
    kernel_rows, r_flat, z_flat = [], [], []
    for s in range(num_states):
        if len(P[s]) != len(actions[s]) or len(r[s]) != len(actions[s]) or len(z[s]) != len(actions[s]):
            raise ValueError(f"state {s}: P/r/z must have one entry per action")
        for a in range(len(actions[s])):
            kernel_rows.append(np.asarray(P[s][a], dtype=float))
            r_flat.append(float(r[s][a]))
            z_flat.append(z[s][a])
    if z_flat and isinstance(z_flat[0], (list, tuple)):
        reward_z = np.asarray(z_flat, dtype=float)
    else:
        reward_z = np.asarray([float(v) for v in z_flat])
    inst = MdpInstance(
        num_states=num_states,
        actions=actions,
        kernel=np.array(kernel_rows),
        reward_r=np.array(r_flat),
        reward_z=reward_z,
        mode=mode,
        discount=float(obj["discount"]) if obj.get("discount") is not None else None,
        initial=np.asarray(obj["initial"], dtype=float) if obj.get("initial") is not None else None,
    )
    benchmark = parse_benchmark(obj["benchmark"]) if "benchmark" in obj else None
    family = None
    if "family" in obj:
        fam = obj["family"]
        if benchmark is None:
            raise ValueError("a generator family requires a benchmark")
        if "weights" not in fam or "etas" not in fam:
            raise ValueError("'family' needs 'weights' and 'etas'")
        family = weighted_kink_family(fam["weights"], fam["etas"], benchmark)
    extra = np.asarray(obj["extra_grid"], dtype=float) if "extra_grid" in obj else None
    if extra is not None and not np.all(np.isfinite(extra)):
        raise ValueError("'extra_grid' must be finite")
    return LoadedInstance(instance=inst, benchmark=benchmark, family=family, extra_grid=extra)


def instance_to_obj(inst: MdpInstance, bench: Benchmark | None = None) -> dict:
    """The instance file schema: P, r and z as one block of rows per state."""
    cuts = inst.pair_offsets[1:-1]
    out = {
        "states": inst.num_states,
        "actions": inst.actions,
        "P": np.split(inst.kernel, cuts),
        "r": np.split(inst.reward_r, cuts),
        "z": np.split(inst.reward_z, cuts),
        "mode": inst.mode,
    }
    if inst.discount is not None:
        out["discount"] = float(inst.discount)
    if inst.initial is not None:
        out["initial"] = inst.initial
    if bench is not None:
        out["benchmark"] = {"support": bench.support, "probs": bench.probs}
    return out


@_decodes("basis file")
def parse_basis(obj: dict) -> BasisSet:
    if not isinstance(obj, dict) or "h" not in obj:
        raise ValueError("basis file needs 'h': list of per-state value rows")
    try:
        lambdas = [[(float(e), float(w)) for e, w in lam] for lam in obj.get("u_lambdas", [])]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"'u_lambdas' must hold lists of [eta, weight] pairs: {exc}") from exc
    u_bases = tuple(
        reconstruct_utility([e for e, _ in lam], [w for _, w in lam]) for lam in lambdas
    )
    return BasisSet(h_bases=np.asarray(obj["h"], dtype=float), u_bases=u_bases)


@_decodes("policy file")
def parse_policy(obj, inst: MdpInstance) -> Policy:
    """Accept [[state, [probs...]], ...] or {"policy": [...]}."""
    if isinstance(obj, dict):
        if "policy" not in obj:
            raise ValueError("policy file needs a 'policy' key or a bare list")
        rows_spec = obj["policy"]
    else:
        rows_spec = obj
    if not isinstance(rows_spec, list):
        raise ValueError("policy must be a list of [state, [probs...]] entries")
    rows: list[np.ndarray | None] = [None] * inst.num_states
    for entry in rows_spec:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise ValueError(f"policy entry {entry!r} is not [state, [probs...]]")
        s, probs = int(entry[0]), np.asarray(entry[1], dtype=float)
        if not 0 <= s < inst.num_states:
            raise ValueError(f"policy references unknown state {s}")
        if probs.size != len(inst.actions[s]):
            raise ValueError(f"policy row for state {s} has wrong length")
        rows[s] = probs
    missing = [s for s, row in enumerate(rows) if row is None]
    if missing:
        raise ValueError(f"policy missing states {missing}")
    return Policy(tuple(rows))


@_decodes("distribution")
def parse_distribution(obj: dict) -> tuple[np.ndarray, np.ndarray]:
    if not isinstance(obj, dict) or "support" not in obj or "probs" not in obj:
        raise ValueError("distribution needs 'support' and 'probs'")
    values, probs = _distribution(obj["support"], obj["probs"])
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(probs))):
        raise ValueError("distribution support and probs must be finite")
    if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("'probs' must be a probability vector")
    return values, probs


@_decodes("portfolio config")
def parse_portfolio_config(obj: dict) -> PortfolioConfig:
    return PortfolioConfig(
        price_levels=tuple(tuple(float(p) for p in lv) for lv in obj["price_levels"]),
        price_transitions=tuple(np.asarray(T, dtype=float) for T in obj["price_transitions"]),
        resolution=int(obj["resolution"]),
        discount=float(obj["discount"]),
        benchmark=parse_benchmark(obj["benchmark"]),
        initial_holdings=np.asarray(obj["initial_holdings"], dtype=float)
        if obj.get("initial_holdings") is not None
        else None,
    )
