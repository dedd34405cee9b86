"""JSON schemas for instances, benchmarks, policies, ALP bases and reports.

One writer, ``dumps``, emits every report and instance file. Callers hand it
NumPy arrays as they are; every float is emitted with 17 significant digits,
so reports round-trip exactly and are byte-stable for identical inputs.

One reader, ``loads``, decodes every input file to the objects ``json.loads``
returns, or raises the error it raises. CPython reads a 17-digit float
through the slow path of its correctly rounded parser (about 0.5 us a value
on a 2-vCPU Xeon VM), so a dense kernel's text took longer to decode than to
solve. ``loads`` keeps ``json``'s structure (its pure-Python scanner) and
hands every flat array, one whose text holds no ``[``, ``{`` or ``"`` before
its ``]``, to ``orjson``, whose float parser is also correctly rounded and
so gives the same bits. ``orjson`` reads an integer outside the 64-bit range
as a float, so an array whose values leave (-2**63, 2**64), or that holds a
null, is decoded by ``json`` instead. Text that is not ASCII (the
pure-Python scanner's number pattern also matches non-ASCII digits) and text
the fast path cannot decode (NaN, ``1e400``, syntax errors, nesting past the
recursion limit) go to ``json.loads`` whole.

All floats are parsed as 64-bit. A file whose JSON types do not fit the
schema is reported as a ValueError by the ``parse_*`` function that decodes
it.
"""

from __future__ import annotations

import functools
import json
import json.decoder
import json.scanner
import math
from dataclasses import dataclass

import numpy as np
import orjson

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


def _parse_array(s_and_end, scan_once):
    """``json.decoder.JSONArray``, with a flat array's text decoded by orjson."""
    s, end = s_and_end
    close = s.find("]", end)
    if close >= 0 and all(s.find(c, end, close) < 0 for c in '[{"'):
        values = orjson.loads(s[end - 1 : close + 1])
        try:
            # orjson turns an integer outside the 64-bit range into a float;
            # -2**63 - 1 rounds to -2**63, hence the strict lower bound.
            if not values or (-(2**63) < min(values) and max(values) < 2**64):
                return values, close + 1
        except TypeError:  # a null
            pass
    return json.decoder.JSONArray(s_and_end, scan_once)


class _FlatArrayDecoder(json.JSONDecoder):
    def __init__(self, **kw):
        super().__init__(**kw)
        self.parse_array = _parse_array
        self.scan_once = json.scanner.py_make_scanner(self)


def loads(text: str):
    """``json.loads(text)``: the same objects, float bits and errors, faster on flat arrays."""
    if text.isascii():
        try:
            return json.loads(text, cls=_FlatArrayDecoder)
        except (ValueError, RecursionError):
            pass  # json.loads below gives the result or the error
    return json.loads(text)


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


def _check_block(P, r, z, actions, s: int) -> None:
    if len(P[s]) != len(actions[s]) or len(r[s]) != len(actions[s]) or len(z[s]) != len(actions[s]):
        raise ValueError(f"state {s}: P/r/z must have one entry per action")


def _pairs_by_block(P, r, z, actions):
    """Kernel, r and z in pair order, each state's block joined whole and converted once."""
    for s in range(len(actions)):
        _check_block(P, r, z, actions, s)
    kernel = np.array([row for block in P[: len(actions)] for row in block], dtype=float)
    r_flat = [float(v) for block in r[: len(actions)] for v in block]
    z_flat = [v for block in z[: len(actions)] for v in block]
    return kernel, r_flat, z_flat


def _pairs_one_by_one(P, r, z, actions):
    """``_pairs_by_block`` one pair at a time, with the kernel as a list of rows.

    Slower, and run only when the block path fails: it raises on the first
    malformed entry in file order, with that entry's own error text, and
    leaves rows of unequal shape to fail when the kernel is stacked.
    """
    kernel_rows, r_flat, z_flat = [], [], []
    for s in range(len(actions)):
        _check_block(P, r, z, actions, s)
        for a in range(len(actions[s])):
            kernel_rows.append(np.asarray(P[s][a], dtype=float))
            r_flat.append(float(r[s][a]))
            z_flat.append(z[s][a])
    return kernel_rows, r_flat, z_flat


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
    try:
        kernel, r_flat, z_flat = _pairs_by_block(P, r, z, actions)
    except (TypeError, ValueError, IndexError, KeyError):
        kernel, r_flat, z_flat = _pairs_one_by_one(P, r, z, actions)
    if z_flat and isinstance(z_flat[0], (list, tuple)):
        reward_z = np.asarray(z_flat, dtype=float)
    else:
        reward_z = np.asarray([float(v) for v in z_flat])
    inst = MdpInstance(
        num_states=num_states,
        actions=actions,
        kernel=np.asarray(kernel),
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
    if extra is not None and extra.ndim != 1:
        raise ValueError("'extra_grid' must be a list of numbers")
    if extra is not None and not np.all(np.isfinite(extra)):
        raise ValueError("'extra_grid' must be finite")
    # Checked last, so that a file with another fault still reports that one.
    for key, blocks in (("P", P), ("r", r), ("z", z)):
        if len(blocks) != num_states:
            raise ValueError(
                f"'{key}' must list one block per state ({num_states}), got {len(blocks)}"
            )
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
        if rows[s] is not None:
            raise ValueError(f"policy lists state {s} twice")
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
