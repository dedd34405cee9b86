"""JSON schemas for instances, benchmarks, policies and reports.

All floats are parsed as 64-bit and emitted with 17 significant digits so
reports round-trip exactly and are byte-stable for identical inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dominance import GeneratorFamily, _distribution, weighted_kink_family
from .mdp import Benchmark, MdpInstance, Policy
from .portfolio import PortfolioConfig


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
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(_format(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def dumps(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    return _format(obj)


@dataclass(frozen=True)
class LoadedInstance:
    instance: MdpInstance
    benchmark: Benchmark | None
    family: GeneratorFamily | None
    extra_grid: np.ndarray | None


def parse_benchmark(obj: dict) -> Benchmark:
    if not isinstance(obj, dict) or "support" not in obj or "probs" not in obj:
        raise ValueError("benchmark needs 'support' and 'probs'")
    return Benchmark(support=np.asarray(obj["support"], dtype=float), probs=obj["probs"])


def _require(obj: dict, key: str):
    if key not in obj:
        raise ValueError(f"instance file missing key '{key}'")
    return obj[key]


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
    return LoadedInstance(instance=inst, benchmark=benchmark, family=family, extra_grid=extra)


def instance_to_obj(inst: MdpInstance, bench: Benchmark | None = None) -> dict:
    P, r, z = [], [], []
    k = 0
    vector_z = inst.reward_z.ndim == 2
    for s in range(inst.num_states):
        row_P, row_r, row_z = [], [], []
        for _ in inst.actions[s]:
            row_P.append([float(v) for v in inst.kernel[k]])
            row_r.append(float(inst.reward_r[k]))
            row_z.append(
                [float(v) for v in inst.reward_z[k]] if vector_z else float(inst.reward_z[k])
            )
            k += 1
        P.append(row_P)
        r.append(row_r)
        z.append(row_z)
    out = {
        "states": inst.num_states,
        "actions": [list(a) for a in inst.actions],
        "P": P,
        "r": r,
        "z": z,
        "mode": inst.mode,
    }
    if inst.discount is not None:
        out["discount"] = float(inst.discount)
    if inst.initial is not None:
        out["initial"] = [float(v) for v in inst.initial]
    if bench is not None:
        out["benchmark"] = {
            "support": [float(v) for v in np.atleast_1d(bench.support).tolist()]
            if bench.support.ndim == 1
            else [[float(v) for v in row] for row in bench.support],
            "probs": [float(v) for v in bench.probs],
        }
    return out


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


def parse_distribution(obj: dict) -> tuple[np.ndarray, np.ndarray]:
    if not isinstance(obj, dict) or "support" not in obj or "probs" not in obj:
        raise ValueError("distribution needs 'support' and 'probs'")
    values, probs = _distribution(obj["support"], obj["probs"])
    if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("'probs' must be a probability vector")
    return values, probs


def parse_portfolio_config(obj: dict) -> PortfolioConfig:
    try:
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
    except KeyError as exc:
        raise ValueError(f"portfolio config missing key {exc}") from exc
