"""Monte Carlo trajectory simulation and brute-force policy oracles.

Randomness is counter-based and splittable: path p of a run seeded with s
draws from Philox keyed by (s, p), so trajectories are bit-reproducible
across runs and platforms. The first uniform of a path selects the starting
state by inverse CDF; each subsequent uniform selects the joint
(action, next state) cell of the current state's distribution
phi(a|s) P(j|s,a), flattened action-major.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dominance import _expected_kink, benchmark_curve, shortfall_minus
from .mdp import (
    AVERAGE,
    Benchmark,
    MdpInstance,
    Policy,
    deterministic_policy,
    policy_kernel,
    recurrent_classes,
    require_valid,
)

MAX_POLICIES = 10**6
FEAS_TOL = 1e-9


@dataclass(frozen=True)
class Trajectory:
    seed: int
    path: int
    states: np.ndarray
    actions: np.ndarray   # action index within A(s_t)
    rewards: np.ndarray
    z: np.ndarray


def _path_uniforms(seed: int, path: int, count: int) -> np.ndarray:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, path], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(count)


def _inverse_cdf(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorized per-row inverse CDF: first index with cumulative >= u."""
    return (cum < u[:, None]).sum(axis=1)


def simulate(
    inst: MdpInstance,
    policy: Policy,
    nu: np.ndarray,
    T: int,
    num_paths: int,
    seed: int,
) -> list[Trajectory]:
    """num_paths independent length-T trajectories; path p is keyed by (seed, p)."""
    S = inst.num_states
    max_a = max(len(a) for a in inst.actions)
    # Joint per-state cumulative over (action, next state), action-major,
    # padded with ones so draws never land beyond the last real cell.
    joint = np.ones((S, max_a * S))
    for s, row in enumerate(policy.rows):
        block = inst.kernel[inst.pair_offsets[s] : inst.pair_offsets[s + 1]]
        probs = (row[:, None] * block).ravel()
        joint[s, : probs.size] = np.cumsum(probs)
    offsets = inst.pair_offsets[:-1]
    counts = np.diff(inst.pair_offsets)
    nu_cum = np.cumsum(np.asarray(nu, dtype=float))

    U = np.stack([_path_uniforms(seed, p, 1 + T) for p in range(num_paths)])
    state = np.searchsorted(nu_cum, U[:, 0], side="left")
    np.clip(state, 0, S - 1, out=state)

    states = np.empty((num_paths, T), dtype=np.int64)
    actions = np.empty((num_paths, T), dtype=np.int64)
    pairs = np.empty((num_paths, T), dtype=np.int64)
    for t in range(T):
        idx = _inverse_cdf(joint[state], U[:, 1 + t])
        np.minimum(idx, counts[state] * S - 1, out=idx)
        a, nxt = np.divmod(idx, S)
        states[:, t] = state
        actions[:, t] = a
        pairs[:, t] = offsets[state] + a
        state = nxt

    out = []
    for p in range(num_paths):
        out.append(
            Trajectory(
                seed=seed,
                path=p,
                states=states[p],
                actions=actions[p],
                rewards=inst.reward_r[pairs[p]],
                z=inst.reward_z[pairs[p]],
            )
        )
    return out


@dataclass(frozen=True)
class ShortfallEstimate:
    eta: float
    estimate: float
    stderr: float
    truncation_bound: float = 0.0


def estimate_average_shortfalls(trajs: list[Trajectory], grid) -> list[ShortfallEstimate]:
    """Per-eta long-run average shortfall, paths as batches for the standard error.

    The first T//10 steps of every path are discarded as burn-in.
    """
    grid = np.asarray(grid, dtype=float)
    if trajs[0].z.ndim != 1:
        raise ValueError("shortfall estimation requires scalar z")
    T = trajs[0].z.size
    burn = T // 10
    zmat = np.stack([tr.z[burn:] for tr in trajs])
    out = []
    for eta in grid:
        path_means = shortfall_minus(zmat, eta).mean(axis=1)
        est = float(path_means.mean())
        se = float(path_means.std(ddof=1) / np.sqrt(len(trajs))) if len(trajs) > 1 else 0.0
        out.append(ShortfallEstimate(eta=float(eta), estimate=est, stderr=se))
    return out


def estimate_discounted_shortfalls(
    trajs: list[Trajectory], grid, delta: float, z_range: tuple[float, float] | None = None
) -> list[ShortfallEstimate]:
    """Per-eta discounted shortfall sum over the truncated horizon.

    The recorded truncation bound is delta^T max|z - eta| / (1 - delta); pass
    the instance-wide z range for an honest bound, otherwise the observed
    range is used.
    """
    grid = np.asarray(grid, dtype=float)
    if trajs[0].z.ndim != 1:
        raise ValueError("shortfall estimation requires scalar z")
    T = trajs[0].z.size
    zmat = np.stack([tr.z for tr in trajs])
    if z_range is None:
        z_range = (float(zmat.min()), float(zmat.max()))
    disc = delta ** np.arange(T)
    out = []
    for eta in grid:
        totals = shortfall_minus(zmat, eta) @ disc
        est = float(totals.mean())
        se = float(totals.std(ddof=1) / np.sqrt(len(trajs))) if len(trajs) > 1 else 0.0
        bound = delta**T * max(abs(z_range[0] - eta), abs(z_range[1] - eta)) / (1.0 - delta)
        out.append(
            ShortfallEstimate(eta=float(eta), estimate=est, stderr=se, truncation_bound=bound)
        )
    return out


def _choices(inst: MdpInstance):
    """Action index per state for every deterministic policy, lexicographic order."""
    total = 1
    for acts in inst.actions:
        total *= len(acts)
        if total > MAX_POLICIES:
            raise ValueError(f"too many deterministic policies ({total}+ > {MAX_POLICIES})")
    return itertools.product(*(range(len(a)) for a in inst.actions))


def enumerate_deterministic_policies(inst: MdpInstance):
    """Every deterministic stationary policy exactly once, lexicographic order."""
    for choices in _choices(inst):
        yield deterministic_policy(inst, choices)


@dataclass(frozen=True)
class OracleResult:
    value: float
    policy: Policy
    shortfalls: np.ndarray
    feasible_count: int
    skipped_multichain: int


def _evaluate(inst: MdpInstance, choices) -> tuple[Policy, np.ndarray, np.ndarray] | None:
    """(policy, state weights x, chosen pairs) from (I - delta P_phi^T) x = b.

    In average mode the last row is the normalization sum x = 1, and a
    multichain policy gives None.
    """
    pol = deterministic_policy(inst, choices)
    P = policy_kernel(pol, inst)
    pair = inst.pair_offsets[:-1] + np.asarray(choices)
    M = np.eye(inst.num_states) - inst.delta * P.T
    if inst.mode != AVERAGE:
        return pol, np.linalg.solve(M, inst.initial), pair
    if len(recurrent_classes(P)) != 1:
        return None
    M[-1] = 1.0
    x = np.maximum(np.linalg.solve(M, np.eye(inst.num_states)[-1]), 0.0)
    return pol, x / x.sum(), pair


def brute_force_best_feasible(inst: MdpInstance, bench: Benchmark) -> OracleResult | None:
    """Exact exhaustive oracle over deterministic stationary policies.

    Evaluates objective and per-eta shortfalls by linear solves, never
    simulation. Average mode skips (and counts) multichain policies; returns
    None when no deterministic policy meets every dominance row within 1e-9.
    Raises ValueError on an invalid instance or more than MAX_POLICIES policies.
    """
    require_valid(inst)
    etas = bench.support
    rhs = benchmark_curve(bench, etas).curve
    best: OracleResult | None = None
    feasible = 0
    skipped = 0
    for choices in _choices(inst):
        ev = _evaluate(inst, choices)
        if ev is None:
            skipped += 1
            continue
        pol, x, pair = ev
        value = float(x @ inst.reward_r[pair])
        shortfalls = _expected_kink(inst.reward_z[pair], x, shortfall_minus, etas)
        if np.all(shortfalls >= rhs - FEAS_TOL):
            feasible += 1
            if best is None or value > best.value:
                best = OracleResult(
                    value=value,
                    policy=pol,
                    shortfalls=shortfalls,
                    feasible_count=0,
                    skipped_multichain=0,
                )
    if best is None:
        return None
    return OracleResult(
        value=best.value,
        policy=best.policy,
        shortfalls=best.shortfalls,
        feasible_count=feasible,
        skipped_multichain=skipped,
    )
