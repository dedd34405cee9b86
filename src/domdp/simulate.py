"""Monte Carlo trajectory simulation and brute-force policy oracles.

Randomness is counter-based and splittable: path p of a run seeded with s
draws from Philox keyed by (s, p), so trajectories are bit-reproducible
across runs and platforms. The first uniform of a path selects the starting
state by inverse CDF; each subsequent uniform u selects the joint
(action, next state) cell of the current state's distribution
phi(a|s) P(j|s,a), flattened action-major: the cell is the number of
entries of the state's cumulative row that are below u.

Each step finds that count for all paths exactly through a sorted integer
table keyed by ranks (the table-lookup form of inverse-CDF sampling, Chen &
Asau, J. Chinese Inst. Engineers, 1974; Devroye, Non-Uniform Random Variate
Generation, 1986, ch. III):

- Every cumulative entry is capped at 1.0, and a state's last real cell and
  its padding up to W = max_a * S cells are 1.0. A uniform lies in [0, 1), so
  it never counts an entry >= 1: the counts are unchanged, and every row is
  nondecreasing.
- With ``values`` the distinct entries in increasing order and an entry's
  rank its position there, an entry is below u exactly when its rank is
  below rank(u) = searchsorted(values, u), the number of values below u.
  1.0 is a value and u < 1, so rank(u) < len(values).
- Row s's ranks plus s * span, with span = len(values) + 1, lie in
  [s * span, (s + 1) * span), so the rows laid end to end form one sorted
  table. The number of its entries below the key s * span + rank(u) is
  s * W plus the count, and the next key's row offset is span times the
  cell's next state.

A uniform's rank comes from a guide table (Chen & Asau's index table) of G
buckets, G the smallest power of two >= 16 * len(values): with
cnt[b] = rank(b / G), a bucket [b / G, (b + 1) / G) holding no value has
rank(u) = cnt[b] for every u in it. G is a power of two, so b = floor(u * G)
is exact, and only the uniforms of the at most len(values) occupied buckets
(a few percent) are searched. The table is built only when its G + 1
entries are no more than the run's paths * T ranks; otherwise every uniform
is searched.

Every key is an integer below S * span - 1. Let j >= 1 be the largest
integer with S * span^j at most the paths * T ranks the run holds anyway.
When there is one, the table position and next state of every key are
found once, and the loop takes j steps an iteration: the key of a block of
j steps with ranks r_1 ... r_j is state * span^j + r_1 * span^(j-1) + ... +
r_j, and the one-step table composed j times maps it to the state j steps
on, so a block is one gather for all paths. After the loop, a block's key
gives its first step's key, and each step's key the next step's state, so j
vectorised passes over all blocks recover every step's key; the T mod j
last steps take one gather each, and the cells are gathered once at the
end. Otherwise (S * span larger than the run) each step searches the table
with one ``searchsorted``.

A path's step ranks are computed as soon as its uniforms are drawn, so the
step loop handles integers only, and the uniforms of only one path are
held at a time.
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
    is_unichain,
    require_valid,
)

MAX_POLICIES = 10**6
FEAS_TOL = 1e-9


@dataclass(frozen=True)
class Trajectories:
    """Row p is path p; column t is step t."""

    states: np.ndarray    # (num_paths, T)
    actions: np.ndarray   # (num_paths, T), action index within A(s_t)
    z: np.ndarray         # (num_paths, T) for scalar z, (num_paths, T, d) for vector z


def _path_uniforms(seed: int, path: int, count: int) -> np.ndarray:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, path], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(count)


def _ranker(values: np.ndarray, size: int):
    """The function u -> searchsorted(values, u), through a guide table when
    its G + 1 entries fit in size (see the module docstring)."""
    G = 1 << (16 * values.size - 1).bit_length()
    if G >= size:
        return values.searchsorted
    cnt = values.searchsorted(np.arange(G + 1) / G)
    guide = np.where(cnt[:-1] == cnt[1:], cnt[:-1], -1)   # -1: occupied bucket

    def rank(u: np.ndarray) -> np.ndarray:
        r = guide.take((u * G).astype(np.intp))
        miss = np.flatnonzero(r < 0)
        r[miss] = values.searchsorted(u.take(miss))
        return r

    return rank


def _block_length(S: int, span: int, size: int) -> int:
    """Steps per table-step iteration: the largest j with S * span^j <= size,
    or 0 (search step) when S * span > size."""
    j = 0
    while S * span ** (j + 1) <= size:
        j += 1
    return j


def _table_steps(keys: np.ndarray, base: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Add base to keys[0], gather the next base from step, and so on down the
    rows of keys, which become table keys in place; returns the last base."""
    for column in keys:
        column += base
        base = step.take(column)
    return base


def simulate(
    inst: MdpInstance,
    policy: Policy,
    nu: np.ndarray,
    T: int,
    num_paths: int,
    seed: int,
) -> Trajectories:
    """num_paths independent length-T trajectories; path p is keyed by (seed, p)."""
    require_valid(inst)
    if num_paths < 1 or T < 1:
        raise ValueError("num_paths and T must be at least 1")
    S = inst.num_states
    W = max(len(a) for a in inst.actions) * S
    # Joint per-state cumulative over (action, next state), capped at 1.0 and
    # padded with ones, then the rank-keyed table (see the module docstring).
    joint = np.ones((S, W))
    for s, row in enumerate(policy.rows):
        block = inst.kernel[inst.pair_offsets[s] : inst.pair_offsets[s + 1]]
        probs = (row[:, None] * block).ravel()
        np.minimum(np.cumsum(probs)[:-1], 1.0, out=joint[s, : probs.size - 1])
    values, ranks = np.unique(joint, return_inverse=True)
    span = values.size + 1
    table = (ranks.reshape(S, W) + span * np.arange(S)[:, None]).ravel()
    del joint, ranks
    nu_cum = np.cumsum(np.asarray(nu, dtype=float))
    nu_cum[-1] = 1.0

    # keys[t] holds the ranks of step t's uniforms until the step loop makes
    # them table keys (table step) or table positions (search step).
    size = T * num_paths
    rank = _ranker(values, size)
    first = np.empty(num_paths)
    keys = np.empty((T, num_paths), dtype=np.int64)
    for p in range(num_paths):
        u = _path_uniforms(seed, p, 1 + T)
        first[p] = u[0]
        keys[:, p] = rank(u[1:])
    del u, rank
    start = np.searchsorted(nu_cum, first, side="left")
    next_state = np.arange(S * W) % S
    j = _block_length(S, span, size)
    if j:
        # Table position and next state of every key state * span + rank. The
        # last key, past the table's end, never occurs: every rank is below span - 1.
        cell_of = table.searchsorted(np.arange(S * span))
        cell_of[-1] = 0
        nxt = next_state.take(cell_of)
        del table, next_state
        # jump[state * span^j + (r_1 ... r_j in base span)] is the state after
        # the j steps of ranks r_1 ... r_j.
        jump = nxt
        for _ in range(j - 1):
            jump = jump.reshape(S, -1).take(nxt, axis=0).ravel()
        blocks = keys[: T - T % j].reshape(-1, j, num_paths)
        packed = blocks[:, 0]   # for j = 1 a view of keys, made keys in place
        for i in range(1, j):
            packed = packed * span + blocks[:, i]
        base = _table_steps(packed, span**j * start, span**j * jump)
        del jump
        if j > 1:
            # Each block's start key gives its first step's key, and each
            # step's key its next step's state: one pass per step of a block.
            blocks[:, 0] = packed // span ** (j - 1)
            for i in range(1, j):
                blocks[:, i] += span * nxt.take(blocks[:, i - 1])
            _table_steps(keys[T - T % j :], base // span ** (j - 1), span * nxt)
        del blocks, packed, nxt
        cells = cell_of.take(keys.T)
        del cell_of
    else:
        next_base = span * next_state
        del next_state
        find = table.searchsorted   # the bound method skips np.searchsorted's dispatch
        base = span * start
        for column in keys:
            g = find(base + column)
            column[:] = g
            base = next_base[g]
        del table, next_base, column   # the last row is a view that keeps keys alive
        cells = np.ascontiguousarray(keys.T)
    del keys
    cells %= W

    states = np.empty_like(cells)
    states[:, 0] = start
    np.remainder(cells[:, :-1], S, out=states[:, 1:])
    actions = np.floor_divide(cells, S, out=cells)
    offsets = inst.pair_offsets[:-1]
    z = np.empty(actions.shape + inst.reward_z.shape[1:], dtype=inst.reward_z.dtype)
    for p in range(num_paths):
        z[p] = inst.reward_z[offsets[states[p]] + actions[p]]
    return Trajectories(states=states, actions=actions, z=z)


@dataclass(frozen=True)
class ShortfallEstimate:
    eta: float
    estimate: float
    stderr: float
    truncation_bound: float = 0.0


def estimate_average_shortfalls(trajs: Trajectories, grid) -> list[ShortfallEstimate]:
    """Per-eta long-run average shortfall, paths as batches for the standard error.

    The first T//10 steps of every path are discarded as burn-in.
    """
    grid = np.asarray(grid, dtype=float)
    if trajs.z.ndim != 2:
        raise ValueError("shortfall estimation requires scalar z")
    n, T = trajs.z.shape
    zmat = trajs.z[:, T // 10 :]
    out = []
    for eta in grid:
        path_means = shortfall_minus(zmat, eta).mean(axis=1)
        est = float(path_means.mean())
        se = float(path_means.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        out.append(ShortfallEstimate(eta=float(eta), estimate=est, stderr=se))
    return out


def estimate_discounted_shortfalls(
    trajs: Trajectories, grid, delta: float, z_range: tuple[float, float] | None = None
) -> list[ShortfallEstimate]:
    """Per-eta discounted shortfall sum over the truncated horizon.

    The recorded truncation bound is delta^T max|z - eta| / (1 - delta); pass
    the instance-wide z range for an honest bound, otherwise the observed
    range is used.
    """
    grid = np.asarray(grid, dtype=float)
    zmat = trajs.z
    if zmat.ndim != 2:
        raise ValueError("shortfall estimation requires scalar z")
    n, T = zmat.shape
    if z_range is None:
        z_range = (float(zmat.min()), float(zmat.max()))
    disc = delta ** np.arange(T)
    out = []
    for eta in grid:
        totals = shortfall_minus(zmat, eta) @ disc
        est = float(totals.mean())
        se = float(totals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
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


def _evaluate(inst: MdpInstance, choices) -> tuple[np.ndarray, np.ndarray] | None:
    """(state weights x, chosen pairs) from (I - delta P_phi^T) x = b.

    P_phi is the chosen pairs' kernel rows. In average mode the last row is
    the normalization sum x = 1, and a multichain policy gives None.
    """
    pair = inst.pair_offsets[:-1] + np.asarray(choices)
    P = inst.kernel[pair]
    M = np.eye(inst.num_states) - inst.delta * P.T
    if inst.mode != AVERAGE:
        return np.linalg.solve(M, inst.initial), pair
    if not is_unichain(P):
        return None
    M[-1] = 1.0
    x = np.maximum(np.linalg.solve(M, np.eye(inst.num_states)[-1]), 0.0)
    return x / x.sum(), pair


def brute_force_best_feasible(inst: MdpInstance, bench: Benchmark) -> OracleResult | None:
    """Exact exhaustive oracle over deterministic stationary policies.

    Evaluates objective and per-eta shortfalls by linear solves, never
    simulation. Average mode skips (and counts) multichain policies; returns
    None when no deterministic policy meets every dominance row within 1e-9.
    Raises ValueError on an invalid instance, vector z or a vector benchmark,
    or more than MAX_POLICIES policies.
    """
    require_valid(inst)
    if inst.reward_z.ndim != 1 or bench.is_vector:
        raise ValueError("vector z requires a generator family")
    etas = bench.support
    rhs = benchmark_curve(bench, etas)
    best = None   # (value, choices, shortfalls)
    feasible = 0
    skipped = 0
    for choices in _choices(inst):
        ev = _evaluate(inst, choices)
        if ev is None:
            skipped += 1
            continue
        x, pair = ev
        value = float(x @ inst.reward_r[pair])
        shortfalls = _expected_kink(inst.reward_z[pair], x, shortfall_minus, etas)
        if np.all(shortfalls >= rhs - FEAS_TOL):
            feasible += 1
            if best is None or value > best[0]:
                best = (value, choices, shortfalls)
    if best is None:
        return None
    value, choices, shortfalls = best
    return OracleResult(
        value=value,
        policy=deterministic_policy(inst, choices),
        shortfalls=shortfalls,
        feasible_count=feasible,
        skipped_multichain=skipped,
    )
