"""Monte Carlo trajectory simulation and brute-force policy oracles.

Randomness is counter-based and splittable: path p of a run seeded with s
draws from Philox keyed by (s, p) from counter 0 (one bit generator,
re-keyed for each path), so trajectories are bit-reproducible across runs
and platforms. The first uniform of a path selects the starting
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
last steps take one gather each. Otherwise (S * span larger than the run)
each step searches the table with one ``searchsorted`` and keeps the table
position. Either way one gather through a table of S * span keys or S * W
positions maps every step to its dense (state, action) pair, the output.

A path's step ranks are computed as soon as its uniforms are drawn, so the
step loop handles integers only, and the uniforms of only one path are
held at a time.

A path's empirical reward distribution is its pair-visit frequencies (its
empirical occupation measure), so the estimators count each path's visits
to every pair with one ``bincount`` (weighted by delta^t in discounted
mode) and take every eta's shortfall as those counts times min(z - eta, 0):
no (paths, T) array of z or of shortfalls is built.
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
    """Path p's step t is the dense pair pairs[p, t] of inst; states, actions
    and z are read off the pairs."""

    inst: MdpInstance
    pairs: np.ndarray   # (num_paths, T)

    @property
    def states(self) -> np.ndarray:
        return self.inst.state_of_pair().take(self.pairs)

    @property
    def actions(self) -> np.ndarray:
        """Action index within A(s_t)."""
        return self.pairs - self.inst.pair_offsets.take(self.states)

    @property
    def z(self) -> np.ndarray:
        """(num_paths, T) for scalar z, (num_paths, T, d) for vector z."""
        return self.inst.reward_z[self.pairs]


def _uniforms(seed: int, num_paths: int, count: int):
    """Yield path p's count uniforms, p = 0 ... num_paths - 1: Philox keyed by
    (seed, p) from counter 0, one bit generator re-keyed for each path."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    gen = np.random.Generator(bitgen)
    state = bitgen.state   # counter 0, empty buffer
    state["state"]["key"] = key
    for p in range(num_paths):
        key[1] = p
        bitgen.state = state
        yield gen.random(count)


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
    for p, u in enumerate(_uniforms(seed, num_paths, 1 + T)):
        first[p] = u[0]
        keys[:, p] = rank(u[1:])
    del u, rank
    start = np.searchsorted(nu_cum, first, side="left")
    next_state = np.arange(S * W) % S
    # The dense pair of every table position s * W + action * S + next state.
    # A state's padding cells would map past its pairs, but no uniform
    # reaches them (see the module docstring).
    pair_of = (inst.pair_offsets[:-1, None] + np.arange(W) // S).ravel()
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
        jump *= span**j   # for j = 1 this scales nxt, which is not read again
        base = _table_steps(packed, span**j * start, jump)
        del jump
        if j > 1:
            # Each block's start key gives its first step's key, and each
            # step's key its next step's state: one pass per step of a block.
            blocks[:, 0] = packed // span ** (j - 1)
            for i in range(1, j):
                blocks[:, i] += span * nxt.take(blocks[:, i - 1])
            _table_steps(keys[T - T % j :], base // span ** (j - 1), span * nxt)
        del blocks, packed, nxt
        pair_of = pair_of.take(cell_of)
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
    pairs = pair_of.take(keys)
    return Trajectories(inst=inst, pairs=pairs.T)


@dataclass(frozen=True)
class ShortfallEstimate:
    eta: float
    estimate: float
    stderr: float
    truncation_bound: float = 0.0


def _shortfall_totals(trajs: Trajectories, grid: np.ndarray, start: int = 0, weights=None):
    """(grid, num_paths): entry (i, p) sums weights[t - start] min(z_t - grid[i], 0)
    over path p's steps t >= start (weight 1 when weights is None), as
    min(z - eta, 0) times the path's visit counts of every pair."""
    inst = trajs.inst
    if inst.reward_z.ndim != 1:
        raise ValueError("shortfall estimation requires scalar z")
    window = trajs.pairs.T[start:]   # step-major, C-ordered as simulate leaves it
    n = window.shape[1]
    keys = window * n   # pair * n + path: one bincount counts every path
    keys += np.arange(n)
    if weights is not None:
        weights = np.broadcast_to(weights[:, None], window.shape).ravel()
    counts = np.bincount(keys.ravel(), weights, minlength=inst.num_pairs * n)
    return shortfall_minus(inst.reward_z, grid[:, None]) @ counts.reshape(-1, n)


def _batch_stats(totals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row mean over the paths and its standard error (0 for one path)."""
    n = totals.shape[1]
    se = totals.std(axis=1, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(len(totals))
    return totals.mean(axis=1), se


def burn_in(T: int) -> int:
    """Steps the average-mode estimator discards from the start of a length-T path."""
    return T // 10


def estimate_average_shortfalls(trajs: Trajectories, grid) -> list[ShortfallEstimate]:
    """Per-eta long-run average shortfall, paths as batches for the standard error.

    The first burn_in(T) = T // 10 steps of every path are discarded.
    """
    grid = np.asarray(grid, dtype=float)
    T = trajs.pairs.shape[1]
    burn = burn_in(T)
    mean, se = _batch_stats(_shortfall_totals(trajs, grid, burn) / (T - burn))
    return [
        ShortfallEstimate(eta=float(e), estimate=float(m), stderr=float(s))
        for e, m, s in zip(grid, mean, se)
    ]


def estimate_discounted_shortfalls(trajs: Trajectories, grid) -> list[ShortfallEstimate]:
    """Per-eta discounted shortfall sum over the truncated horizon.

    delta is the instance's discount. The recorded truncation bound is
    delta^T max|z - eta| / (1 - delta), with z over every pair of the
    instance, visited or not: it bounds the steps after T of any path.
    """
    inst = trajs.inst
    if inst.mode == AVERAGE:
        raise ValueError("the discounted estimator needs a discounted instance")
    grid = np.asarray(grid, dtype=float)
    T = trajs.pairs.shape[1]
    delta = inst.delta
    mean, se = _batch_stats(_shortfall_totals(trajs, grid, weights=delta ** np.arange(T)))
    lo, hi = float(inst.reward_z.min()), float(inst.reward_z.max())
    return [
        ShortfallEstimate(
            eta=float(e),
            estimate=float(m),
            stderr=float(s),
            truncation_bound=delta**T * max(abs(lo - e), abs(hi - e)) / (1.0 - delta),
        )
        for e, m, s in zip(grid, mean, se)
    ]


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
