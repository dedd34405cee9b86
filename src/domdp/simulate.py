"""Monte Carlo trajectory simulation and brute-force policy oracles.

Randomness is counter-based and splittable: path p of a run seeded with s
draws from Philox keyed by (s, p) from counter 0 (one bit generator,
re-keyed for each path), so trajectories are bit-reproducible across runs
and platforms. The first uniform of a path selects the starting state and
each subsequent uniform u the joint (action, next state) cell of the current
state's distribution phi(a|s) P(j|s,a), both by inverse CDF over the entries
of positive probability only: a state's cells are its positive ones in
action-major order, and u selects the first whose running sum reaches u, the
number of running sums below u. The last running sum is 1.0, so a draw of 0
takes the first positive entry, a draw above a sum that ends below 1 the
last, and no entry of probability 0 is ever drawn.

Each step finds that count for all paths exactly through a sorted integer
table keyed by ranks (the table-lookup form of inverse-CDF sampling, Chen &
Asau, J. Chinese Inst. Engineers, 1974; Devroye, Non-Uniform Random Variate
Generation, 1986, ch. III):

- The table holds the policy's positive cells, state by state, read from
  the positive kernel entries: the dense kernel's, or the compressed rows'
  of a sparse instance (``domdp.mdp``), in the same order and with the same
  values. Adding 0.0 is exact, so their running sums are those over all of
  a state's cells.
  Every running sum is capped at 1.0 and a state's last one is 1.0. A
  uniform lies in [0, 1), so it never counts an entry >= 1: the counts are
  unchanged, and every row is nondecreasing.
- With ``values`` the distinct entries in increasing order and an entry's
  rank its position there, an entry is below u exactly when its rank is
  below rank(u) = searchsorted(values, u), the number of values below u.
  1.0 is a value and u < 1, so rank(u) < len(values).
- Row s's ranks plus s * span, with span = len(values) + 1, lie in
  [s * span, (s + 1) * span), so the rows laid end to end form one sorted
  table. The number of its entries below the key s * span + rank(u) is the
  cell count of the states before s plus the count, the drawn cell's
  position, and the next key's row offset is span times the cell's next
  state.

A uniform's rank comes from a guide table (Chen & Asau's index table) of G
buckets, G the smallest power of two >= 16 * len(values): with
cnt[b] = rank(b / G), a bucket [b / G, (b + 1) / G) holding no value has
rank(u) = cnt[b] for every u in it. G is a power of two, so b = floor(u * G)
is exact, and only the uniforms of the at most len(values) occupied buckets
(a few percent) are searched. The table is built only when its G + 1
entries are no more than the run's paths * T ranks; otherwise every uniform
is searched. The same holds for any nondecreasing values, ties included, so
``domdp.alp`` draws its constraint samples through this ranker too, on the
cumulative sampling distribution.

Every key is an integer below S * span - 1. When the table's S * span keys
are no more than the paths * T ranks the run holds anyway, the table
position and next state of every key are found once, and a step is one
gather for all paths: the key state * span + rank gives span times the next
state, the next key's row offset. Otherwise each step searches the table
with one ``searchsorted`` and keeps the table position. Either way one
gather through a table of S * span keys or of the cells maps every step to
its dense (state, action) pair, the output.

A table-step run goes by coupled segments where it can, with no
approximation: copies of the chain driven by the same uniforms from every
start state merge, and from then on the state does not depend on the start
(Propp & Wilson, Random Struct. Alg. 9, 1996).

- Each path is cut into segments of L = ceil(sqrt(T * S)) steps. For every
  segment k >= 1 of every path, a probe steps all S states from step k * L
  through the one-step table on that segment's own ranks, all probes in one
  loop, keeping one copy of each state a probe holds (the work is the sum
  of the image sizes). When a probe's copies meet at step t, the path's
  state at t is known, whatever its state was at the segment's start.
- A probe stops when its copies meet or have taken L steps, and a probe of
  the last segment at step T - 1. All probing stops early once the probes
  have stepped more copies than the run has steps (paths * T). The copies
  of a periodic chain, or of one with two closed classes, never meet, so
  its probing ends there. It also stops once a segment-1 probe is still
  open after i steps with L + 2 i >= T: that path's run from its start is
  then longer than L + i, so the loop count of the runs would reach T.
- One loop then steps every path's runs at once: from the path's start, and
  from each meeting point, to the path's next meeting point. Each step's
  rank becomes its table key in place, once. A segment whose copies did not
  meet is covered by the run before it: no state is guessed, and the keys
  are those of the serial loop, bit for bit.
- The runs are used when their loop count, the probe steps plus the
  longest run, is below T; otherwise the one-step loop takes the T steps
  of all paths, one gather a step.

Ranks are computed as soon as uniforms are drawn, so the step loop handles
integers only. One call ranks the uniforms of consecutive paths up to
RANK_BATCH uniforms, or of one path when a path has more, so a long run
holds the uniforms of one path at a time.

A path's empirical reward distribution is its pair-visit frequencies (its
empirical occupation measure), so the estimators count each path's visits
to every pair with one ``bincount`` (weighted by delta^t in discounted
mode) and take every eta's shortfall as those counts times min(z - eta, 0):
no (paths, T) array of z or of shortfalls is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dominance import _expected_kink, benchmark_curve, shortfall_minus
from .mdp import (
    AVERAGE,
    KERNEL_TOL,
    Benchmark,
    MdpInstance,
    Policy,
    deterministic_policy,
    is_unichain,
    require_valid,
)

MAX_POLICIES = 10**6
FEAS_TOL = 1e-9
RANK_BATCH = 1 << 16   # uniforms ranked per call: consecutive paths of short runs


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


def _uniforms(seed: int, streams, count: int):
    """Yield count uniforms for each stream in streams: Philox keyed by
    (seed, stream) from counter 0, one bit generator re-keyed for each.
    Path p of a simulation is stream p."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    gen = np.random.Generator(bitgen)
    state = bitgen.state   # counter 0, empty buffer
    state["state"]["key"] = key
    for stream in streams:
        key[1] = stream
        bitgen.state = state
        yield gen.random(count)


def _ranker(values: np.ndarray, size: int):
    """The function u -> searchsorted(values, u, side="left") for uniforms u in
    [0, 1) and nondecreasing values (ties allowed), through a guide table when
    its G + 1 entries fit in size, the count of uniforms it will rank (see the
    module docstring)."""
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


def _table_steps(keys: np.ndarray, base: np.ndarray, step: np.ndarray) -> None:
    """Add base to keys[0], gather the next base from step, and so on down the
    rows of keys, which become table keys in place."""
    for column in keys:
        column += base
        base = step.take(column)


def _positions(table: np.ndarray, size: int) -> np.ndarray:
    """table.searchsorted(np.arange(size)) for a sorted table of integers in
    [0, size): the number of entries below each key, by counting."""
    counts = np.bincount(table, minlength=size)
    return np.cumsum(counts) - counts


def _segment_length(T: int, S: int) -> int:
    """Steps per segment of the coupled runs: ceil(sqrt(T * S))."""
    return math.isqrt(T * S - 1) + 1


def _meetings(keys: np.ndarray, nxt: np.ndarray, S: int, L: int):
    """Probe segments 1, 2, ... of every path (see the module docstring).

    keys holds the (T, paths) ranks and nxt[state * span + rank] is the next
    state. Returns the positions t * paths + p in keys and the states of the
    steps where a probe's copies met, and the probe steps taken. Probing
    stops after L steps, once it has stepped more copies than keys has
    entries, or once a segment-1 probe is still open after i steps with
    L + 2 i >= T; the last segment's probes are dropped at step T - 1.
    """
    T, paths = keys.shape
    span = nxt.size // S
    flat = keys.reshape(-1)
    first = np.arange(L, T, L)   # the first steps of segments 1, 2, ...
    probes = first.size * paths
    # Copy c of probe q = (k - 1) * paths + p starts as entry q * S + c, and
    # entries stay in probe order; pos is the position of a copy's next rank.
    pid = np.arange(probes * S) // S
    cur = np.tile(np.arange(S), probes)
    pos = (first[:, None] * paths + np.arange(paths)).ravel().repeat(S)
    owner = np.empty(probes * S, dtype=np.intp)
    order = np.arange(probes * S)
    last = T - 1 - first[-1] if probes else 0   # the last segment's steps to step T - 1
    met_pos, met_state = [], []
    steps = work = 0
    alive = np.ones(probes * S, dtype=bool)
    while True:
        # A probe whose one live copy is left has met; it and the dropped copies go.
        single = alive & (np.bincount(pid, alive, probes).take(pid) == 1)
        if single.any():
            met_pos.append(pos[single])
            met_state.append(cur[single])
            alive &= ~single
        if steps == last:
            alive &= pid < probes - paths
        pid, cur, pos = pid[alive], cur[alive], pos[alive]
        if not pid.size or steps == L or work > keys.size:
            break
        if pid[0] < paths and L + 2 * steps >= T:
            # A segment-1 probe still open: its path's run from the start
            # is longer than L + steps, so the runs cannot pay off.
            break
        key = cur * span
        key += flat.take(pos)
        cur = nxt.take(key)
        pos += paths
        steps += 1
        # One copy per (probe, state) lives on: the last one written to its slot.
        slot = pid * S + cur
        n = slot.size
        work += n
        owner[slot] = order[:n]
        alive = owner.take(slot) == order[:n]
    if not met_pos:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), steps
    return np.concatenate(met_pos), np.concatenate(met_state), steps


def _coupled_runs(keys: np.ndarray, start: np.ndarray, nxt: np.ndarray, S: int):
    """Every path's runs from its start and from each meeting point to the
    path's next one, longest first: (positions t * paths + p of their first
    steps, first states, lengths). None when their loop count, the probe
    steps plus the longest run, is not below T, the one-step loop's."""
    T, paths = keys.shape
    met_pos, met_state, probed = _meetings(keys, nxt, S, _segment_length(T, S))
    pos = np.concatenate([np.arange(paths), met_pos])
    state = np.concatenate([start, met_state])
    order = np.lexsort((pos, pos % paths))
    pos, state = pos[order], state[order]
    path = pos % paths
    end = np.append(pos[1:], 0)
    last = np.append(path[1:] != path[:-1], True)
    end[last] = T * paths + path[last]
    length = (end - pos) // paths
    if probed + length.max() >= T:
        return None
    order = np.argsort(-length, kind="stable")
    return pos[order], state[order], length[order]


def _run_steps(keys: np.ndarray, pos: np.ndarray, base: np.ndarray, length: np.ndarray,
               step: np.ndarray) -> None:
    """Step all runs together, longest first, each for its length: the rank at
    pos becomes the table key base + rank in place, base becomes step[key],
    and pos moves on to the run's next step."""
    paths = keys.shape[1]
    flat = keys.reshape(-1)
    length = length.tolist()
    n = len(length)
    for i in range(length[0]):
        while length[n - 1] <= i:
            n -= 1
        at = pos[:n]
        key = flat.take(at)
        key += base[:n]
        flat[at] = key
        step.take(key, out=base[:n])
        at += paths


def simulate(
    inst: MdpInstance,
    policy: Policy,
    nu: np.ndarray,
    T: int,
    num_paths: int,
    seed: int,
) -> Trajectories:
    """num_paths independent length-T trajectories; path p is keyed by (seed, p).

    nu is the start distribution, checked as ``validate_instance`` checks an
    instance's initial: no entry below -KERNEL_TOL, a sum within KERNEL_TOL of 1.
    """
    require_valid(inst)
    if num_paths < 1 or T < 1:
        raise ValueError("num_paths and T must be at least 1")
    S = inst.num_states
    nu = np.asarray(nu, dtype=float)
    if (nu.shape != (S,) or not np.isfinite(nu).all() or nu.min() < -KERNEL_TOL
            or abs(nu.sum() - 1.0) > KERNEL_TOL):
        raise ValueError(f"nu must be a distribution over the {S} states: finite, >= 0, sum 1")
    # The policy's positive cells (pair, next state) in each state's
    # action-major order, their running sums within the state capped at 1.0
    # and the state's last one 1.0, then the rank-keyed table (see the module
    # docstring).
    if inst.kernel_rows is None:
        pair, next_state = np.divmod(np.flatnonzero(inst.kernel > 0.0), S)
        p = inst.kernel[pair, next_state]
    else:
        pair, next_state, p = inst.kernel_rows.entries()
        cell = np.flatnonzero(p > 0.0)
        pair, next_state, p = pair.take(cell), next_state.take(cell), p.take(cell)
    probs = policy.probs.take(pair) * p
    keep = np.flatnonzero(probs > 0.0)
    pair, next_state, probs = pair.take(keep), next_state.take(keep), probs.take(keep)
    state = inst.state_of_pair().take(pair)
    at = np.arange(pair.size) - state.searchsorted(state)
    sums = np.zeros((S, at.max() + 1))
    sums[state, at] = probs
    cum = np.minimum(np.cumsum(sums, axis=1)[state, at], 1.0)
    cum[state.searchsorted(state, "right") - 1] = 1.0
    values, ranks = np.unique(cum, return_inverse=True)
    span = values.size + 1
    table = ranks + span * state
    del sums, ranks
    starts = np.flatnonzero(nu > 0.0)
    nu_cum = np.cumsum(nu[starts])
    nu_cum[-1] = 1.0

    # keys[t] holds the ranks of step t's uniforms until the step loop makes
    # them table keys (table step) or table positions (search step).
    size = T * num_paths
    rank = _ranker(values, size)
    first = np.empty(num_paths)
    keys = np.empty((T, num_paths), dtype=np.int64)
    batch = max(1, RANK_BATCH // (1 + T))   # paths ranked per call
    draws = _uniforms(seed, range(num_paths), 1 + T)
    for p in range(0, num_paths, batch):
        rows = list(itertools.islice(draws, batch))
        u = np.stack(rows) if len(rows) > 1 else rows[0][None]
        first[p : p + len(u)] = u[:, 0]
        keys[:, p : p + len(u)] = rank(u[:, 1:].ravel()).reshape(len(u), T).T
    del rows, u, rank
    start = starts.take(np.searchsorted(nu_cum, first, side="left"))
    if S * span <= size:
        # Table position and next state of every key state * span + rank. The
        # last key, past the table's end, never occurs: every rank is below span - 1.
        cell_of = _positions(table, S * span)
        cell_of[-1] = 0
        nxt = next_state.take(cell_of)
        runs = _coupled_runs(keys, start, nxt, S)
        nxt *= span   # the step table: key -> the next key's row offset
        if runs is None:
            _table_steps(keys, span * start, nxt)
        else:
            pos, state, length = runs
            _run_steps(keys, pos, span * state, length, nxt)
        del nxt
        pair = pair.take(cell_of)
        del cell_of
    else:
        next_base = span * next_state
        find = table.searchsorted   # the bound method skips np.searchsorted's dispatch
        base = span * start
        for column in keys:
            g = find(base + column)
            column[:] = g
            base = next_base[g]
    pairs = pair.take(keys)
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
