"""Shared instance builders and seeded random generators for the test suite."""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from domdp import lp, sparse
from domdp.average import ZERO_MARGINAL, solve_average
from domdp.discounted import solve_discounted
from domdp.mdp import AVERAGE, Benchmark, MdpInstance, Policy
from domdp.portfolio import BUDGET_TOL, PortfolioConfig


def ti1(mode="average", discount=None):
    """Golden 1-state instance: actions a/b, r=(2,5), z=(10,0), self-loop kernel."""
    discounted = mode == "discounted"
    return MdpInstance(
        num_states=1,
        actions=(("a", "b"),),
        kernel=np.array([[1.0], [1.0]]),
        reward_r=np.array([2.0, 5.0]),
        reward_z=np.array([10.0, 0.0]),
        mode=mode,
        discount=discount if discounted else None,
        initial=np.array([1.0]) if discounted else None,
    )


def benchmark_portfolio(resolution: int) -> PortfolioConfig:
    """The benchmark's fixed 3-asset portfolio config (``perfbench/workloads.py``)."""
    return PortfolioConfig(
        price_levels=((1.0, 1.2), (1.0, 0.8), (1.0, 1.1)),
        price_transitions=(np.array([[0.7, 0.3], [0.4, 0.6]]),) * 3,
        resolution=resolution,
        discount=0.9,
        benchmark=Benchmark(support=[-0.4, 0.0], probs=[0.5, 0.5]),
    )


def uniform_policy(inst):
    """Every action of every state equally likely."""
    return Policy(tuple(np.full(len(a), 1.0 / len(a)) for a in inst.actions))


TI1_BENCH = Benchmark(support=[4.0], probs=[1.0])
VACUOUS_BENCH = Benchmark(support=[-1e6], probs=[1.0])


def ti2(z=(0.0, 10.0)):
    """Deterministic 2-state swap chain with one action per state."""
    return MdpInstance(
        num_states=2,
        actions=(("go",), ("go",)),
        kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
        reward_r=np.array([1.0, 1.0]),
        reward_z=np.array(z, dtype=float),
        mode="average",
    )


def blocks_instance(sizes, mode="average"):
    """An instance with sizes[s] actions at state s; every kernel row uniform,
    every reward 0."""
    S, K = len(sizes), sum(sizes)
    discounted = mode == "discounted"
    return MdpInstance(
        num_states=S,
        actions=tuple(tuple(f"a{i}" for i in range(n)) for n in sizes),
        kernel=np.full((K, S), 1.0 / S),
        reward_r=np.zeros(K),
        reward_z=np.zeros(K),
        mode=mode,
        discount=0.5 if discounted else None,
        initial=np.full(S, 1.0 / S) if discounted else None,
    )


def sparse_average_instance(seed: int = 0) -> tuple[MdpInstance, Benchmark]:
    """An average-mode instance below lp.SPARSE_DENSITY, with a benchmark that binds.

    120 states with 3 actions each, and 4 next states per pair (3.3 % of the
    kernel nonzero): s + 1 (mod 120), so every policy is unichain, and three
    others drawn at random. The benchmark's two points sit in the lower half
    of the z range, and at seed 0 the lower one binds.
    """
    rng = np.random.default_rng(seed)
    S, A, fanout = 120, 3, 4
    kernel = np.zeros((S * A, S))
    for k in range(S * A):
        ahead = (k // A + 1) % S
        others = rng.choice(np.delete(np.arange(S), ahead), size=fanout - 1, replace=False)
        kernel[k, np.append(others, ahead)] = rng.dirichlet(np.ones(fanout))
    z = rng.uniform(-2.0, 2.0, size=S * A)
    inst = MdpInstance(
        num_states=S,
        actions=(("a0", "a1", "a2"),) * S,
        kernel=kernel,
        reward_r=rng.normal(size=S * A) - 0.5 * z,
        reward_z=z,
        mode=AVERAGE,
    )
    return inst, Benchmark(support=[-1.8, -0.8], probs=[0.5, 0.5])


def held_dense(inst: MdpInstance, monkeypatch) -> MdpInstance:
    """inst rebuilt from its dense kernel with every kernel held dense, as
    one above sparse.SPARSE_DENSITY is."""
    with monkeypatch.context() as m:
        m.setattr(sparse, "SPARSE_DENSITY", 0.0)
        return dataclasses.replace(inst)


def random_instance(rng, max_states=20, max_actions=5, mode="average"):
    """Random instance with strictly positive kernel rows, hence unichain policies."""
    S = int(rng.integers(2, max_states + 1))
    counts = rng.integers(1, max_actions + 1, size=S)
    actions = tuple(tuple(f"a{i}" for i in range(c)) for c in counts)
    K = int(counts.sum())
    raw = rng.dirichlet(np.full(S, 0.4), size=K)
    kernel = 0.999 * raw + 0.001 / S
    r = rng.normal(size=K)
    z = rng.uniform(-2.0, 2.0, size=K)
    discounted = mode == "discounted"
    initial = None
    discount = None
    if discounted:
        initial = rng.dirichlet(np.ones(S))
        discount = float(rng.uniform(0.5, 0.95))
    return MdpInstance(
        num_states=S,
        actions=actions,
        kernel=kernel,
        reward_r=r,
        reward_z=z,
        mode=mode,
        discount=discount,
        initial=initial,
    )


def random_benchmark(rng, inst, max_support=5):
    """Random benchmark whose support lands inside the instance's z range.

    In discounted mode shortfall rows live in discounted-total units, so the
    support is scaled by 1/(1-delta).
    """
    q = int(rng.integers(1, max_support + 1))
    zmin, zmax = float(inst.reward_z.min()), float(inst.reward_z.max())
    span = max(zmax - zmin, 0.5)
    pts = np.sort(rng.uniform(zmin - 0.25 * span, zmax, size=q))
    pts = np.unique(np.round(pts, 6))
    scale = 1.0 / (1.0 - inst.discount) if inst.mode == "discounted" else 1.0
    probs = rng.dirichlet(np.ones(pts.size))
    return Benchmark(support=pts * scale, probs=probs)


def all_rows_slack(report, margin_tol=1e-6, zero_tol=1e-12):
    """True when every dominance row is slack by margin_tol or vacuous (0 >= 0).

    The row at the benchmark's bottom support point always has rhs exactly 0
    and value <= 0, so a literal margin test alone can never pass; rows whose
    value and rhs are both zero constrain nothing and are exempt.
    """
    row_vals = report.dominance_matrix @ report.occupation.weights
    vacuous = (np.abs(row_vals) <= zero_tol) & (np.abs(report.dominance_rhs) <= zero_tol)
    return bool(np.all((report.dominance_margins >= margin_tol) | vacuous))


def feasible_pair(rng, max_states=20, max_actions=5, mode="average", max_support=5):
    """(instance, benchmark, report) with the benchmark shifted down if needed.

    A benchmark supported strictly below min z makes every shortfall row
    lhs 0 >= rhs, so one shift always restores feasibility.
    """
    inst = random_instance(rng, max_states, max_actions, mode)
    bench = random_benchmark(rng, inst, max_support)
    solver = solve_average if mode == "average" else solve_discounted
    report = solver(inst, bench)
    if report.status != "optimal":
        scale = 1.0 / (1.0 - inst.discount) if mode == "discounted" else 1.0
        span = float(inst.reward_z.max() - inst.reward_z.min()) + 1.0
        bench = Benchmark(support=bench.support - span * scale, probs=bench.probs)
        report = solver(inst, bench)
        assert report.status == "optimal", "shifted benchmark must be feasible"
    return inst, bench, report


def reference_dumps(value) -> str:
    """JSON for nested lists, tuples and arrays of numbers, one element at a time.

    Floats go through format(v, ".17g") and integers through str(int(v)), the
    bytes domdp.io.dumps must reproduce when it formats a whole array at once.
    """
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(reference_dumps(v) for v in value) + "]"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"cannot emit non-finite float {v!r}")
    return format(v, ".17g")


def reference_extract_policy(occ) -> Policy:
    """``domdp.average.extract_policy`` one state at a time, summing each block
    with ``ndarray.sum``."""
    inst = occ.inst
    w = occ.weights
    if inst.mode != AVERAGE:
        w = w / w.sum()
    rows = []
    for s in range(inst.num_states):
        block = w[inst.pair_offsets[s] : inst.pair_offsets[s + 1]]
        total = float(block.sum())
        if total > ZERO_MARGINAL:
            row = np.maximum(block, 0.0) / total
            row = row / row.sum()
        else:
            row = np.full(block.size, 1.0 / block.size)
        rows.append(row)
    return Policy(tuple(rows))


def reference_deterministic_policy(inst, choices) -> Policy:
    """``domdp.mdp.deterministic_policy`` one state at a time, for valid choices."""
    rows = []
    for s, a in enumerate(choices):
        row = np.zeros(len(inst.actions[s]))
        row[a] = 1.0
        rows.append(row)
    return Policy(tuple(rows))


def reference_merge(support, probs) -> tuple[np.ndarray, np.ndarray]:
    """The support points of a scalar ``Benchmark`` in increasing order, each
    with its probabilities added in input order, one point at a time."""
    support = np.asarray(support, dtype=float)
    probs = np.asarray(probs, dtype=float)
    order = np.argsort(support, kind="stable")
    support, probs = support[order], probs[order]
    keep_s, keep_p = [support[0]], [probs[0]]
    for v, p in zip(support[1:], probs[1:]):
        if v == keep_s[-1]:
            keep_p[-1] += p
        else:
            keep_s.append(v)
            keep_p.append(p)
    return np.array(keep_s), np.array(keep_p)


def reference_build_portfolio_instance(cfg: PortfolioConfig) -> MdpInstance:
    """``domdp.portfolio.build_portfolio_instance`` as a loop over price-profile
    pairs, grid points and moves, with every transition a left-to-right product
    of the asset chains' entries and z taken by a per-row dot."""
    profiles = list(itertools.product(*(range(len(lv)) for lv in cfg.price_levels)))

    def profile_prices(profile):
        return np.array([cfg.price_levels[i][li] for i, li in enumerate(profile)])

    def profile_transition(a, b):
        prob = 1.0
        for i, (la, lb) in enumerate(zip(a, b)):
            prob *= float(cfg.price_transitions[i][la, lb])
        return prob

    pairs = [
        (ia, ib)
        for ia in range(len(profiles))
        for ib in range(len(profiles))
        if profile_transition(profiles[ia], profiles[ib]) > 0.0
    ]
    num_states = len(pairs) * cfg.grid_size
    grid = cfg.holdings_grid()
    prices = [profile_prices(p) for p in profiles]
    wealth = {ib: grid @ prices[ib] for _, ib in pairs}
    budget = {ib: np.abs(w[None, :] - w[:, None]) <= BUDGET_TOL for ib, w in wealth.items()}
    num_pairs = sum(int(np.count_nonzero(budget[ib])) for _, ib in pairs)
    pair_index = {pair: pi for pi, pair in enumerate(pairs)}
    size = len(grid)

    actions: list[tuple[str, ...]] = []
    kernel = np.zeros((num_pairs, num_states))
    reward_r: list[float] = []
    reward_z: list[float] = []
    for ia, ib in pairs:
        p_prev, p_cur = prices[ia], prices[ib]
        next_probs = np.array([profile_transition(profiles[ib], pc) for pc in profiles])
        nxt = np.flatnonzero(next_probs > 0.0)
        # State (ib, ic, g2) is number pair_index[(ib, ic)] * size + g2.
        nxt_first = np.array([pair_index[(ib, ic)] for ic in nxt.tolist()]) * size
        for g, x in enumerate(grid):
            wealth_prev = float(p_prev @ x)
            z = (float(p_cur @ x) - wealth_prev) / wealth_prev
            labels = []
            for g2 in np.flatnonzero(budget[ib][g]).tolist():
                a = grid[g2] - x
                labels.append("hold" if g2 == g else f"to{g2}")
                kernel[len(reward_r), nxt_first + g2] = next_probs[nxt]
                reward_r.append(-float(np.sum(a * a)))
                reward_z.append(z)
            actions.append(tuple(labels))

    initial = np.zeros(num_states)
    if cfg.initial_holdings is not None:
        x0 = cfg.initial_holdings
    else:
        target = np.full(cfg.n_assets, 1.0 / cfg.n_assets)
        x0 = grid[int(np.argmin([float(np.sum((x - target) ** 2)) for x in grid]))]
    g0 = [g for g, x in enumerate(grid) if np.allclose(x, x0)][0]
    uniform = 1.0 / len(profiles)
    for pi, (ia, ib) in enumerate(pairs):
        initial[pi * size + g0] = uniform * profile_transition(profiles[ia], profiles[ib])

    return MdpInstance(
        num_states=num_states,
        actions=tuple(actions),
        kernel=kernel,
        reward_r=np.array(reward_r),
        reward_z=np.array(reward_z),
        mode="discounted",
        discount=cfg.discount,
        initial=initial,
    )


@dataclass(frozen=True)
class FinalBasis:
    """The basis a phase-2 run of ``lp._Simplex`` ended optimal on, with the
    data it claims optimality for: the min-sense standard form A x + U u = b,
    c over every column (structurals, then the unit columns of U)."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    basis: np.ndarray
    unit_rows: np.ndarray
    unit_sign: np.ndarray
    first_art: int
    dual_phase: bool   # the dual phase, not phase 1, led to this phase-2 run


def record_final_bases(monkeypatch) -> list:
    """Spy on ``lp._Simplex.run``: the returned list gains a FinalBasis for
    every phase-2 run (artificials priced at 0) that ends optimal."""
    run, dual = lp._Simplex.run, lp._Simplex.dual
    found = []

    def spied(self, c, max_iter):
        result = run(self, c, max_iter)
        if result[0] == "optimal" and not c[self.first_art :].any():
            found.append(FinalBasis(self.A, self.b, c.copy(), self.basis.copy(),
                                    self.unit_rows.copy(), self.unit_sign.copy(), self.first_art,
                                    getattr(self, "dual_status", None) == "feasible"))
        return result

    def spied_dual(self, c):
        self.dual_status = dual(self, c)
        return self.dual_status

    monkeypatch.setattr(lp._Simplex, "run", spied)
    monkeypatch.setattr(lp._Simplex, "dual", spied_dual)
    return found


def _exact_solve(M: list, v: list) -> list:
    """x with M x = v for a square nonsingular M of Fractions, by Gauss-Jordan."""
    rows = [row + [e] for row, e in zip(M, v)]
    for col in range(len(rows)):
        pivot = next(i for i in range(col, len(rows)) if rows[i][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [e / head for e in rows[col]]
        for i, row in enumerate(rows):
            if i != col and row[col] != 0:
                f = row[col]
                rows[i] = [a - f * e for a, e in zip(row, rows[col])]
    return [row[-1] for row in rows]


def exact_basis_infeasibility(fb: FinalBasis) -> tuple[float, float]:
    """(relative primal, relative dual infeasibility) of a final basis, exact.

    B x_B = b and y^T B = c_B are solved again in rational arithmetic on the
    float data. The primal figure is -min x_B / max |x_B|, the dual one
    -min d_j / max |c_j| over the reduced costs d_j of the nonbasic
    structurals and slacks; 0 when nothing is negative.
    """
    m, n = fb.A.shape
    A = [[Fraction(float(a)) for a in row] for row in fb.A]

    def column(j):
        if j < n:
            return [A[i][j] for i in range(m)]
        k = j - n
        return [Fraction(float(fb.unit_sign[k])) if i == fb.unit_rows[k] else Fraction(0)
                for i in range(m)]

    cols = [column(int(j)) for j in fb.basis]
    B = [[cols[k][i] for k in range(m)] for i in range(m)]
    x_B = _exact_solve(B, [Fraction(float(v)) for v in fb.b])
    y = _exact_solve([list(col) for col in cols], [Fraction(float(fb.c[j])) for j in fb.basis])
    basic = set(fb.basis.tolist())
    d = [Fraction(float(fb.c[j])) - sum(a * w for a, w in zip(column(j), y) if a)
         for j in range(fb.first_art) if j not in basic]
    primal = max(0.0, float(-min(x_B))) / (float(max(map(abs, x_B))) or 1.0)
    c_max = float(np.abs(fb.c[:n]).max(initial=0.0)) or 1.0
    dual = max(0.0, float(-min(d, default=0))) / c_max
    return primal, dual
