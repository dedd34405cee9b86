"""Differential test against HiGHS, an independent LP solver.

``scipy.optimize.linprog(method="highs")`` solves the same occupation-measure
LP that ``solve_average``/``solve_discounted`` build, and the sampled ALP in
its primal form over (gamma, beta, alpha), which ``solve_alp`` solves through
its dual. SciPy is imported here only; ``domdp`` itself never loads it.
"""

import numpy as np
import pytest

from domdp.alp import BasisSet, complete_basis, sample_constraints, solve_alp
from domdp.average import build_average_primal, row_name, solve_average
from domdp.discounted import build_discounted_primal, solve_discounted
from domdp.dominance import weighted_kink_family
from domdp.lp import EQ, GE, LE
from domdp.mdp import Benchmark
from domdp.portfolio import build_portfolio_instance
from helpers import benchmark_portfolio, random_benchmark, random_instance, sparse_average_instance

linprog = pytest.importorskip("scipy.optimize").linprog

TOL = 1e-7
QUANTILES = np.array([0.55, 0.7, 0.85, 1.0])


def _highs(lp):
    """(status, objective, duals): duals signed like LpSolution.y_raw."""
    senses = np.asarray(lp.row_senses)
    sign = -1.0 if lp.sense == "max" else 1.0
    le, ge, eq = senses == LE, senses == GE, senses == EQ
    ub = np.flatnonzero(le | ge)
    flip = np.where(ge[ub], -1.0, 1.0)
    res = linprog(
        sign * lp.c,
        A_ub=lp.A[ub] * flip[:, None] if ub.size else None,
        b_ub=lp.b[ub] * flip if ub.size else None,
        A_eq=lp.A[eq],
        b_eq=lp.b[eq],
        bounds=(0, None),
        method="highs",
    )
    if res.status == 2:
        return "infeasible", None, None
    assert res.status == 0, res.message
    y = np.zeros(lp.num_rows)
    y[eq] = sign * res.eqlin.marginals
    if ub.size:
        y[ub] = sign * flip * res.ineqlin.marginals
    return "optimal", sign * res.fun, y


def _draws():
    """Seeded instances in both modes: binding, family, infeasible and drawn benchmarks."""
    rng = np.random.default_rng(8080)
    for i in range(32):
        mode = "average" if i % 2 == 0 else "discounted"
        inst = random_instance(rng, max_states=8, max_actions=4, mode=mode)
        # Support between min z and the smallest per-state best z: the
        # z-greedy policy is feasible, the reward-greedy one often is not.
        z = inst.reward_z
        lo, top = float(z.min()), float(np.maximum.reduceat(z, inst.pair_offsets[:-1]).min())
        bench = Benchmark(support=lo + (top - lo) * QUANTILES, probs=rng.dirichlet(np.ones(4)))
        family = None
        kind = (i // 2) % 4
        if kind == 1:
            family = weighted_kink_family([[1.0], [0.5]], bench.support[:2], bench)
        elif kind == 2:  # every support point far above z: infeasible
            scale = 1.0 / (1.0 - inst.discount) if mode == "discounted" else 1.0
            span = float(z.max() - z.min()) + 1.0
            bench = Benchmark(support=bench.support + span * scale, probs=bench.probs)
        elif kind == 3:
            bench = random_benchmark(rng, inst, max_support=4)
        yield pytest.param(inst, bench, family, id=f"{mode}-{i:02d}-k{kind}")
    cfg = benchmark_portfolio(2)
    yield pytest.param(build_portfolio_instance(cfg), cfg.benchmark, None, id="portfolio-r2")
    # Average mode below lp.SPARSE_DENSITY: a compressed LP with the normalization row.
    yield pytest.param(*sparse_average_instance(), None, id="sparse-average-120")


def _farkas_problems(lp, report, inst, etas):
    """Sign conditions of a Farkas certificate y for {x >= 0, A x (senses) b}.

    y.A <= 0 on every column, y >= 0 on >= rows, y <= 0 on <= rows and
    y.b > 0: then no x >= 0 satisfies the rows. The report's weights go to
    rows by their names; etas as for ``row_name``.
    """
    weights = dict(report.certificate)
    assert len(weights) == len(report.certificate), "row names repeat"
    y = np.array([weights.pop(row_name(inst, i, etas), 0.0) for i in range(lp.num_rows)])
    assert not weights, f"names of no row: {sorted(weights)}"
    scale = np.abs(y).max() * (1.0 + np.abs(lp.A).max() + np.abs(lp.b).max())
    senses = np.asarray(lp.row_senses)
    problems = []
    if (y @ lp.A).max() > TOL * scale:
        problems.append(f"y.A reaches {(y @ lp.A).max()!r}")
    if (y[senses == GE]).min(initial=0.0) < -TOL * scale:
        problems.append("negative weight on a >= row")
    if (y[senses == LE]).max(initial=0.0) > TOL * scale:
        problems.append("positive weight on a <= row")
    if y @ lp.b <= TOL * scale:
        problems.append(f"y.b = {y @ lp.b!r} is not positive")
    return problems


@pytest.mark.parametrize("inst,bench,family", _draws())
def test_matches_highs(inst, bench, family):
    average = inst.mode == "average"
    build = build_average_primal if average else build_discounted_primal
    lp = build(inst, bench, family)
    report = (solve_average if average else solve_discounted)(inst, bench, family=family)
    status, objective, y = _highs(lp)
    assert report.status == status
    if status == "infeasible":
        etas = bench.support if family is None else None
        assert _farkas_problems(lp, report, inst, etas) == []
        return
    scale = 1.0 + abs(objective)
    assert report.objective == pytest.approx(objective, abs=TOL * scale)
    # The reported (g, h, lambda) must be an optimal dual: feasible, with
    # HiGHS's optimum as its objective. The optimal dual is rarely unique (the
    # row at the bottom support point is always tight), so HiGHS's own
    # lambda and h may be another optimal dual; where they agree, so do ours.
    dual = report.dual
    ours = np.concatenate([dual.h, [dual.g] if average else [], -dual.lam])
    assert dual.lam.min() >= 0.0
    assert (lp.c - lp.A.T @ ours).max() <= TOL * scale
    assert lp.b @ ours == pytest.approx(objective, abs=TOL * scale)
    assert lp.b @ y == pytest.approx(objective, abs=TOL * scale)
    # Complementary slackness with HiGHS's dual: every pair we use is tight
    # there too.
    used = report.occupation.weights > 1e-9
    assert np.abs((lp.c - lp.A.T @ y)[used]).max() <= TOL * scale * (1.0 + np.abs(y).max())
    S = inst.num_states
    if not np.allclose(dual.lam, -y[S + average :], atol=TOL * scale):
        return
    # The same lambda fixes h (v) on the visited states, up to a constant in
    # average mode, where the two gauges differ.
    visited = report.visited_states
    shift = dual.h[visited] - y[:S][visited]
    if average:
        assert dual.g == pytest.approx(y[S], abs=TOL * scale)
        shift = shift - shift.mean()
    assert np.abs(shift).max() <= TOL * scale * (1.0 + np.abs(y[:S]).max())


@pytest.mark.parametrize("resolution", [2, 3])
def test_benchmark_portfolio_matches_highs(resolution):
    # The sparse LPs of the benchmark's portfolio workload. The eta = 0 row
    # binds (lambda about 5.9 and 4.3); objective and lambda match HiGHS's.
    cfg = benchmark_portfolio(resolution)
    inst = build_portfolio_instance(cfg)
    lp = build_discounted_primal(inst, cfg.benchmark)
    report = solve_discounted(inst, cfg.benchmark)
    status, objective, y = _highs(lp)
    assert report.status == status == "optimal"
    assert report.objective == pytest.approx(objective, abs=TOL * (1.0 + abs(objective)))
    lam = -y[inst.num_states :]
    assert lam[-1] > 1.0
    assert np.abs(report.dual.lam - lam).max() <= TOL * (1.0 + lam.max())


def _alp_draws():
    """Seeded ALPs in both modes, one kink per benchmark point.

    The h bases are the identity or a block aggregation, with rows dropped
    in some draws, so that some ALPs are infeasible or unbounded.
    """
    rng = np.random.default_rng(9090)
    for i in range(36):
        mode = "average" if i % 2 == 0 else "discounted"
        inst = random_instance(rng, max_states=8, max_actions=4, mode=mode)
        bench = random_benchmark(rng, inst, max_support=3)
        S = inst.num_states
        kind = (i // 2) % 3
        if kind == 1:  # two or three state blocks
            blocks = min(S, 3)
            H = np.zeros((blocks, S))
            for j in range(blocks):
                H[j, j * S // blocks : (j + 1) * S // blocks] = 1.0
        else:
            H = np.eye(S)
        if i % 4 >= 2:
            H = H[: max(1, H.shape[0] - 2)]
        bases = BasisSet(h_bases=H, u_bases=complete_basis(inst, bench).u_bases)
        yield pytest.param(inst, bench, bases, i, id=f"{mode}-{i:02d}-k{kind}-h{len(H)}")


def _highs_alp(inst, bench, bases, samples):
    """(status, objective) of the sampled ALP over (gamma, beta, alpha), by HiGHS.

    Row k reads r + sum_i alpha_i u_i(z) <= beta + h(s) - delta sum_j P(j|s,a) h(j)
    with h = gamma . H, at the sampled pair k = (s, a); beta exists in average
    mode only. A non-optimal ALP is infeasible when it stays so without its
    objective, and unbounded otherwise.
    """
    H = bases.h_bases
    average = inst.mode == "average"
    h_side = H.T[inst.state_of_pair()[samples]] - inst.delta * (inst.kernel[samples] @ H.T)
    U = np.array([[u(z) for u in bases.u_bases] for z in inst.reward_z[samples]])
    A = np.hstack([-h_side, -np.ones((samples.size, int(average))), U.reshape(samples.size, -1)])
    c = np.concatenate(
        [
            np.zeros(len(H)) if average else H @ inst.initial,
            [1.0] if average else [],
            [-u.expectation(bench) for u in bases.u_bases],
        ]
    )
    bounds = [(None, None)] * (A.shape[1] - bases.num_u) + [(0, None)] * bases.num_u
    b = -inst.reward_r[samples]
    res = linprog(c, A_ub=A, b_ub=b, bounds=bounds, method="highs")
    if res.status == 0:
        return "optimal", res.fun
    feasible = linprog(np.zeros_like(c), A_ub=A, b_ub=b, bounds=bounds, method="highs")
    return ("unbounded" if feasible.status == 0 else "infeasible"), None


@pytest.mark.parametrize("inst,bench,bases,seed", _alp_draws())
def test_alp_matches_highs(inst, bench, bases, seed):
    report = solve_alp(inst, bench, bases, epsilon=0.3, delta=0.1, seed=seed)
    samples = sample_constraints(inst, None, report.num_samples, seed)
    status, objective = _highs_alp(inst, bench, bases, samples)
    assert report.status == status
    if status == "optimal":
        assert report.objective == pytest.approx(objective, rel=TOL, abs=TOL)


def test_alp_draws_reach_every_status():
    statuses = set()
    for param in _alp_draws():
        inst, bench, bases, seed = param.values
        m = solve_alp(inst, bench, bases, epsilon=0.3, delta=0.1, seed=seed).num_samples
        statuses.add(_highs_alp(inst, bench, bases, sample_constraints(inst, None, m, seed))[0])
    assert statuses == {"optimal", "infeasible", "unbounded"}
