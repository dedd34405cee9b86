"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here; the random families are fully seeded so the
suite is deterministic.
"""

import math
import time

import numpy as np
import pytest

from domdp.alp import complete_basis, build_alp, sample_count, solve_alp
from domdp.average import (
    relative_value_iteration,
    solve_average,
    stationary_distribution,
)
from domdp.discounted import (
    bellman_residual,
    solve_discounted,
    value_iteration_unconstrained,
)
from domdp.dominance import check_icv, reconstruct_utility, shortfall_minus
from domdp.lp import solve_lp
from domdp.mdp import Benchmark, validate_instance
from domdp.portfolio import PortfolioConfig, build_portfolio_instance
from domdp.simulate import (
    brute_force_best_feasible,
    estimate_average_shortfalls,
    estimate_discounted_shortfalls,
    simulate,
)
from helpers import TI1_BENCH, VACUOUS_BENCH, all_rows_slack, feasible_pair, ti1

from test_alp import fixed_50_state_instance, small_bases


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


_SUITE_TIMES = {}


@pytest.fixture(scope="module")
def average_suite():
    rng = np.random.default_rng(112233)
    start = time.perf_counter()
    suite = [feasible_pair(rng, max_states=20, max_actions=5) for _ in range(100)]
    _SUITE_TIMES["average"] = time.perf_counter() - start
    return suite


@pytest.fixture(scope="module")
def discounted_suite():
    rng = np.random.default_rng(445566)
    start = time.perf_counter()
    suite = [
        feasible_pair(rng, max_states=20, max_actions=5, mode="discounted")
        for _ in range(100)
    ]
    _SUITE_TIMES["discounted"] = time.perf_counter() - start
    return suite


def test_criterion_1_golden_ti1():
    start = time.perf_counter()
    binding = solve_average(ti1(), TI1_BENCH)
    vacuous = solve_average(ti1(), VACUOUS_BENCH)
    elapsed = time.perf_counter() - start
    ok = (
        binding.status == "optimal"
        and abs(binding.objective - 2.0) <= 1e-8
        and binding.occupation.weights[1] <= 1e-9
        and vacuous.status == "optimal"
        and abs(vacuous.objective - 5.0) <= 1e-8
        and elapsed < 0.1
    )
    _report(
        1,
        ok,
        f"golden objectives {binding.objective:.10f}/{vacuous.objective:.10f}, "
        f"x(0,b)={binding.occupation.weights[1]:.2e}, runtime {elapsed:.3f}s < 0.1s",
    )


def test_criterion_2_strong_duality(average_suite, discounted_suite):
    worst = 0.0
    count = 0
    for _, _, report in average_suite + discounted_suite:
        assert report.status == "optimal"
        rel_gap = abs(report.objective - report.dual_objective) / (1.0 + abs(report.objective))
        worst = max(worst, rel_gap)
        count += 1
    elapsed = _SUITE_TIMES["average"] + _SUITE_TIMES["discounted"]
    ok = worst <= 1e-6 and count == 200 and elapsed < 30.0
    _report(
        2,
        ok,
        f"{count} solves (100 average + 100 discounted), worst relative gap "
        f"{worst:.2e} <= 1e-6, solve time {elapsed:.1f}s < 30s",
    )


def test_criterion_3_complementary_slackness(average_suite, discounted_suite):
    worst = 0.0
    for inst, _, report in average_suite + discounted_suite:
        h = report.dual.h if report.mode == "average" else report.dual.v
        scale = 1.0 + abs(report.objective) + float(np.abs(h).max(initial=0.0))
        worst = max(
            worst,
            report.slackness.max_dominance / scale,
            report.slackness.max_pair / scale,
        )
    ok = worst <= 1e-6
    _report(3, ok, f"worst scaled slackness residual {worst:.2e} <= 1e-6 over 200 solves")


def test_criterion_4_optimality_equations(average_suite, discounted_suite):
    worst = 0.0
    for inst, _, report in average_suite:
        scale = 1.0 + abs(report.objective) + float(np.abs(report.dual.h).max(initial=0.0))
        res = report.optimality_residuals[report.visited_states]
        if res.size:
            worst = max(worst, float(res.max()) / scale)
    for inst, _, report in discounted_suite:
        scale = 1.0 + abs(report.objective) + float(np.abs(report.dual.v).max(initial=0.0))
        res, visited = bellman_residual(report, inst)
        if res[visited].size:
            worst = max(worst, float(res[visited].max()) / scale)
    # Vacuous benchmarks reduce to the classic equations and match the
    # iteration oracles.
    rng = np.random.default_rng(778899)
    worst_oracle = 0.0
    for _ in range(10):
        inst, _, _ = feasible_pair(rng, max_states=10, max_actions=4)
        rep = solve_average(inst, VACUOUS_BENCH)
        g_rvi, _ = relative_value_iteration(inst, tol=1e-10)
        worst_oracle = max(worst_oracle, abs(rep.objective - g_rvi))
    for _ in range(10):
        inst, _, _ = feasible_pair(rng, max_states=10, max_actions=4, mode="discounted")
        rep = solve_discounted(inst, Benchmark(support=[-1e9], probs=[1.0]))
        v, _ = value_iteration_unconstrained(inst, tol=1e-9)
        worst_oracle = max(worst_oracle, abs(rep.objective - float(inst.initial @ v)))
    ok = worst <= 1e-6 and worst_oracle <= 1e-6
    _report(
        4,
        ok,
        f"worst scaled optimality residual {worst:.2e} <= 1e-6; "
        f"vacuous-vs-iteration mismatch {worst_oracle:.2e} <= 1e-6",
    )


def test_criterion_5_oracle_dominance():
    rng = np.random.default_rng(991100)
    checked = equal_cases = 0
    ok = True
    detail = ""
    for i in range(200):
        inst, bench, report = feasible_pair(rng, max_states=3, max_actions=3)
        if i % 3 == 0:
            # Shift the benchmark below the z range so every row is slack and
            # the equality branch of the criterion is exercised.
            span = float(inst.reward_z.max() - inst.reward_z.min()) + 1.0
            bench = Benchmark(support=bench.support - span, probs=bench.probs)
            report = solve_average(inst, bench)
            assert report.status == "optimal"
        oracle = brute_force_best_feasible(inst, bench)
        if oracle is None:
            continue
        checked += 1
        if report.objective < oracle.value - 1e-7:
            ok = False
            detail = f"LP {report.objective!r} < oracle {oracle.value!r}"
            break
        if all_rows_slack(report):
            equal_cases += 1
            if abs(report.objective - oracle.value) > 1e-7:
                ok = False
                detail = f"slack-case mismatch {report.objective!r} vs {oracle.value!r}"
                break
    _report(
        5,
        ok and checked > 100 and equal_cases > 0,
        detail
        or f"LP >= oracle on {checked}/200 instances with a feasible deterministic "
        f"policy; equality held in all {equal_cases} all-slack cases",
    )


def test_criterion_6_disintegration(average_suite):
    worst = 0.0
    unichain = 0
    for inst, _, report in average_suite:
        if report.multichain:
            continue
        unichain += 1
        mu = stationary_distribution(report.policy, inst)
        worst = max(worst, float(np.abs(mu - report.occupation.state_marginal()).max()))
    ok = worst <= 1e-7 and unichain > 0
    _report(
        6,
        ok,
        f"{unichain} unichain instances, worst marginal mismatch {worst:.2e} <= 1e-7",
    )


def test_criterion_7_simulation_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(2468)
    failures = []
    for i in range(20):
        inst, bench, report = feasible_pair(rng, max_states=8, max_actions=4)
        nu = np.full(inst.num_states, 1.0 / inst.num_states)
        trajs = simulate(inst, report.policy, nu, T=100_000, num_paths=20, seed=1000 + i)
        lp_rows = report.dominance_matrix @ report.occupation.weights
        for est, row in zip(estimate_average_shortfalls(trajs, bench.support), lp_rows):
            if abs(est.estimate - row) > 4 * est.stderr + 1e-6:
                failures.append((i, est.eta, est.estimate, row, est.stderr))
    rng_d = np.random.default_rng(1357)
    for i in range(5):
        inst, bench, report = feasible_pair(rng_d, max_states=6, max_actions=3, mode="discounted")
        delta = inst.discount
        T = max(int(math.ceil(math.log(1e-7) / math.log(delta))), 50)
        trajs = simulate(inst, report.policy, inst.initial, T=T, num_paths=200, seed=500 + i)
        lp_rows = report.dominance_matrix @ report.occupation.weights
        for est, row in zip(estimate_discounted_shortfalls(trajs, bench.support), lp_rows):
            if abs(est.estimate - row) > 4 * est.stderr + est.truncation_bound + 1e-6:
                failures.append(("disc", i, est.eta, est.estimate, row))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _report(
        7,
        ok,
        f"20 average + 5 discounted policies simulated; "
        f"{len(failures)} interval misses; runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_8_dominance_check_sufficiency():
    rng = np.random.default_rng(8080)
    mismatches = 0
    for _ in range(500):
        nx, ny = rng.integers(1, 6), rng.integers(1, 6)
        xv = np.round(rng.normal(scale=3, size=nx), 3)
        xp = rng.dirichlet(np.ones(nx))
        ys = np.unique(np.round(rng.normal(scale=3, size=ny), 3))
        bench = Benchmark(support=ys, probs=rng.dirichlet(np.ones(ys.size)))
        fast = check_icv(xv, xp, bench).satisfied
        pts = np.concatenate([xv, bench.support])
        dense = np.unique(
            np.concatenate([pts, ((pts[:, None] + pts[None, :]) / 2.0).ravel()])
        )
        slow = all(
            float(xp @ shortfall_minus(xv, eta))
            >= float(bench.probs @ shortfall_minus(bench.support, eta)) - 1e-10
            for eta in dense
        )
        if fast != slow:
            mismatches += 1
    # Utility finite-difference suites.
    violations = 0
    for _ in range(50):
        q = rng.integers(1, 6)
        etas = np.unique(np.round(rng.normal(scale=4, size=q), 4))
        u = reconstruct_utility(etas, rng.uniform(0, 3, size=etas.size))
        xs = np.linspace(etas[0] - 10.0, etas[-1] + 10.0, 1000)
        vals = u(xs)
        violations += int(np.any(np.diff(vals) < -1e-12))
        violations += int(np.any(np.diff(vals, 2) > 1e-12))
    ok = mismatches == 0 and violations == 0
    _report(
        8,
        ok,
        f"supp-Y check agreed with dense-grid oracle on 500/500 pairs; "
        f"{violations} monotonicity/concavity violations",
    )


def test_criterion_9_alp():
    start = time.perf_counter()
    rng = np.random.default_rng(97531)
    worst_exact = 0.0
    for mode in ("average", "discounted"):
        for _ in range(3):
            inst, bench, report = feasible_pair(rng, max_states=8, max_actions=3, mode=mode)
            bases = complete_basis(inst, bench)
            sol = solve_lp(build_alp(inst, bench, bases, np.arange(inst.num_pairs)))
            worst_exact = max(
                worst_exact,
                abs(sol.objective - report.objective) / (1.0 + abs(report.objective)),
            )
    count_ok = sample_count(0.25, 0.1, 4) == 296 and sample_count(0.1, 0.05, 10) == 2063
    for _ in range(1000):
        eps = float(rng.uniform(0.01, 0.99))
        dlt = float(rng.uniform(0.01, 0.99))
        k = int(rng.integers(1, 60))
        expected = math.ceil((4.0 / eps) * (k * math.log(12.0 / eps) + math.log(2.0 / dlt)))
        if sample_count(eps, dlt, k) != expected:
            count_ok = False
            break
    inst50 = fixed_50_state_instance()
    bench50 = Benchmark(support=[-0.5, 0.0], probs=[0.5, 0.5])
    bases50 = small_bases(inst50, bench50)
    hits = 0
    for seed in range(100):
        rep = solve_alp(inst50, bench50, bases50, epsilon=0.25, delta=0.1, seed=seed)
        if rep.status == "optimal" and rep.violation_fraction <= 0.25:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = worst_exact <= 1e-6 and count_ok and hits >= 90 and elapsed < 300.0
    _report(
        9,
        ok,
        f"complete-basis mismatch {worst_exact:.2e} <= 1e-6; sample_count exact on "
        f"1002 triples; violation <= 0.25 in {hits}/100 trials (>= 90); "
        f"runtime {elapsed:.1f}s < 300s",
    )


def test_criterion_10_portfolio_smoke():
    chain = np.array([[0.7, 0.3], [0.4, 0.6]])
    twelve = PortfolioConfig(
        price_levels=((1.0, 1.2), (1.0, 0.8)),
        price_transitions=(chain, chain.copy()),
        resolution=2,
        discount=0.9,
        benchmark=Benchmark(support=[-1.0], probs=[1.0]),
    )
    inst12 = build_portfolio_instance(twelve)
    clean = validate_instance(inst12) == []
    constant = PortfolioConfig(
        price_levels=((1.0,), (1.0,)),
        price_transitions=(np.array([[1.0]]), np.array([[1.0]])),
        resolution=2,
        discount=0.9,
        benchmark=Benchmark(support=[0.0], probs=[1.0]),
    )
    inst_const = build_portfolio_instance(constant)
    report = solve_discounted(inst_const, constant.benchmark)
    marginal = report.occupation.state_marginal()
    hold_ok = all(
        report.policy.rows[s][inst_const.actions[s].index("hold")] >= 1.0 - 1e-8
        for s in np.where(marginal > 1e-9)[0]
    )
    ok = (
        clean
        and twelve.base_state_count == 12
        and report.status == "optimal"
        and abs(report.objective) <= 1e-8
        and hold_ok
    )
    _report(
        10,
        ok,
        f"12-base-state discretization validates ({inst12.num_states} built states); "
        f"constant-price objective {report.objective:.2e} with hold policy",
    )
