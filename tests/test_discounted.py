import gc
import inspect
import tracemalloc

import numpy as np
import pytest

from domdp.average import solve_average
from domdp.discounted import (
    bellman_residual,
    build_discounted_primal,
    solve_discounted,
    value_iteration_unconstrained,
)
from domdp.mdp import Benchmark, MdpInstance
from domdp.portfolio import build_portfolio_instance
from helpers import benchmark_portfolio, feasible_pair, ti1


def one_state_one_action(r=-1.0, delta=0.9):
    return MdpInstance(
        num_states=1,
        actions=(("a",),),
        kernel=np.array([[1.0]]),
        reward_r=np.array([r]),
        reward_z=np.array([0.0]),
        mode="discounted",
        discount=delta,
        initial=np.array([1.0]),
    )


VAC = Benchmark(support=[-1e9], probs=[1.0])


def test_solve_signatures_agree():
    # A positional third argument is the family in both modes.
    average, discounted = map(inspect.signature, (solve_average, solve_discounted))
    assert list(discounted.parameters.values()) == list(average.parameters.values())
    assert list(discounted.parameters) == ["inst", "bench", "family", "feas_tol"]


def test_build_requires_discount_and_initial():
    inst = ti1(mode="average")
    with pytest.raises(ValueError):
        build_discounted_primal(inst, VAC)


def test_total_mass_identity():
    inst = one_state_one_action(delta=0.9)
    report = solve_discounted(inst, VAC)
    assert report.occupation.weights.sum() == pytest.approx(10.0, abs=1e-8)
    assert report.occupation.is_valid()


def test_geometric_series_objective():
    report = solve_discounted(one_state_one_action(r=-1.0, delta=0.9), VAC)
    assert report.objective == pytest.approx(-10.0, abs=1e-7)


def test_ti1_discounted_row_coefficients():
    inst = ti1(mode="discounted", discount=0.5)
    bench = Benchmark(support=[8.0], probs=[1.0])  # eta = 4 scaled by 1/(1-delta)
    lp = build_discounted_primal(inst, bench)
    assert lp.A[-1].tolist() == [0.0, -8.0]
    assert lp.b[-1] == 0.0


def test_ti1_discounted_binding_solve():
    inst = ti1(mode="discounted", discount=0.5)
    bench = Benchmark(support=[8.0], probs=[1.0])
    report = solve_discounted(inst, bench)
    assert report.status == "optimal"
    # Same structure as the average golden case: action b is excluded.
    assert report.objective == pytest.approx(2.0 / 0.5, abs=1e-7)
    assert report.occupation.weights[1] <= 1e-9
    residuals, visited = bellman_residual(report, inst)
    scale = 1.0 + abs(report.objective) + float(np.abs(report.dual.v).max())
    assert np.all(residuals[visited] <= 1e-6 * scale)
    assert float(report.dual.lam.max()) > 1e-8  # the constraint actually binds


def test_unattainable_benchmark_names_binding_eta():
    inst = ti1(mode="discounted", discount=0.5)
    report = solve_discounted(inst, Benchmark(support=[22.0], probs=[1.0]))
    assert report.status == "infeasible"
    assert report.binding_etas == [22.0]


def test_value_iteration_examples():
    v, _ = value_iteration_unconstrained(one_state_one_action(r=1.0, delta=0.5), tol=1e-10)
    assert v[0] == pytest.approx(2.0, abs=1e-9)
    inst = ti1(mode="discounted", discount=0.5)
    v, policy = value_iteration_unconstrained(inst, tol=1e-10)
    assert v[0] == pytest.approx(5.0 / 0.5, abs=1e-8)
    assert policy.action_index(0) == 1  # pick max r forever


def test_vacuous_matches_value_iteration():
    rng = np.random.default_rng(303)
    for _ in range(5):
        inst, _, _ = feasible_pair(rng, max_states=6, max_actions=3, mode="discounted")
        report = solve_discounted(inst, VAC)
        v, _ = value_iteration_unconstrained(inst, tol=1e-9)
        assert report.objective == pytest.approx(float(inst.initial @ v), abs=1e-6)
        residuals, visited = bellman_residual(report, inst)
        scale = 1.0 + abs(report.objective) + float(np.abs(report.dual.v).max())
        assert np.all(residuals[visited] <= 1e-7 * scale)


def test_property_suite_random_instances():
    rng = np.random.default_rng(9090)
    for _ in range(30):
        inst, bench, report = feasible_pair(rng, max_states=8, max_actions=4, mode="discounted")
        assert report.status == "optimal"
        delta = inst.discount
        assert report.occupation.weights.sum() == pytest.approx(
            1.0 / (1.0 - delta), abs=1e-7
        )
        assert report.gap <= 1e-6 * (1.0 + abs(report.objective))
        assert report.dual.feasibility_residual(inst) <= 1e-7
        # Dual objective identity: <v, nu> - E[u(Y)].
        ident = float(inst.initial @ report.dual.v) - report.dual.utility.expectation(bench)
        assert ident == pytest.approx(report.dual_objective, abs=1e-6 * (1 + abs(ident)))
        scale = 1.0 + abs(report.objective) + float(np.abs(report.dual.v).max())
        assert report.slackness.max_dominance <= 1e-6 * scale
        assert report.slackness.max_pair <= 1e-6 * scale
        residuals, visited = bellman_residual(report, inst)
        assert np.all(residuals[visited] <= 1e-6 * scale)
        assert np.all(report.dominance_margins >= -1e-8)


def test_constraint_can_only_lower_objective():
    rng = np.random.default_rng(11011)
    strict_seen = False
    for _ in range(20):
        inst, bench, report = feasible_pair(rng, max_states=6, max_actions=3, mode="discounted")
        unconstrained = solve_discounted(inst, VAC)
        assert report.objective <= unconstrained.objective + 1e-7
        if float(report.dual.lam.max(initial=0.0)) > 1e-8:
            strict_seen = True
            assert report.objective < unconstrained.objective + 1e-9
    assert strict_seen, "random family never produced a binding constraint"


def test_solve_report_keeps_no_part_of_its_lp():
    # The resolution-3 portfolio LP is 642 x 1952, 9.6 MiB dense. A report
    # that held its dominance rows as a view of the LP's matrix would keep
    # all of it alive; the rows themselves are 2 x 1952.
    cfg = benchmark_portfolio(3)
    inst = build_portfolio_instance(cfg)
    tracemalloc.start()
    try:
        report = solve_discounted(inst, cfg.benchmark)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert report.status == "optimal"
    assert report.dominance_matrix.base is None
    assert held < 2 * 2**20
