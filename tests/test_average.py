import dataclasses
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domdp.average import (
    CRASH_SWEEPS,
    ZERO_MARGINAL,
    _greedy_start,
    build_average_cost_primal,
    build_average_primal,
    check_slackness,
    extract_policy,
    optimality_residual,
    relative_value_iteration,
    solve_average,
    stationary_distribution,
    value_iteration_unconstrained,
)
from domdp.discounted import build_discounted_primal, solve_discounted
from domdp.dominance import weighted_kink_family
from domdp import lp
from domdp.lp import solve_lp
from domdp.mdp import Benchmark, MdpInstance, Policy, deterministic_policy
from domdp.portfolio import PortfolioConfig, build_portfolio_instance
from domdp.results import OccupationMeasure
from helpers import (
    TI1_BENCH,
    VACUOUS_BENCH,
    benchmark_portfolio,
    blocks_instance,
    feasible_pair,
    held_dense,
    random_benchmark,
    random_instance,
    reference_extract_policy,
    sparse_average_instance,
    ti1,
    ti2,
)


def test_build_shapes_one_state():
    lp = build_average_primal(ti1(), TI1_BENCH)
    assert lp.num_cols == 2
    assert lp.num_rows == 3  # 1 balance + normalization + 1 dominance


def test_build_shapes_two_states():
    inst = MdpInstance(
        num_states=2,
        actions=(("a", "b"), ("a", "b")),
        kernel=np.tile([0.5, 0.5], (4, 1)),
        reward_r=np.zeros(4),
        reward_z=np.arange(4.0),
        mode="average",
    )
    bench = Benchmark(support=[0.0, 1.0, 2.0], probs=[0.3, 0.3, 0.4])
    lp = build_average_primal(inst, bench)
    assert lp.num_cols == 4
    assert lp.num_rows == 6  # 2 balance + normalization + 3 dominance


def test_ti1_dominance_row_coefficients():
    lp = build_average_primal(ti1(), TI1_BENCH)
    assert lp.A[-1].tolist() == [0.0, -4.0]  # (10-4)_- and (0-4)_-


def test_lp_labels_carry_identities():
    # An infeasible report's certificate names the rows it keeps: balance[j],
    # normalize in average mode only, and a dominance row by its benchmark
    # point, or by its parameter index for a family.
    bench = Benchmark(support=[5.0, 20.0], probs=[0.5, 0.5])
    family = weighted_kink_family([[1.0]], [5.0, 20.0], bench)
    high = Benchmark(support=[100.0], probs=[1.0])
    discounted = ti1(mode="discounted", discount=0.5)
    average_rows = ["balance[0]", "balance[1]", "normalize"]
    cases = [
        (solve_average(ti2(), bench), average_rows + ["dominance[eta=5.0]", "dominance[eta=20.0]"]),
        (solve_average(ti2(), bench, family), average_rows + ["dominance[xi=0]", "dominance[xi=1]"]),
        (solve_discounted(discounted, high), ["balance[0]", "dominance[eta=100.0]"]),
        (
            solve_discounted(discounted, high, family=weighted_kink_family([[1.0]], [100.0], high)),
            ["balance[0]", "dominance[xi=0]"],
        ),
    ]
    for report, labels in cases:
        assert report.status == "infeasible"
        assert [label for label, _ in report.certificate] == labels


@pytest.mark.parametrize(
    "entry, mode, message",
    [
        (build_average_primal, "discounted", "average builder got mode 'discounted'"),
        (solve_average, "discounted", "average builder got mode 'discounted'"),
        (build_discounted_primal, "average", "discounted builder got mode 'average'"),
        (solve_discounted, "average", "discounted builder got mode 'average'"),
    ],
    ids=["build_average_primal", "solve_average", "build_discounted_primal", "solve_discounted"],
)
def test_builders_and_solves_refuse_the_other_mode(entry, mode, message):
    inst = ti1(mode=mode, discount=0.5)
    with pytest.raises(ValueError, match=f"^{message}$"):
        entry(inst, TI1_BENCH)


def test_solve_ti1_binding():
    report = solve_average(ti1(), TI1_BENCH)
    assert report.status == "optimal"
    assert report.objective == pytest.approx(2.0, abs=1e-8)
    assert report.occupation.weights[1] <= 1e-9  # x(0,b)
    assert report.occupation.weights[0] == pytest.approx(1.0, abs=1e-8)
    assert report.dual.g == pytest.approx(2.0, abs=1e-8)
    assert report.dual.feasibility_residual(ti1()) <= 1e-7
    assert report.gap <= 1e-6 * (1.0 + abs(report.objective))


def test_solve_ti1_vacuous():
    report = solve_average(ti1(), VACUOUS_BENCH)
    assert report.status == "optimal"
    assert report.objective == pytest.approx(5.0, abs=1e-8)
    assert report.occupation.weights[1] == pytest.approx(1.0, abs=1e-8)
    assert np.all(report.dual.lam == 0.0)
    assert report.slackness.max_dominance == 0.0


def test_solve_ti1_unattainable_benchmark():
    report = solve_average(ti1(), Benchmark(support=[11.0], probs=[1.0]))
    assert report.status == "infeasible"
    assert report.binding_etas == [11.0]
    assert any("dominance" in label for label, _ in report.certificate)


def test_extract_policy_rules():
    inst = ti1()
    occ = OccupationMeasure(inst=inst, weights=np.array([0.5, 0.5]))
    assert extract_policy(occ).rows[0].tolist() == [0.5, 0.5]
    occ0 = OccupationMeasure(inst=inst, weights=np.array([0.0, 0.0]))
    assert extract_policy(occ0).rows[0].tolist() == [0.5, 0.5]
    inst3 = MdpInstance(
        num_states=1,
        actions=(("a", "b", "c"),),
        kernel=np.ones((3, 1)),
        reward_r=np.zeros(3),
        reward_z=np.zeros(3),
        mode="average",
    )
    occ3 = OccupationMeasure(inst=inst3, weights=np.array([0.2, 0.0, 0.6]))
    assert np.allclose(extract_policy(occ3).rows[0], [0.25, 0.0, 0.75])


WEIGHTS = st.one_of(
    st.just(0.0),
    st.floats(1e-300, 1.0),
    st.floats(1e-300, 1e-13),
    st.floats(-1e-10, -1e-300),
)


@st.composite
def _occupations(draw):
    """(block sizes, pair weights, mode): blocks of 1 to 12 actions, some all
    zero or below ZERO_MARGINAL."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=8))
    weights = draw(st.lists(WEIGHTS, min_size=sum(sizes), max_size=sum(sizes)))
    return sizes, weights, draw(st.sampled_from(["average", "discounted"]))


# Five ulp apart in the first weight: the two summation orders give totals
# one ulp apart and sums of c / t three ulp apart.
FIVE_ULP = (
    [12],
    [4.1399908752832974e-14, -3.8525849436465834e-11, 9.111014904849796e-14,
     7.292329269765192e-14, 0.7579240483165486, 9.854893176837346e-14,
     -1.8707237214025042e-11, -8.009458376191086e-11, 5.3110443136053556e-14, 0.0,
     -6.197964919067577e-11, 0.0],
    "average",
)


@settings(max_examples=300, deadline=None)
@given(drawn=_occupations())
@example(drawn=FIVE_ULP)
def test_extract_policy_matches_per_state_reference(drawn):
    """Bit for bit where every visited state has at most two nonzero weights,
    whose sum is the same in any order. Otherwise np.add.reduceat and
    ndarray.sum add in other orders; the state's total cancels in
    (c / t) / sum(c / t), so each of the n clipped weights c rounds once in
    each division and the sum of n terms by at most (n - 1) u, and the two
    results differ by at most (2n + 4) u relative, u = eps / 2. In ulp that is
    more than 4: FIVE_ULP is 5 apart."""
    sizes, weights, mode = drawn
    w = np.array(weights)
    if mode == "discounted" and not w.sum() > 0.0:
        w[0] = 1.0  # the measure is scaled to mass 1 first
    inst = blocks_instance(sizes, mode)
    occ = OccupationMeasure(inst=inst, weights=w)
    got, want = extract_policy(occ).rows, reference_extract_policy(occ).rows
    assert [r.size for r in got] == sizes
    scaled = np.split(w if mode == "average" else w / w.sum(), inst.pair_offsets[1:-1])
    for g, r, b in zip(got, want, scaled):
        if b.sum() <= ZERO_MARGINAL or np.count_nonzero(b) <= 2:
            assert g.tobytes() == r.tobytes()
        else:
            rtol = (2 * b.size + 4) * np.finfo(float).eps / 2
            np.testing.assert_allclose(g, r, rtol=rtol, atol=0.0)


def test_stationary_distribution_swap_and_single():
    inst = ti2()
    mu = stationary_distribution(deterministic_policy(inst, [0, 0]), inst)
    assert np.allclose(mu, [0.5, 0.5], atol=1e-12)
    one = ti1()
    mu1 = stationary_distribution(deterministic_policy(one, [0]), one)
    assert mu1.tolist() == [1.0]


def test_stationary_distribution_known_two_state():
    inst = MdpInstance(
        num_states=2,
        actions=(("a",), ("a",)),
        kernel=np.array([[0.9, 0.1], [0.5, 0.5]]),
        reward_r=np.zeros(2),
        reward_z=np.zeros(2),
        mode="average",
    )
    mu = stationary_distribution(deterministic_policy(inst, [0, 0]), inst)
    assert np.allclose(mu, [5.0 / 6.0, 1.0 / 6.0], atol=1e-12)


def test_stationary_distribution_multichain_error():
    inst = MdpInstance(
        num_states=2,
        actions=(("stay",), ("stay",)),
        kernel=np.eye(2),
        reward_r=np.zeros(2),
        reward_z=np.zeros(2),
        mode="average",
    )
    with pytest.raises(ValueError, match=r"\[0\], \[1\]"):
        stationary_distribution(deterministic_policy(inst, [0, 0]), inst)


def test_slackness_ti1():
    report = solve_average(ti1(), TI1_BENCH)
    summary = check_slackness(report)
    assert summary.max_dominance <= 1e-9
    assert summary.max_pair <= 1e-9


def test_optimality_residual_ti1():
    inst = ti1()
    report = solve_average(inst, TI1_BENCH)
    residuals, visited = optimality_residual(report, inst)
    assert visited[0]
    assert residuals[0] <= 1e-9


def test_vacuous_reduces_to_classic_optimality_equation():
    rng = np.random.default_rng(42)
    for _ in range(5):
        inst, _, _ = _random_solved(rng)
        report = solve_average(inst, VACUOUS_BENCH)
        g_rvi, _ = relative_value_iteration(inst, tol=1e-10)
        assert report.objective == pytest.approx(g_rvi, abs=1e-6)
        residuals, visited = optimality_residual(report, inst)
        scale = 1.0 + abs(report.objective) + float(np.abs(report.dual.h).max(initial=0.0))
        assert np.all(residuals[visited] <= 1e-6 * scale)


def _random_solved(rng):
    return feasible_pair(rng, max_states=8, max_actions=4)


def test_cost_variant_forces_low_shortfall_action():
    inst = MdpInstance(
        num_states=1,
        actions=(("cheap_risky", "pricey_safe"),),
        kernel=np.ones((2, 1)),
        reward_r=np.array([2.0, 5.0]),   # costs
        reward_z=np.array([10.0, 0.0]),  # cost-like secondary
        mode="average",
    )
    bench = Benchmark(support=[4.0], probs=[1.0])
    lp = build_average_cost_primal(inst, bench)
    assert lp.sense == "min"
    assert lp.A[-1].tolist() == [6.0, 0.0]  # shortfall_plus coefficients
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(5.0, abs=1e-9)
    assert sol.x[0] <= 1e-10


def test_cost_variant_vacuous_is_unconstrained():
    inst = MdpInstance(
        num_states=1,
        actions=(("cheap_risky", "pricey_safe"),),
        kernel=np.ones((2, 1)),
        reward_r=np.array([2.0, 5.0]),
        reward_z=np.array([10.0, 0.0]),
        mode="average",
    )
    sol = solve_lp(build_average_cost_primal(inst, Benchmark(support=[1e6], probs=[1.0])))
    assert sol.objective == pytest.approx(2.0, abs=1e-9)


def test_property_suite_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        inst, bench, report = _random_solved(rng)
        scale = 1.0 + abs(report.objective) + float(np.abs(report.dual.h).max(initial=0.0))
        assert report.gap <= 1e-6 * (1.0 + abs(report.objective))
        assert report.dual.feasibility_residual(inst) <= 1e-7
        # Dual objective identity: g - E[u(Y)].
        ident = report.dual.g - report.dual.utility.expectation(bench)
        assert abs(ident - report.dual_objective) <= 1e-6 * (1.0 + abs(ident))
        assert report.slackness.max_dominance <= 1e-6 * scale
        assert report.slackness.max_pair <= 1e-6 * scale
        assert np.all(report.dominance_margins >= -1e-8)
        assert np.all(report.optimality_residuals[report.visited_states] <= 1e-6 * scale)
        assert report.occupation.is_valid()
        # Disintegration consistency for unichain extracted policies.
        if not report.multichain:
            mu = stationary_distribution(report.policy, inst)
            assert float(np.abs(mu - report.occupation.state_marginal()).max()) <= 1e-7


def test_vacuous_matches_unconstrained_lp():
    rng = np.random.default_rng(77)
    for _ in range(5):
        inst, _, _ = _random_solved(rng)
        vac = Benchmark(support=[float(inst.reward_z.min()) - 1e6], probs=[1.0])
        constrained = solve_average(inst, vac)
        g_rvi, _ = relative_value_iteration(inst, tol=1e-10)
        assert abs(constrained.objective - g_rvi) <= 1e-6
        # Independent assembly of the unconstrained LP: balance rows plus the
        # normalization, no dominance block at all.
        from domdp.lp import EQ, LpProblem, solve_lp as _solve

        S, K = inst.num_states, inst.num_pairs
        B = -inst.kernel.T.copy()
        state_of = inst.state_of_pair()
        for k in range(K):
            B[state_of[k], k] += 1.0
        lp = LpProblem(
            sense="max",
            c=inst.reward_r.copy(),
            A=np.vstack([B, np.ones((1, K))]),
            row_senses=[EQ] * (S + 1),
            b=np.concatenate([np.zeros(S), [1.0]]),
        )
        unconstrained = _solve(lp)
        assert abs(constrained.objective - unconstrained.objective) <= 1e-8


@pytest.mark.parametrize(
    "mode, extra, eta, expected",
    [
        ("average", {}, 4.0, 2.0),
        ("discounted", {"discount": 0.5, "initial": np.array([1.0])}, 8.0, 4.0),
    ],
    ids=["average", "discounted"],
)
def test_multivariate_family_mode(mode, extra, eta, expected):
    inst = MdpInstance(
        num_states=1,
        actions=(("a", "b"),),
        kernel=np.ones((2, 1)),
        reward_r=np.array([2.0, 5.0]),
        reward_z=np.array([[10.0, 10.0], [0.0, 0.0]]),
        mode=mode,
        **extra,
    )
    bench = Benchmark(support=[[eta, eta]], probs=[1.0])
    fam = weighted_kink_family([[0.5, 0.5]], [eta], bench)
    if mode == "average":
        report = solve_average(inst, bench, family=fam)
    else:
        report = solve_discounted(inst, bench, family=fam)
    # Same structure as scalar TI-1: action b is excluded by the family row.
    assert report.status == "optimal"
    assert report.objective == pytest.approx(expected, abs=1e-8)
    assert report.family_mode


def _recording_solve_lp(monkeypatch):
    """Record every LpSolution the solve pipeline gets back."""
    seen = []

    def record(*args, **kwargs):
        seen.append(solve_lp(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr("domdp.average.solve_lp", record)
    return seen


def test_multichain_greedy_policy_falls_back_to_the_unit_start(monkeypatch):
    # Two isolated self-loops: relative value iteration never converges, so
    # the solve starts from artificials on every balance row, as without a
    # greedy start, and gets the same answer.
    inst = MdpInstance(
        num_states=2,
        actions=(("stay",), ("stay",)),
        kernel=np.eye(2),
        reward_r=np.array([10.0, 0.0]),
        reward_z=np.array([0.0, 10.0]),
        mode="average",
    )
    with pytest.raises(RuntimeError):
        relative_value_iteration(inst, max_iter=CRASH_SWEEPS)
    seen = _recording_solve_lp(monkeypatch)
    start = time.perf_counter()
    report = solve_average(inst, Benchmark(support=[0.0, 4.0], probs=[0.25, 0.75]))
    assert time.perf_counter() - start < 5.0
    assert not seen[0].crash
    assert report.objective == 2.5


def test_converged_multichain_greedy_policy_falls_back(monkeypatch):
    # Staying pays 1 in both states: relative value iteration converges at
    # once, but the greedy policy keeps two closed classes.
    inst = MdpInstance(
        num_states=2,
        actions=(("stay", "go"), ("stay", "go")),
        kernel=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
        reward_r=np.array([1.0, 0.0, 1.0, 0.0]),
        reward_z=np.zeros(4),
        mode="average",
    )
    relative_value_iteration(inst, max_iter=CRASH_SWEEPS)
    assert _greedy_start(inst, num_rows=4) is None
    seen = _recording_solve_lp(monkeypatch)
    report = solve_average(inst, VACUOUS_BENCH)
    assert not seen[0].crash
    assert report.objective == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("discount", [0.98, 0.99, 0.995])
def test_discounted_greedy_start_past_the_sweep_budget(monkeypatch, discount):
    # Value iteration misses its tolerance within CRASH_SWEEPS sweeps at these
    # discounts. The last sweep's greedy policy still starts the simplex, and
    # the solve keeps the unit start's status and objective.
    rng = np.random.default_rng(3)
    seen = _recording_solve_lp(monkeypatch)
    statuses = []
    for _ in range(10):
        drawn = random_instance(rng, max_states=10, mode="discounted")
        inst = dataclasses.replace(drawn, discount=discount)
        bench = random_benchmark(rng, inst)
        with pytest.raises(RuntimeError):
            value_iteration_unconstrained(inst, max_iter=CRASH_SWEEPS)
        report = solve_discounted(inst, bench)
        assert seen[-1].crash
        with monkeypatch.context() as m:
            m.setattr("domdp.average._greedy_start", lambda inst, num_rows: None)
            unit = solve_discounted(inst, bench)
        assert not seen[-1].crash
        assert report.status == unit.status
        if unit.status == "optimal":
            assert report.objective == pytest.approx(unit.objective, rel=1e-9, abs=1e-9)
        statuses.append(unit.status)
    assert "optimal" in statuses


def test_greedy_start_on_portfolio_resolution_2(monkeypatch):
    # The benchmark's 3-asset portfolio config: 639 iterations from the unit start.
    cfg = PortfolioConfig(
        price_levels=((1.0, 1.2), (1.0, 0.8), (1.0, 1.1)),
        price_transitions=(np.array([[0.7, 0.3], [0.4, 0.6]]),) * 3,
        resolution=2,
        discount=0.9,
        benchmark=Benchmark(support=[-0.4, 0.0], probs=[0.5, 0.5]),
    )
    seen = _recording_solve_lp(monkeypatch)
    report = solve_discounted(build_portfolio_instance(cfg), cfg.benchmark)
    sol = seen[0]
    assert sol.crash
    assert sol.phase1_iterations < sol.iterations < 639
    assert report.objective == pytest.approx(-0.1302222349721469, abs=1e-12)


def test_average_gauge_is_h0_zero():
    rng = np.random.default_rng(77)
    for _ in range(5):
        inst, _, report = feasible_pair(rng, max_states=6, max_actions=3)
        assert report.dual.h[0] == 0.0


def _sparse_cases():
    """(instance, benchmark, family, builder) below sparse.SPARSE_DENSITY, both modes."""
    inst, bench = sparse_average_instance()
    family = weighted_kink_family([[1.0], [0.5]], bench.support, bench)
    cfg = benchmark_portfolio(2)
    return [
        pytest.param(inst, bench, None, build_average_primal, id="average"),
        pytest.param(inst, bench, family, build_average_primal, id="average-family"),
        pytest.param(build_portfolio_instance(cfg), cfg.benchmark, None,
                     build_discounted_primal, id="portfolio-r2"),
    ]


@pytest.mark.parametrize("inst, bench, family, build", _sparse_cases())
def test_sparse_instance_builds_the_dense_lps_columns(monkeypatch, inst, bench, family, build):
    """The compressed columns are, bit for bit, those the simplex takes from
    the same LP built dense, and the LP's dense copy is that LP's matrix
    (whose -0.0 entries read 0.0)."""
    dense_inst = held_dense(inst, monkeypatch)
    assert inst.kernel_rows is not None and dense_inst.kernel_rows is None
    p = build(inst, bench) if family is None else build(inst, bench, family)
    q = build(dense_inst, bench) if family is None else build(dense_inst, bench, family)
    assert p.cols is not None and q.cols is None
    want = lp._compressed(q.A)
    for got, ref in ((p.cols.ptr, want.ptr), (p.cols.to, want.to), (p.cols.p, want.p)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    assert np.array_equal(p.A, q.A)
    assert (p.c.tobytes(), p.b.tobytes(), p.row_senses) == (q.c.tobytes(), q.b.tobytes(),
                                                            q.row_senses)


@pytest.mark.parametrize("inst, bench, family, build", _sparse_cases())
def test_sparse_instance_solves_as_dense(monkeypatch, inst, bench, family, build):
    """The same optimum, held compressed or dense: x and the duals within
    rounding, the same policy; the residuals are read from compressed products."""
    solver = solve_average if inst.mode == "average" else solve_discounted
    args = (bench,) if family is None else (bench, family)
    got = solver(inst, *args)
    want = solver(held_dense(inst, monkeypatch), *args)
    assert got.status == want.status == "optimal"
    assert got.objective == pytest.approx(want.objective, rel=1e-12)
    assert np.allclose(got.occupation.weights, want.occupation.weights, rtol=0.0, atol=1e-12)
    assert np.allclose(got.dual.h, want.dual.h, rtol=1e-12, atol=1e-12)
    assert np.allclose(got.dual.lam, want.dual.lam, rtol=1e-12, atol=1e-12)
    assert got.policy.probs.tobytes() == want.policy.probs.tobytes()
    assert got.multichain == want.multichain is False
    assert np.allclose(got.optimality_residuals, want.optimality_residuals, rtol=0.0, atol=1e-12)
    assert np.allclose(got.slackness.pairs, want.slackness.pairs, rtol=0.0, atol=1e-12)
    assert got.occupation.residuals() == pytest.approx(want.occupation.residuals(), abs=1e-12)


@pytest.mark.xfail(strict=True, raises=ArithmeticError,
                   reason="phase 1 accepts an LP infeasible by less than its absolute tolerance")
def test_marginally_infeasible_sparse_instance_is_reported_infeasible():
    # HiGHS reports this LP infeasible; the solve ends in a duality gap of 0.21.
    inst, _ = sparse_average_instance()
    report = solve_average(inst, Benchmark(support=[-1.5, -0.5], probs=[0.5, 0.5]))
    assert report.status == "infeasible"
