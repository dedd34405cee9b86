import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domdp.alp import (
    VIOLATION_TOL,
    BasisSet,
    build_alp,
    complete_basis,
    sample_constraints,
    sample_count,
    solve_alp,
)
from domdp.average import solve_average
from domdp.discounted import solve_discounted
from domdp.dominance import UtilityFunction
from domdp.lp import solve_lp
from domdp.mdp import Benchmark, MdpInstance
from domdp.simulate import _ranker
from helpers import TI1_BENCH, feasible_pair, random_benchmark, random_instance, ti1


def test_sample_count_reference_values():
    assert sample_count(0.25, 0.1, 4) == 296
    assert sample_count(0.1, 0.05, 10) == 2063


def test_sample_count_monotone_in_epsilon():
    for delta, k in [(0.1, 3), (0.5, 7)]:
        assert sample_count(0.05, delta, k) > sample_count(0.1, delta, k)


def test_sample_count_matches_closed_form_random():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        eps = float(rng.uniform(0.01, 0.99))
        delta = float(rng.uniform(0.01, 0.99))
        k = int(rng.integers(1, 50))
        expected = math.ceil((4.0 / eps) * (k * math.log(12.0 / eps) + math.log(2.0 / delta)))
        assert sample_count(eps, delta, k) == expected


def test_sample_count_rejects_out_of_range():
    with pytest.raises(ValueError):
        sample_count(0.0, 0.1, 3)
    with pytest.raises(ValueError):
        sample_count(0.5, 1.0, 3)
    with pytest.raises(ValueError):
        sample_count(0.5, 0.5, 0)


def test_sample_constraints_determinism_and_point_mass():
    inst = ti1()
    a = sample_constraints(inst, None, 100, seed=4)
    b = sample_constraints(inst, None, 100, seed=4)
    assert np.array_equal(a, b)
    psi = np.array([0.0, 1.0])
    c = sample_constraints(inst, psi, 50, seed=4)
    assert np.all(c == 1)


@pytest.mark.parametrize(
    "psi",
    [[np.nan, 0.5, 0.5], [0.5, np.nan, 0.5], [1.5, -0.5, 0.0], [0.5, 0.5], [0.5, 0.25, 0.2],
     [np.inf, 0.0, 0.0]],
)
def test_sample_constraints_rejects_psi_that_is_not_a_distribution(psi):
    inst = _one_state(3)
    with pytest.raises(ValueError, match="probability vector"):
        sample_constraints(inst, np.array(psi), 10, seed=0)


def test_sample_constraints_uniform_frequencies():
    inst = MdpInstance(
        num_states=2,
        actions=(("a", "b"), ("a", "b")),
        kernel=np.tile([0.5, 0.5], (4, 1)),
        reward_r=np.zeros(4),
        reward_z=np.zeros(4),
        mode="average",
    )
    draws = sample_constraints(inst, None, 4000, seed=11)
    counts = np.bincount(draws, minlength=4)
    sigma = math.sqrt(4000 * 0.25 * 0.75)
    assert np.all(np.abs(counts - 1000) <= 4 * sigma)


def _one_state(K):
    """An instance whose only state has K self-loop actions: K pairs."""
    return MdpInstance(
        num_states=1,
        actions=(tuple(f"a{i}" for i in range(K)),),
        kernel=np.ones((K, 1)),
        reward_r=np.zeros(K),
        reward_z=np.zeros(K),
        mode="average",
    )


def _inverse_cdf(psi, u):
    """Inverse-CDF draws over the positive entries of psi by binary search:
    the first whose cumulative sum reaches u, else the last."""
    pairs = np.flatnonzero(psi > 0.0)
    at = np.searchsorted(np.cumsum(psi)[pairs], u, side="left")
    return pairs[np.minimum(at, pairs.size - 1)]


def _reference_draws(psi, m, seed, stream):
    """Inverse-CDF draws on fresh Philox uniforms keyed by (seed, 2**32 + stream)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, (1 << 32) + stream], dtype=np.uint64)
    return _inverse_cdf(psi, np.random.Generator(np.random.Philox(key=key)).random(m))


@st.composite
def _sampling_cases(draw):
    """(psi, m): psi uniform, one-hot, or with zero entries (tied cumulative
    values), its sum up to 1e-9 from 1 either way; m is 1, at the guide table's
    size G (no table), at G + 1 (a table), or anywhere up to 3 G."""
    K = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["uniform", "one-hot", "weights"]))
    if kind == "uniform":
        psi = np.full(K, 1.0 / K)
    elif kind == "one-hot":
        psi = np.zeros(K)
        psi[draw(st.integers(0, K - 1))] = 1.0
    else:
        w = np.array(draw(st.lists(
            st.sampled_from([0.0, 0.0, 1.0, 3.0, 1e-12]) | st.floats(0.0, 1.0),
            min_size=K, max_size=K,
        )))
        if not w.sum() > 0.0:
            w[draw(st.integers(0, K - 1))] = 1.0
        psi = w / w.sum()
    psi *= draw(st.sampled_from([1.0, 1.0 - 9e-10, 1.0 + 9e-10]))
    G = 1 << (16 * K - 1).bit_length()
    m = draw(st.sampled_from([1, G, G + 1]) | st.integers(1, 3 * G))
    return psi, m


@settings(max_examples=150, deadline=None)
@given(
    case=_sampling_cases(),
    seed=st.integers(-(2**63), 2**64 - 1),
    stream=st.sampled_from([0, 1]),
)
def test_sample_constraints_equal_the_binary_search(case, seed, stream):
    psi, m = case
    inst = _one_state(psi.size)
    got = sample_constraints(inst, psi, m, seed, stream)
    want = _reference_draws(psi, m, seed, stream)
    assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())
    uniform = sample_constraints(inst, None, m, seed, stream)
    assert np.array_equal(uniform, _reference_draws(np.full(psi.size, 1.0 / psi.size), m, seed, stream))


def test_sample_constraints_rank_bucket_edges_and_the_gap_below_one(monkeypatch):
    # Uniforms on the guide table's bucket edges, at and beside every tied
    # cumulative value, and in the gap above a cumulative sum that ends below
    # 1, which draw the last pair of positive psi, 10, not the last pair.
    K = 12
    psi = np.array([0.0, 0.25, 0.0, 0.0, 0.125, 0.125, 0.0, 0.25, 0.0, 0.125, 0.125, 0.0])
    psi *= 1.0 - 2.0**-31
    cum = np.cumsum(psi)
    G = 1 << (16 * K - 1).bit_length()
    u = np.concatenate([
        np.arange(G) / G, cum[:-1], np.nextafter(cum, 0.0), np.nextafter(cum, 1.0),
        [0.5 * (cum[-1] + 1.0), 1.0 - 2.0**-53],
    ])
    assert cum[-1] < 1.0 and u.size > G
    monkeypatch.setattr("domdp.alp._uniforms", lambda seed, streams, count: iter([u[:count]]))
    got = sample_constraints(_one_state(K), psi, u.size, seed=0)
    drawn = cum[psi > 0.0]   # the cumulative values sample_constraints ranks
    assert _ranker(drawn, u.size) != drawn.searchsorted   # the guide table is used
    assert np.array_equal(got, _inverse_cdf(psi, u))
    assert np.all(psi[got] > 0.0)
    assert got[-2:].tolist() == [10, 10]


def test_basis_rank_check():
    with pytest.raises(ValueError, match="linearly dependent"):
        BasisSet(h_bases=np.array([[1.0, 2.0], [2.0, 4.0]]), u_bases=())


def test_complete_basis_average_reproduces_exact_dual():
    rng = np.random.default_rng(88)
    inst, bench, report = feasible_pair(rng, max_states=6, max_actions=3)
    bases = complete_basis(inst, bench)
    all_pairs = np.arange(inst.num_pairs)
    lp = build_alp(inst, bench, bases, all_pairs)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(report.objective, abs=1e-6 * (1 + abs(report.objective)))


def test_complete_basis_discounted_reproduces_exact_dual():
    rng = np.random.default_rng(89)
    inst, bench, report = feasible_pair(rng, max_states=5, max_actions=3, mode="discounted")
    bases = complete_basis(inst, bench)
    lp = build_alp(inst, bench, bases, np.arange(inst.num_pairs))
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(report.objective, abs=1e-6 * (1 + abs(report.objective)))


def test_zero_u_bases_reduce_to_classic_alp():
    rng = np.random.default_rng(90)
    inst, _, _ = feasible_pair(rng, max_states=5, max_actions=3)
    vacuous = Benchmark(support=[float(inst.reward_z.min()) - 1e6], probs=[1.0])
    classic = solve_average(inst, vacuous)
    bases = BasisSet(h_bases=np.eye(inst.num_states), u_bases=())
    lp = build_alp(inst, vacuous, bases, np.arange(inst.num_pairs))
    sol = solve_lp(lp)
    assert sol.objective == pytest.approx(classic.objective, abs=1e-6 * (1 + abs(classic.objective)))


def test_dropping_constraints_weakly_lowers_min():
    rng = np.random.default_rng(91)
    for _ in range(10):
        inst, bench, _ = feasible_pair(rng, max_states=4, max_actions=3)
        bases = complete_basis(inst, bench)
        full = solve_lp(build_alp(inst, bench, bases, np.arange(inst.num_pairs)))
        subset = np.arange(0, inst.num_pairs, 2)
        part = solve_lp(build_alp(inst, bench, bases, subset))
        if part.status == "optimal" and full.status == "optimal":
            assert part.objective <= full.objective + 1e-8


def test_empty_sample_set_rejected():
    inst = ti1()
    bases = complete_basis(inst, TI1_BENCH)
    with pytest.raises(ValueError):
        build_alp(inst, TI1_BENCH, bases, np.array([], dtype=int))


def test_nested_monotonicity_bases_and_samples():
    rng = np.random.default_rng(95)
    for _ in range(20):
        inst, bench, _ = feasible_pair(rng, max_states=5, max_actions=3)
        samples = np.arange(inst.num_pairs)
        small = BasisSet(h_bases=np.ones((1, inst.num_states)), u_bases=())
        big_rows = np.vstack([np.ones(inst.num_states), np.eye(inst.num_states)[:-1]])
        big = BasisSet(
            h_bases=big_rows,
            u_bases=complete_basis(inst, bench).u_bases,
        )
        lo = solve_lp(build_alp(inst, bench, small, samples))
        hi = solve_lp(build_alp(inst, bench, big, samples))
        # Larger basis: restriction loosens, min objective can only drop.
        if lo.status == "optimal" and hi.status == "optimal":
            assert hi.objective <= lo.objective + 1e-8
        # More samples: relaxation tightens, min objective can only rise.
        few = solve_lp(build_alp(inst, bench, big, samples[::3]))
        if few.status == "optimal" and hi.status == "optimal":
            assert few.objective <= hi.objective + 1e-8


def fixed_50_state_instance():
    rng = np.random.default_rng(123456)
    S, A = 50, 3
    K = S * A
    kernel = 0.999 * rng.dirichlet(np.full(S, 0.2), size=K) + 0.001 / S
    return MdpInstance(
        num_states=S,
        actions=tuple(tuple(f"a{i}" for i in range(A)) for _ in range(S)),
        kernel=kernel,
        reward_r=-rng.uniform(0.0, 1.0, size=K),  # nonpositive rewards
        reward_z=rng.uniform(-1.0, 1.0, size=K),
        mode="average",
    )


def small_bases(inst, bench):
    # Five aggregation bases over state blocks plus one utility kink.
    S = inst.num_states
    H = np.zeros((5, S))
    for j in range(5):
        H[j, j * S // 5 : (j + 1) * S // 5] = 1.0
    u = UtilityFunction(
        breakpoints=np.array([float(np.median(bench.support))]), weights=np.array([1.0])
    )
    return BasisSet(h_bases=H, u_bases=(u,))


def test_solve_alp_violation_fraction_within_epsilon():
    inst = fixed_50_state_instance()
    bench = Benchmark(support=[-0.5, 0.0], probs=[0.5, 0.5])
    bases = small_bases(inst, bench)
    report = solve_alp(inst, bench, bases, epsilon=0.25, delta=0.1, seed=0)
    assert report.status == "optimal"
    assert report.num_variables == 7  # 5 gamma + beta + 1 alpha
    assert report.num_samples == sample_count(0.25, 0.1, 7)
    assert report.violation_fraction is not None
    assert report.violation_fraction <= 0.25


def test_solve_alp_seeded_trials_mostly_within_epsilon():
    inst = fixed_50_state_instance()
    bench = Benchmark(support=[-0.5, 0.0], probs=[0.5, 0.5])
    bases = small_bases(inst, bench)
    ok = 0
    trials = 20
    for seed in range(trials):
        rep = solve_alp(inst, bench, bases, epsilon=0.25, delta=0.1, seed=seed)
        if rep.status == "optimal" and rep.violation_fraction <= 0.25:
            ok += 1
    assert ok >= 0.9 * trials


def test_solve_alp_few_samples_typically_violates():
    inst = fixed_50_state_instance()
    bench = Benchmark(support=[-0.5, 0.0], probs=[0.5, 0.5])
    bases = small_bases(inst, bench)
    samples = sample_constraints(inst, None, 5, seed=3)
    lp = build_alp(inst, bench, bases, samples)
    sol = solve_lp(lp)
    # Tiny sampled relaxations are usually unbounded or loose; either way the
    # tight bound m is doing real work. No fixed threshold asserted. The LP is
    # the ALP's dual, so an unbounded ALP shows as an infeasible LP.
    assert sol.status in ("optimal", "infeasible")


def _loop_violation_fraction(inst, report, bases, pairs, tol=1e-9):
    """Reference: r + sum_i alpha_i u_i(z) <= beta + h(s) - delta sum_j P(j|s,a) h(j), per pair."""
    h = report.h_approx
    beta = report.beta if report.beta is not None else 0.0
    state_of = inst.state_of_pair()
    violated = 0
    for k in pairs:
        lhs = inst.reward_r[k]
        for a_i, u in zip(report.alpha, bases.u_bases):
            lhs += a_i * u(inst.reward_z[k])
        rhs = beta + h[state_of[k]] - inst.delta * (inst.kernel[k] @ h)
        violated += lhs > rhs + tol * (1.0 + abs(rhs))
    return violated / len(pairs)


@pytest.mark.parametrize("mode", ["average", "discounted"])
def test_violation_fraction_matches_a_per_pair_loop(mode):
    # Block-aggregation h bases and one kink per benchmark point, on
    # instances with more pairs than samples, so test rows can be violated.
    rng = np.random.default_rng(97)
    optimal = violated = 0
    for seed in range(16):
        inst = random_instance(rng, max_states=16, max_actions=40, mode=mode)
        if inst.num_states < 5:
            continue
        bench = random_benchmark(rng, inst, max_support=2)
        S = inst.num_states
        H = np.zeros((5, S))
        for j in range(5):
            H[j, j * S // 5 : (j + 1) * S // 5] = 1.0
        bases = BasisSet(h_bases=H, u_bases=complete_basis(inst, bench).u_bases)
        report = solve_alp(inst, bench, bases, epsilon=0.3, delta=0.1, seed=seed)
        if report.status != "optimal":
            continue
        optimal += 1
        m = report.num_samples
        test = sample_constraints(inst, None, 10 * m, seed, stream=1)
        expected = _loop_violation_fraction(inst, report, bases, test)
        assert report.violation_fraction == expected
        violated += expected > 0.0
        train = sample_constraints(inst, None, m, seed, stream=0)
        assert _loop_violation_fraction(inst, report, bases, train) == 0.0
    assert optimal >= 6 and violated >= 3


def test_violation_fraction_equals_the_per_sample_formula_on_criterion_9_draws():
    # The acceptance suite's criterion-9 runs: each test draw's kernel row is
    # gathered and its right-hand side taken on its own.
    inst = fixed_50_state_instance()
    bench = Benchmark(support=[-0.5, 0.0], probs=[0.5, 0.5])
    bases = small_bases(inst, bench)
    state_of = inst.state_of_pair()
    rows = np.array([u(inst.reward_z) for u in bases.u_bases])
    fractions = set()
    for seed in range(100):
        report = solve_alp(inst, bench, bases, epsilon=0.25, delta=0.1, seed=seed)
        assert report.status == "optimal"
        test = sample_constraints(inst, None, 10 * report.num_samples, seed, stream=1)
        h = report.h_approx
        rhs = report.beta + h[state_of[test]] - inst.delta * (inst.kernel[test] @ h)
        lhs = inst.reward_r[test] + (report.alpha @ rows)[test]
        violated = lhs > rhs + VIOLATION_TOL * (1.0 + np.abs(rhs))
        assert report.violation_fraction == float(np.mean(violated))
        fractions.add(report.violation_fraction)
    assert len(fractions) > 10 and 0.0 in fractions


def test_infeasible_alp_with_infeasible_dual_reports_infeasible():
    # Only pair (0, a) is sampled. Its constraint reads 1 <= h(0) - 0.9 h(0),
    # and h = gamma (0, 1) has h(0) = 0: the ALP is infeasible, and so is its
    # dual, whose one row reads 0 x = 1. Mapping an infeasible dual to an
    # unbounded ALP would report "unbounded"; the dual with b = 0 is
    # unbounded, so the ALP is infeasible.
    inst = MdpInstance(
        num_states=2,
        actions=(("a",), ("a",)),
        kernel=np.eye(2),
        reward_r=np.array([1.0, 0.0]),
        reward_z=np.zeros(2),
        mode="discounted",
        discount=0.9,
        initial=np.array([0.0, 1.0]),
    )
    bench = Benchmark(support=[0.0], probs=[1.0])
    bases = BasisSet(h_bases=np.array([[0.0, 1.0]]), u_bases=())
    psi = np.array([1.0, 0.0])
    report = solve_alp(inst, bench, bases, epsilon=0.5, delta=0.5, psi=psi)
    assert report.status == "infeasible"
    lp = build_alp(inst, bench, bases, sample_constraints(inst, psi, report.num_samples, 0))
    assert solve_lp(lp).status == "infeasible"


def _scaled(bases, factor):
    return BasisSet(
        h_bases=factor * bases.h_bases,
        u_bases=tuple(
            UtilityFunction(breakpoints=u.breakpoints, weights=factor * u.weights)
            for u in bases.u_bases
        ),
    )


@pytest.mark.parametrize("factor", [2.0**60, 2.0**-40], ids=["2**60", "2**-40"])
@pytest.mark.parametrize("mode", ["average", "discounted"])
def test_scaled_bases_report_the_unscaled_alp(mode, factor):
    # Scaling the bases by a power of two scales gamma and alpha by its
    # inverse and changes nothing else, bit for bit: each LP row is brought
    # to the same power-of-two scale, however large or small its bases.
    rng = np.random.default_rng(96)
    for seed in range(10):
        inst, bench, _ = feasible_pair(rng, max_states=6, max_actions=3, mode=mode)
        bases = complete_basis(inst, bench)
        plain = solve_alp(inst, bench, bases, epsilon=0.3, delta=0.1, seed=seed)
        scaled = solve_alp(inst, bench, _scaled(bases, factor), epsilon=0.3, delta=0.1, seed=seed)
        assert scaled.status == plain.status == "optimal"
        assert scaled.objective == plain.objective
        assert scaled.violation_fraction == plain.violation_fraction
        assert np.array_equal(scaled.gamma * factor, plain.gamma)
        assert np.array_equal(scaled.alpha * factor, plain.alpha)
        assert np.array_equal(scaled.h_approx, plain.h_approx)


VACUOUS = Benchmark(support=[-1e6], probs=[1.0])


@pytest.mark.parametrize("factor", [1.0, 2.0**60, 2.0**-40], ids=["1", "2**60", "2**-40"])
def test_constant_h_basis_in_average_mode_is_inert(factor):
    # Every entry of the constant basis's row H B is 1 - sum_j P(j|s,a), which
    # is rounding noise; the ALP reduces to min beta >= r, that is max r.
    rng = np.random.default_rng(98)
    for _ in range(10):
        inst = random_instance(rng, max_states=6, max_actions=3)
        bases = BasisSet(h_bases=np.full((1, inst.num_states), factor), u_bases=())
        sol = solve_lp(build_alp(inst, VACUOUS, bases, np.arange(inst.num_pairs)))
        assert sol.status == "optimal"
        assert sol.objective == inst.reward_r.max()
