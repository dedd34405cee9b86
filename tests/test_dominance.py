from dataclasses import fields

import numpy as np
import pytest

from domdp.dominance import (
    DominanceCheck,
    GeneratorFamily,
    UtilityFunction,
    benchmark_curve,
    check_icv,
    check_icx,
    family_rows,
    reconstruct_utility,
    shortfall_minus,
    shortfall_plus,
    weighted_kink_family,
)
from domdp.mdp import Benchmark


def test_shortfall_minus_examples():
    assert shortfall_minus(3.0, 5.0) == -2.0
    assert shortfall_minus(7.0, 5.0) == 0.0
    assert shortfall_minus(5.0, 5.0) == 0.0


def test_shortfall_plus_examples():
    assert shortfall_plus(3.0, 5.0) == 0.0
    assert shortfall_plus(7.0, 5.0) == 2.0
    x, eta = 1.3, -2.7
    assert shortfall_plus(x, eta) + shortfall_minus(x, eta) == pytest.approx(4.0)


def test_shortfall_identity_random():
    rng = np.random.default_rng(3)
    x = rng.normal(scale=10, size=500)
    eta = rng.normal(scale=10, size=500)
    total = shortfall_plus(x, eta) + shortfall_minus(x, eta)
    assert np.array_equal(total, x - eta)
    assert np.all(shortfall_minus(x, eta) <= 0)
    assert np.all(shortfall_plus(x, eta) >= 0)


def test_benchmark_curve_examples():
    uniform = Benchmark(support=[0.0, 10.0], probs=[0.5, 0.5])
    assert benchmark_curve(uniform, [5.0])[0] == pytest.approx(-2.5)
    point = Benchmark(support=[4.0], probs=[1.0])
    assert benchmark_curve(point, [4.0])[0] == 0.0
    curve = benchmark_curve(point, [0.0, 4.0, 8.0])
    assert isinstance(curve, np.ndarray) and curve.tolist() == [0.0, 0.0, -4.0]


def test_benchmark_curve_rejects_empty_and_unsorted_grid():
    bench = Benchmark(support=[1.0], probs=[1.0])
    with pytest.raises(ValueError):
        benchmark_curve(bench, [])
    with pytest.raises(ValueError):
        benchmark_curve(bench, [2.0, 1.0])


def test_curve_properties_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        pts = np.unique(rng.normal(scale=5, size=rng.integers(1, 8)))
        bench = Benchmark(support=pts, probs=rng.dirichlet(np.ones(pts.size)))
        grid = np.unique(rng.normal(scale=8, size=12))
        curve = benchmark_curve(bench, grid)
        assert np.all(curve <= 1e-15)
        assert np.all(np.diff(curve) <= 1e-12)  # nonincreasing
        # 1-Lipschitz in eta.
        assert np.all(np.abs(np.diff(curve)) <= np.diff(grid) + 1e-12)
        # Midpoint concavity wherever the midpoint lands on the grid.
        for i in range(grid.size):
            for j in range(i + 1, grid.size):
                mid = 0.5 * (grid[i] + grid[j])
                hits = np.where(np.isclose(grid, mid))[0]
                for k in hits:
                    assert curve[k] >= 0.5 * (curve[i] + curve[j]) - 1e-12


def test_check_icv_examples():
    y3 = Benchmark(support=[3.0], probs=[1.0])
    res = check_icv([5.0], [1.0], y3)
    assert res.satisfied and res.worst_eta == 3.0 and res.margin == 0.0
    y = Benchmark(support=[1.0, 2.0], probs=[0.5, 0.5])
    res = check_icv(y.support, y.probs, y)
    assert res.satisfied and res.margin == pytest.approx(0.0, abs=1e-15)
    res = check_icv([0.0], [1.0], y3)
    assert not res.satisfied
    assert res.worst_eta == 3.0 and res.margin == pytest.approx(-3.0)


def test_check_icx_examples():
    y3 = Benchmark(support=[3.0], probs=[1.0])
    res = check_icx([5.0], [1.0], y3)
    assert res.margins.tolist() == [2.0]
    res = check_icx(y3.support, y3.probs, y3)
    assert res.margins.tolist() == [0.0]
    res = check_icx([0.0], [1.0], y3)
    assert res.margins.tolist() == [0.0]


def _brute_force_icv(values, probs, bench, tol=1e-10):
    """Dense-grid oracle: supports of both plus all pairwise midpoints."""
    pts = np.concatenate([np.asarray(values, dtype=float), bench.support])
    grid = np.unique(np.concatenate([pts, (pts[:, None] + pts[None, :]).ravel() / 2.0]))
    probs = np.asarray(probs, dtype=float)
    for eta in grid:
        lhs = float(probs @ shortfall_minus(np.asarray(values, dtype=float), eta))
        rhs = float(bench.probs @ shortfall_minus(bench.support, eta))
        if lhs < rhs - tol:
            return False
    return True


def test_check_icv_matches_dense_grid_brute_force():
    rng = np.random.default_rng(500)
    agree = 0
    for _ in range(500):
        nx = rng.integers(1, 6)
        ny = rng.integers(1, 6)
        xv = np.round(rng.normal(scale=3, size=nx), 3)
        xp = rng.dirichlet(np.ones(nx))
        ys = np.unique(np.round(rng.normal(scale=3, size=ny), 3))
        bench = Benchmark(support=ys, probs=rng.dirichlet(np.ones(ys.size)))
        fast = check_icv(xv, xp, bench).satisfied
        slow = _brute_force_icv(xv, xp, bench)
        assert fast == slow
        agree += 1
    assert agree == 500


def test_reconstruct_utility_examples():
    u = reconstruct_utility([4.0], [1.0])
    assert u(2.0) == -2.0
    assert u(6.0) == 0.0
    zero = reconstruct_utility([0.0, 4.0], [0.0, 0.0])
    xs = np.linspace(-10, 10, 41)
    assert np.all(zero(xs) == 0.0)
    u2 = reconstruct_utility([0.0, 4.0], [1.0, 2.0])
    assert u2(-1.0) == pytest.approx(-11.0)


def test_reconstruct_utility_clips_and_rejects():
    u = reconstruct_utility([1.0], [-1e-13])
    assert u(0.0) == 0.0
    with pytest.raises(ValueError, match="eta=2.0"):
        reconstruct_utility([1.0, 2.0], [0.5, -1e-6])


def test_utility_monotone_concave_finite_differences():
    rng = np.random.default_rng(99)
    for _ in range(20):
        q = rng.integers(1, 6)
        etas = np.unique(np.round(rng.normal(scale=4, size=q), 4))
        w = rng.uniform(0, 3, size=etas.size)
        u = reconstruct_utility(etas, w)
        xs = np.linspace(etas[0] - 10.0, etas[-1] + 10.0, 1000)
        vals = u(xs)
        assert np.all(np.diff(vals) >= -1e-12)          # nondecreasing
        second = np.diff(vals, 2)
        assert np.all(second <= 1e-12)                  # concave
        assert np.all(vals[xs >= etas[-1]] == 0.0)      # vanishes above top kink


def test_utility_slope_between_breakpoints():
    u = UtilityFunction(breakpoints=np.array([0.0, 4.0]), weights=np.array([1.0, 2.0]))
    # Between the kinks only the eta=4 term is active: slope 2.
    assert (u(3.0) - u(2.0)) == pytest.approx(2.0)
    # Below both kinks the slopes add: 1 + 2 = 3.
    assert (u(-1.0) - u(-2.0)) == pytest.approx(3.0)


def test_family_rows_builtin_evaluations():
    bench = Benchmark(support=[[3.0, 3.0]], probs=[1.0])
    fam = weighted_kink_family([[0.5, 0.5]], [4.0], bench)
    rows, rhs = family_rows(fam, np.array([[10.0, 0.0]]))
    assert rows[0, 0] == pytest.approx(0.0)  # (5 - 4)_- = 0
    fam2 = weighted_kink_family([[1.0, 0.0]], [5.0], bench)
    assert fam2.benchmark_values[0] == pytest.approx(-2.0)  # (3 - 5)_-


def test_family_reduces_to_scalar_rows_at_n1():
    rng = np.random.default_rng(5)
    z = rng.uniform(-3, 3, size=7)
    etas = np.array([-1.0, 0.5, 2.0])
    bench = Benchmark(support=[0.0], probs=[1.0])
    fam = weighted_kink_family([[1.0]], etas, bench)
    rows, _ = family_rows(fam, z)
    expected = np.array([shortfall_minus(z, eta) for eta in etas])
    assert np.array_equal(rows, expected)


def test_family_dimension_mismatch_rejected():
    bench = Benchmark(support=[[1.0, 2.0]], probs=[1.0])
    fam = weighted_kink_family([[1.0, 0.0]], [0.0], bench)
    with pytest.raises(ValueError):
        family_rows(fam, np.zeros((3, 3)))


def test_family_rows_match_definition():
    """Row i * p + j is min(<w_i, z_k> - eta_j, 0) per pair k; rhs is E[(<w_i, Y> - eta_j)_-]."""
    rng = np.random.default_rng(14)
    for n in range(1, 5):
        weights = rng.uniform(0.0, 1.0, size=(4, n))
        weights[0] = np.resize([0.3, 0.7], n)
        weights[1, 0] = 0.0
        z = rng.uniform(-2.0, 2.0, size=(9, n))
        etas = np.concatenate([[0.0, 0.1], np.sort(rng.uniform(-2.0, 2.0, size=3))])
        bench = Benchmark(support=rng.uniform(-2.0, 2.0, size=(3, n)), probs=[0.2, 0.3, 0.5])
        fam = weighted_kink_family(weights, etas, bench)
        assert [f.name for f in fields(GeneratorFamily)] == ["weights", "etas", "benchmark_values"]
        rows, rhs = family_rows(fam, z)
        assert rows.shape == (len(weights) * len(etas), len(z))
        for i, w in enumerate(weights):
            for j, eta in enumerate(etas):
                want = np.array([min(np.dot(w, z_k) - eta, 0.0) for z_k in z])
                got = rows[i * len(etas) + j]
                assert np.all(np.abs(got - want) <= 1e-15 * (1.0 + np.abs(want)))
                member = bench.probs @ np.minimum(bench.support @ w - eta, 0.0)
                assert rhs[i * len(etas) + j] == member


def test_weighted_family_rejects_negative_weights():
    bench = Benchmark(support=[[1.0]], probs=[1.0])
    with pytest.raises(ValueError):
        weighted_kink_family([[-0.5]], [0.0], bench)
