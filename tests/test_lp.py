import tracemalloc

import numpy as np
import pytest

from domdp import lp
from domdp.average import _greedy_start
from domdp.discounted import build_discounted_primal
from domdp.lp import EQ, GE, LE, LpProblem, _residuals, solve_lp, to_standard_form
from domdp.portfolio import build_portfolio_instance
from helpers import benchmark_portfolio


def box_problem():
    # max x1 + x2 s.t. x1 <= 1, x2 <= 2, x >= 0
    return LpProblem(
        sense="max",
        c=np.array([1.0, 1.0]),
        A=np.array([[1.0, 0.0], [0.0, 1.0]]),
        row_senses=[LE, LE],
        b=np.array([1.0, 2.0]),
        row_labels=["r0", "r1"],
    )


def test_standard_form_max_box():
    std, rec = to_standard_form(box_problem())
    assert std.sense == "min"
    assert std.row_senses == [EQ, EQ]
    assert std.num_cols == 4  # two structural + two slacks
    assert np.allclose(std.c, [-1.0, -1.0, 0.0, 0.0])


def test_standard_form_surplus_for_ge_row():
    p = LpProblem(
        sense="min",
        c=np.array([1.0]),
        A=np.array([[1.0]]),
        row_senses=[GE],
        b=np.array([2.0]),
        row_labels=["r"],
    )
    std, rec = to_standard_form(p)
    assert std.A[0, rec.slack_col[0]] == -1.0


def test_standard_form_layout():
    # Columns: the variables, then one slack per inequality row; rows with
    # b < 0 are negated, slacks too.
    p = LpProblem(
        sense="max",
        c=np.array([1.0, 2.0, -3.0]),
        A=np.array([[1.0, 2.0, 0.0], [0.0, -1.0, 3.0], [4.0, 0.0, 5.0]]),
        row_senses=[LE, GE, EQ],
        b=np.array([4.0, -3.0, -2.0]),
        row_labels=["le", "ge", "eq"],
    )
    std, rec = to_standard_form(p)
    assert np.array_equal(
        std.A,
        [
            [1.0, 2.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, -3.0, 0.0, 1.0],
            [-4.0, 0.0, -5.0, 0.0, 0.0],
        ],
    )
    assert std.A.flags.c_contiguous
    assert np.array_equal(std.c, [-1.0, -2.0, 3.0, 0.0, 0.0])
    assert np.array_equal(std.b, [4.0, 3.0, 2.0])
    assert std.row_labels == ["le", "ge", "eq"]
    assert rec.n == 3
    assert rec.slack_col.tolist() == [3, 4, -1]
    assert rec.row_flip.tolist() == [1.0, -1.0, -1.0]
    x_std = np.array([1.5, 0.25, 0.5, 9.0, 9.0])
    assert rec.map_primal(x_std).tolist() == [1.5, 0.25, 0.5]


def test_problem_has_no_free_variables_or_column_labels():
    args = dict(sense="max", c=np.ones(2), A=np.eye(2), row_senses=[LE, LE],
                b=np.ones(2), row_labels=["r0", "r1"])
    assert LpProblem(**args).lower.tolist() == [0.0, 0.0]
    for extra in (dict(lower=np.zeros(2)), dict(col_labels=["x1", "x2"])):
        with pytest.raises(TypeError):
            LpProblem(**args, **extra)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        LpProblem(
            sense="max",
            c=np.array([1.0]),
            A=np.array([[1.0, 2.0]]),
            row_senses=[LE],
            b=np.array([1.0]),
            row_labels=["r"],
        )


def test_solve_box_optimal_with_duals():
    sol = solve_lp(box_problem())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert np.allclose(sol.x, [1.0, 2.0])
    assert np.allclose(sol.y, [1.0, 1.0])
    assert sol.dual_objective == pytest.approx(3.0, abs=1e-9)


def test_solve_infeasible_contradiction():
    p = LpProblem(
        sense="min",
        c=np.array([0.0]),
        A=np.array([[1.0], [1.0]]),
        row_senses=[EQ, LE],
        b=np.array([1.0, 0.5]),
        row_labels=["eq", "ub"],
    )
    sol = solve_lp(p)
    assert sol.status == "infeasible"
    assert sol.certificate is not None


def test_solve_unbounded_with_ray():
    p = LpProblem(
        sense="max",
        c=np.array([1.0]),
        A=np.zeros((0, 1)),
        row_senses=[],
        b=np.zeros(0),
        row_labels=[],
    )
    sol = solve_lp(p)
    assert sol.status == "unbounded"
    assert sol.ray is not None and sol.ray[0] > 0


def test_equality_and_ge_rows():
    # min v s.t. v >= x - 1, v >= 1 - x, x = 0.25, x, v >= 0 has optimum v = 0.75.
    p = LpProblem(
        sense="min",
        c=np.array([0.0, 1.0]),
        A=np.array([[1.0, 0.0], [-1.0, 1.0], [1.0, 1.0]]),
        row_senses=[EQ, GE, GE],
        b=np.array([0.25, -1.0, 1.0]),
        row_labels=["fix", "ge1", "ge2"],
    )
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.75, abs=1e-9)


def test_redundant_row_gets_zero_dual():
    # Second row duplicates the first; solver must drop one and still report
    # duals for both.
    p = LpProblem(
        sense="max",
        c=np.array([1.0]),
        A=np.array([[1.0], [1.0]]),
        row_senses=[EQ, EQ],
        b=np.array([2.0, 2.0]),
        row_labels=["r0", "r1"],
    )
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0)
    assert sol.y is not None and len(sol.y) == 2
    assert sol.dual_objective == pytest.approx(2.0, abs=1e-9)


def _random_feasible_bounded(rng):
    """Random LP with a known interior point and box rows that force boundedness."""
    m = rng.integers(1, 11)
    n = rng.integers(1, 9)
    A = rng.normal(size=(m, n))
    x0 = rng.uniform(0.2, 2.0, size=n)
    senses = [str(rng.choice([LE, GE, EQ])) for _ in range(m)]
    margin = rng.uniform(0.1, 1.0, size=m)
    Ax0 = A @ x0
    b = np.where([s == LE for s in senses], Ax0 + margin, Ax0)
    b = np.where([s == GE for s in senses], Ax0 - margin, b)
    # Box every variable so max problems stay bounded.
    box = np.vstack([np.eye(n), -np.eye(n)])
    box_b = np.concatenate([x0 + 3.0, np.full(n, 3.0)])
    A_full = np.vstack([A, box])
    b_full = np.concatenate([b, box_b])
    senses_full = senses + [LE] * (2 * n)
    c = rng.normal(size=n)
    sense = str(rng.choice(["max", "min"]))
    return LpProblem(
        sense=sense,
        c=c,
        A=A_full,
        row_senses=senses_full,
        b=b_full,
        row_labels=[f"r{i}" for i in range(m + 2 * n)],
    )


def test_random_suite_strong_duality_and_slackness():
    rng = np.random.default_rng(20240817)
    solved = 0
    for _ in range(200):
        p = _random_feasible_bounded(rng)
        sol = solve_lp(p)
        assert sol.status == "optimal", "constructed LPs are feasible and bounded"
        scale_b = 1.0 + np.abs(p.b).max()
        scale_c = 1.0 + np.abs(p.c).max()
        assert sol.primal_residual <= 1e-8 * scale_b
        assert sol.dual_residual <= 1e-8 * scale_c
        gap = abs(sol.objective - sol.dual_objective)
        assert gap <= 1e-7 * (1.0 + abs(sol.objective))
        assert sol.slackness_residual <= 1e-7 * (scale_b + scale_c + abs(sol.objective))
        # Normalized inequality duals are nonnegative.
        for i, rs in enumerate(p.row_senses):
            if rs != EQ:
                assert sol.y[i] >= -1e-9
        solved += 1
    assert solved == 200


def test_solver_is_deterministic():
    rng = np.random.default_rng(7)
    p = _random_feasible_bounded(rng)
    a = solve_lp(p)
    b = solve_lp(p)
    assert a.iterations == b.iterations
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)


def test_degenerate_problem_terminates():
    # Highly degenerate: many redundant upper bounds through the same vertex.
    n = 6
    A = np.vstack([np.ones((4, n)), np.eye(n)])
    b = np.concatenate([np.full(4, 1.0), np.full(n, 1.0)])
    p = LpProblem(
        sense="max",
        c=np.linspace(1.0, 2.0, n),
        A=A,
        row_senses=[LE] * (4 + n),
        b=b,
        row_labels=[f"r{i}" for i in range(4 + n)],
    )
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0, abs=1e-8)


def _loop_unit_start(p):
    """Reference: the slack of each <= row with b >= 0 and each >= row with b < 0."""
    start = []
    col = p.num_cols  # the first slack
    for sense, b in zip(p.row_senses, p.b):
        if sense == EQ:
            start.append(-1)
            continue
        start.append(col if (sense == LE) == (b >= 0) else -1)
        col += 1
    return start


def _loop_residuals(p, x, y_raw):
    """Reference: the residual maxima taken one row and one column at a time."""
    Ax = p.A @ x
    prim = dual = slack = 0.0
    for i, rs in enumerate(p.row_senses):
        gap = Ax[i] - p.b[i]
        prim = max(prim, gap if rs == LE else -gap if rs == GE else abs(gap))
        slack = max(slack, abs(y_raw[i] * gap))
    rc = p.c - p.A.T @ y_raw
    for j in range(p.num_cols):
        prim = max(prim, -x[j])
        dual = max(dual, rc[j] if p.sense == "max" else -rc[j])
        slack = max(slack, abs(x[j] * rc[j]))
    return float(prim), float(dual), float(slack)


def test_array_glue_matches_loop_reference():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = _random_feasible_bounded(rng)
        p.b[: p.num_rows // 2] *= -1.0  # flip some rows, whatever their sense
        std, rec = to_standard_form(p)
        assert rec.unit_start.tolist() == _loop_unit_start(p)
        rows = np.flatnonzero(rec.unit_start >= 0)
        assert np.array_equal(std.A[:, rec.unit_start[rows]], np.eye(p.num_rows)[:, rows])
        assert np.all(std.c[rec.unit_start[rows]] == 0.0)
    for _ in range(50):
        p = _random_feasible_bounded(rng)
        sol = solve_lp(p)
        for x, y in ((sol.x, sol.y_raw), (sol.x + rng.normal(size=p.num_cols), -sol.y_raw)):
            assert _residuals(p, x, y) == _loop_residuals(p, x, y)


def test_start_columns_are_used_when_they_form_a_feasible_basis():
    # x1 and x2 on their own rows: the start is the optimum, no phase 1.
    sol = solve_lp(box_problem(), start=np.array([0, 1]))
    assert sol.crash
    assert sol.phase1_iterations == 0
    assert sol.iterations == 1
    assert sol.objective == 3.0


@pytest.mark.parametrize(
    "start",
    [np.array([0, 0]), np.array([-1, -1])],
    ids=["singular", "empty"],
)
def test_unusable_start_falls_back_to_the_unit_start(start):
    plain = solve_lp(box_problem())
    sol = solve_lp(box_problem(), start=start)
    assert not sol.crash
    assert sol.iterations == plain.iterations
    assert np.array_equal(sol.x, plain.x)


def test_start_with_a_negative_value_falls_back():
    # x1 alone on row 0 of x1 - x2 = -1 would take the value -1.
    p = LpProblem(
        sense="min",
        c=np.array([1.0, 1.0]),
        A=np.array([[1.0, -1.0], [1.0, 1.0]]),
        row_senses=[EQ, LE],
        b=np.array([-1.0, 3.0]),
        row_labels=["r0", "r1"],
    )
    sol = solve_lp(p, start=np.array([0, -1]))
    assert not sol.crash
    assert sol.objective == pytest.approx(1.0)


def test_start_row_whose_slack_would_be_negative_gets_an_artificial():
    # x1 = 3 from row 0 violates x1 <= 2: row 1 starts on a negated artificial,
    # and phase 1 proves the system infeasible.
    p = LpProblem(
        sense="max",
        c=np.array([1.0]),
        A=np.array([[1.0], [1.0]]),
        row_senses=[EQ, LE],
        b=np.array([3.0, 2.0]),
        row_labels=["r0", "r1"],
    )
    sol = solve_lp(p, start=np.array([0, -1]))
    assert sol.crash
    assert sol.status == "infeasible"
    cert = sol.certificate
    assert cert @ p.b > 0 and cert @ p.A[:, 0] <= 1e-12 and cert[1] <= 0.0


@pytest.mark.parametrize("side", ["primal", "dual"])
def test_residual_guard_rejects_a_drifted_solution(monkeypatch, side):
    # Shift the box problem's optimal x along (1, -1), or y along (2, -1):
    # both objectives stay at 3, so the duality-gap guard passes, but the
    # shifted x breaks x1 <= 1 and the shifted y leaves x1 a positive
    # reduced profit.
    solve_standard = lp._solve_standard

    def drifted(*args):
        res = solve_standard(*args)
        if side == "primal":
            res.x[:2] += [1e-3, -1e-3]
        else:
            res.y_raw[:] += [2e-3, -1e-3]
        return res

    monkeypatch.setattr(lp, "_solve_standard", drifted)
    with pytest.raises(ArithmeticError, match="residuals"):
        solve_lp(box_problem())


def _benchmark_portfolio_lp(resolution):
    cfg = benchmark_portfolio(resolution)
    inst = build_portfolio_instance(cfg)
    return inst, build_discounted_primal(inst, cfg.benchmark)


def test_portfolio_resolution_4_solves_from_the_unit_start():
    # Slacks and artificials only: 1670 pivots through long degenerate runs,
    # long enough to refactorize. Before the Harris ratio test this basis
    # went singular (exit 4).
    _, p = _benchmark_portfolio_lp(4)
    sol = solve_lp(p)
    assert not sol.crash
    assert sol.status == "optimal"
    assert sol.refactorizations >= 1
    assert abs(sol.objective) <= 1e-9


def test_crash_start_reuses_the_phase1_inverse(monkeypatch):
    # The discounted balance rows have full rank, so phase 1 drops no row
    # and phase 2 continues from its inverse: the only inverses are the
    # start's and one each time the eta file reaches ETA_SHARE of the basis
    # size. At the default share this solve does not reach it; at 1/16 it does.
    inst, p = _benchmark_portfolio_lp(2)
    inverses = pivots = 0
    etas_at = []
    inv, pivot, refactorize = np.linalg.inv, lp._Simplex._pivot, lp._Simplex.refactorize

    def counted_inv(a):
        nonlocal inverses
        inverses += 1
        return inv(a)

    def counted_pivot(self, *args):
        nonlocal pivots
        pivots += 1
        pivot(self, *args)

    def recorded_refactorize(self):
        etas_at.append(len(self.etas))
        refactorize(self)

    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    monkeypatch.setattr(lp._Simplex, "_pivot", counted_pivot)
    monkeypatch.setattr(lp._Simplex, "refactorize", recorded_refactorize)
    for share in (lp.ETA_SHARE, 1 / 16):
        monkeypatch.setattr(lp, "ETA_SHARE", share)
        inverses = pivots = 0
        etas_at.clear()
        sol = solve_lp(p, start=_greedy_start(inst, p.num_rows))
        assert sol.status == "optimal" and sol.crash and sol.phase1_iterations > 0
        trigger = int(np.ceil(share * p.num_rows))
        assert etas_at == [trigger] * (pivots // trigger)
        assert inverses == 1 + sol.refactorizations == 1 + len(etas_at)
    assert etas_at


def test_phase_one_keeps_one_copy_of_the_matrix():
    # Equality rows only, so every row starts on an artificial. The solve
    # may hold the standard form's matrix once; a copy with the artificial
    # columns appended, or a gathered temporary in the standard form, passes
    # the limit. Every feasible x has cost sum(b), so phase 2 barely pivots.
    rng = np.random.default_rng(11)
    m, n = 100, 16_000
    A = rng.uniform(0.0, 1.0, size=(m, n))
    b = A[:, :m] @ rng.uniform(0.5, 1.0, size=m)
    p = LpProblem("min", A.sum(axis=0), A, [EQ] * m, b, [f"r{i}" for i in range(m)])
    tracemalloc.start()
    try:
        sol = solve_lp(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == "optimal" and sol.phase1_iterations >= m
    assert peak <= 1.5 * A.nbytes


def test_compressed_columns_match_the_dense_products(monkeypatch):
    # A sparse block with an empty and a full column, plus slacks as the basis.
    rng = np.random.default_rng(5)
    A = np.where(rng.random((30, 40)) < 0.05, rng.normal(size=(30, 40)), 0.0)
    A[:, 7] = 0.0
    A[:, 8] = rng.normal(size=30)
    A = np.hstack([A, np.eye(30)])
    kernels = []
    for density in (lp.SPARSE_DENSITY, 0.0):
        monkeypatch.setattr(lp, "SPARSE_DENSITY", density)
        sx = lp._Simplex(A, np.ones(30), lp.FEAS_TOL, np.arange(40, 70), np.eye(30))
        kernels.append(sx)
    sparse, dense = kernels
    assert sparse.cols is not None and dense.cols is None
    y = rng.normal(size=30)
    assert np.allclose(sparse.price(y), dense.price(y), rtol=1e-13, atol=1e-13)
    assert sparse.price(y)[7] == 0.0
    for q in range(A.shape[1]):
        assert np.allclose(sparse.column(q), dense.column(q), rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("density", [0.0, 1.0], ids=["dense", "compressed"])
def test_pricing_by_density_reaches_the_same_optimum(monkeypatch, density):
    # The resolution-2 portfolio LP is 1.6 % nonzero. Density 0 forces the
    # dense products, 1 the compressed ones for every column.
    inst, p = _benchmark_portfolio_lp(2)
    start = _greedy_start(inst, p.num_rows)
    reference = solve_lp(p, start=start)
    monkeypatch.setattr(lp, "SPARSE_DENSITY", density)
    sol = solve_lp(p, start=start)
    assert sol.status == reference.status == "optimal"
    assert sol.objective == pytest.approx(reference.objective, rel=1e-12)
    assert np.allclose(sol.y, reference.y, rtol=1e-9, atol=1e-12)
