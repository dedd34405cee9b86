import numpy as np
import pytest

from domdp.lp import EQ, GE, LE, LpProblem, _residuals, _start_basis, solve_lp, to_standard_form


def box_problem():
    # max x1 + x2 s.t. x1 <= 1, x2 <= 2, x >= 0
    return LpProblem(
        sense="max",
        c=np.array([1.0, 1.0]),
        A=np.array([[1.0, 0.0], [0.0, 1.0]]),
        row_senses=[LE, LE],
        b=np.array([1.0, 2.0]),
        lower=np.zeros(2),
        row_labels=["r0", "r1"],
        col_labels=["x1", "x2"],
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
        lower=np.zeros(1),
        row_labels=["r"],
        col_labels=["x"],
    )
    std, rec = to_standard_form(p)
    assert std.A[0, rec.slack_col[0]] == -1.0


def test_standard_form_layout():
    # Columns: each variable, its negated copy right after it when free, then
    # one slack per inequality row; rows with b < 0 are negated, slacks too.
    p = LpProblem(
        sense="max",
        c=np.array([1.0, 2.0, -3.0]),
        A=np.array([[1.0, 2.0, 0.0], [0.0, -1.0, 3.0], [4.0, 0.0, 5.0]]),
        row_senses=[LE, GE, EQ],
        b=np.array([4.0, -3.0, -2.0]),
        lower=np.array([0.0, -np.inf, 0.0]),
        row_labels=["le", "ge", "eq"],
        col_labels=["x", "v", "w"],
    )
    std, rec = to_standard_form(p)
    assert np.array_equal(
        std.A,
        [
            [1.0, 2.0, -2.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, -1.0, -3.0, 0.0, 1.0],
            [-4.0, 0.0, 0.0, -5.0, 0.0, 0.0],
        ],
    )
    assert std.A.flags.c_contiguous
    assert np.array_equal(std.c, [-1.0, -2.0, 2.0, 3.0, 0.0, 0.0])
    assert np.array_equal(std.b, [4.0, 3.0, 2.0])
    assert std.col_labels == ["x", "v", "v__neg", "w", "__slack[0]", "__slack[1]"]
    assert rec.pos_col.tolist() == [0, 1, 3]
    assert rec.neg_col.tolist() == [-1, 2, -1]
    assert rec.slack_col.tolist() == [4, 5, -1]
    assert rec.row_flip.tolist() == [1.0, -1.0, -1.0]
    x_std = np.array([1.5, 0.25, 2.0, 0.5, 9.0, 9.0])
    assert rec.map_primal(x_std).tolist() == [1.5, -1.75, 0.5]


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        LpProblem(
            sense="max",
            c=np.array([1.0]),
            A=np.array([[1.0, 2.0]]),
            row_senses=[LE],
            b=np.array([1.0]),
            lower=np.zeros(1),
            row_labels=["r"],
            col_labels=["x"],
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
        lower=np.zeros(1),
        row_labels=["eq", "ub"],
        col_labels=["x"],
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
        lower=np.zeros(1),
        row_labels=[],
        col_labels=["x"],
    )
    sol = solve_lp(p)
    assert sol.status == "unbounded"
    assert sol.ray is not None and sol.ray[0] > 0


def test_equality_rows_and_free_vars():
    # min v s.t. v >= x - 1, v >= 1 - x, x = 0.25 has optimum v = 0.75.
    p = LpProblem(
        sense="min",
        c=np.array([0.0, 1.0]),
        A=np.array([[1.0, 0.0], [-1.0, 1.0], [1.0, 1.0]]),
        row_senses=[EQ, GE, GE],
        b=np.array([0.25, -1.0, 1.0]),
        lower=np.array([0.0, -np.inf]),
        row_labels=["fix", "ge1", "ge2"],
        col_labels=["x", "v"],
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
        lower=np.zeros(1),
        row_labels=["r0", "r1"],
        col_labels=["x"],
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
    free = rng.random(n) < 0.3
    lower = np.where(free, -np.inf, 0.0)
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
        lower=lower,
        row_labels=[f"r{i}" for i in range(m + 2 * n)],
        col_labels=[f"x{j}" for j in range(n)],
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
        lower=np.zeros(n),
        row_labels=[f"r{i}" for i in range(4 + n)],
        col_labels=[f"x{j}" for j in range(n)],
    )
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0, abs=1e-8)


def _loop_start_basis(A, c):
    """Reference: per row, the first zero-cost unit column with +1 there."""
    basis = np.full(A.shape[0], -1)
    for j in range(A.shape[1]):
        nz = np.nonzero(A[:, j])[0]
        if nz.size == 1 and A[nz[0], j] == 1.0 and basis[nz[0]] == -1 and c[j] == 0.0:
            basis[nz[0]] = j
    return basis


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
        if np.isneginf(p.lower[j]):
            dual = max(dual, abs(rc[j]))
        else:
            prim = max(prim, -x[j])
            dual = max(dual, rc[j] if p.sense == "max" else -rc[j])
            slack = max(slack, abs(x[j] * rc[j]))
    return float(prim), float(dual), float(slack)


def test_array_glue_matches_loop_reference():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m, n = rng.integers(0, 8), rng.integers(1, 12)
        A = rng.choice([-1.0, 0.0, 0.0, 0.0, 1.0, 2.0], size=(m, n))
        c = rng.choice([0.0, 0.0, 1.0, -1.5], size=n)
        assert np.array_equal(_start_basis(A, c), _loop_start_basis(A, c))
    for _ in range(50):
        p = _random_feasible_bounded(rng)
        sol = solve_lp(p)
        for x, y in ((sol.x, sol.y_raw), (sol.x + rng.normal(size=p.num_cols), -sol.y_raw)):
            assert _residuals(p, x, y) == _loop_residuals(p, x, y)
