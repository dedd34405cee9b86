import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from domdp import average, lp
from domdp.average import CRASH_SWEEPS, _greedy_start, solve_average
from domdp.discounted import build_discounted_primal, solve_discounted
from domdp.lp import EQ, GE, LE, LpProblem, _residuals, solve_lp, to_standard_form
from domdp.mdp import Benchmark
from domdp.portfolio import build_portfolio_instance
from domdp.sparse import from_dense
from helpers import (
    benchmark_portfolio,
    exact_basis_infeasibility,
    feasible_pair,
    record_final_bases,
    ti1,
)


def box_problem():
    # max x1 + x2 s.t. x1 <= 1, x2 <= 2, x >= 0
    return LpProblem(
        sense="max",
        c=np.array([1.0, 1.0]),
        A=np.array([[1.0, 0.0], [0.0, 1.0]]),
        row_senses=[LE, LE],
        b=np.array([1.0, 2.0]),
    )


def test_standard_form_max_box():
    std, form = to_standard_form(box_problem())
    assert std.sense == "min"
    assert std.row_senses == [LE, LE]
    assert std.num_cols == 2  # the two slacks are unit columns outside A
    assert np.allclose(std.c, [-1.0, -1.0])
    assert form.slack_rows.tolist() == [0, 1]
    assert form.slack_sign.tolist() == [1.0, 1.0]


def test_standard_form_surplus_for_ge_row():
    p = LpProblem(
        sense="min",
        c=np.array([1.0]),
        A=np.array([[1.0]]),
        row_senses=[GE],
        b=np.array([2.0]),
    )
    std, form = to_standard_form(p)
    assert form.slack_rows.tolist() == [0]
    assert form.slack_sign.tolist() == [-1.0]


def test_standard_form_layout():
    # The problem's own A and b, not copied and no row negated; costs in the
    # min sense; one slack per inequality row, +1 on a <= row and -1 on a >=
    # row, whatever the sign of b. A Fortran-ordered A is copied C-ordered.
    p = LpProblem(
        sense="max",
        c=np.array([1.0, 2.0, -3.0]),
        A=np.array([[1.0, 2.0, 0.0], [0.0, -1.0, 3.0], [4.0, 0.0, 5.0]]),
        row_senses=[LE, GE, EQ],
        b=np.array([4.0, -3.0, -2.0]),
    )
    std, form = to_standard_form(p)
    assert std.A is p.A and std.b is p.b
    assert std.A.flags.c_contiguous
    assert np.array_equal(std.c, [-1.0, -2.0, 3.0])
    assert form.obj_sign == -1.0
    assert form.slack_rows.tolist() == [0, 1]
    assert form.slack_sign.tolist() == [1.0, -1.0]
    fortran, _ = to_standard_form(replace(p, A=np.asfortranarray(p.A)))
    assert fortran.A.flags.c_contiguous and np.array_equal(fortran.A, p.A)


def test_problem_has_no_free_variables_or_column_labels():
    args = dict(sense="max", c=np.ones(2), A=np.eye(2), row_senses=[LE, LE], b=np.ones(2))
    assert LpProblem(**args).lower.tolist() == [0.0, 0.0]
    for extra in (
        dict(lower=np.zeros(2)), dict(col_labels=["x1", "x2"]), dict(row_labels=["r0", "r1"])
    ):
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
    )
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.75, abs=1e-9)


def test_redundant_row_gets_zero_dual():
    # Second row duplicates the first; one artificial stays basic at 0 on it,
    # and the solver still reports duals for both rows, 0 on that one.
    p = LpProblem(
        sense="max",
        c=np.array([1.0]),
        A=np.array([[1.0], [1.0]]),
        row_senses=[EQ, EQ],
        b=np.array([2.0, 2.0]),
    )
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0)
    assert sol.y is not None and len(sol.y) == 2
    assert sol.dual_objective == pytest.approx(2.0, abs=1e-9)
    assert 0.0 in sol.y_raw


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


def degenerate_problem():
    # Highly degenerate: many redundant upper bounds through the same vertex.
    n = 6
    A = np.vstack([np.ones((4, n)), np.eye(n)])
    b = np.concatenate([np.full(4, 1.0), np.full(n, 1.0)])
    return LpProblem(
        sense="max",
        c=np.linspace(1.0, 2.0, n),
        A=A,
        row_senses=[LE] * (4 + n),
        b=b,
    )


def test_degenerate_problem_terminates():
    sol = solve_lp(degenerate_problem())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0, abs=1e-8)


def test_blands_rule_from_the_first_pivot(monkeypatch):
    # Under Bland's rule, of the rows tied in the exact ratio test the one
    # whose basic column is lowest leaves. Every ratio test of the
    # degenerate problem is a tie: the first of its four sum rows and one
    # box row, or more. The default pricing never switches to the rule here.
    reference = solve_lp(degenerate_problem())
    init, pivot = lp._Simplex.__init__, lp._Simplex._pivot
    ties_seen = []

    def bland_from_the_start(self, *args):
        init(self, *args)
        self.bland = True

    def checked_pivot(self, leave_row, enter, d, theta):
        pos = np.flatnonzero(d > lp.PIVOT_TOL)
        ratios = self.x_B[pos] / d[pos]
        ties = pos[ratios <= ratios.min() + 1e-12 * (1.0 + abs(ratios.min()))]
        ties_seen.append(ties.size)
        assert self.basis[leave_row] == self.basis[ties].min()
        pivot(self, leave_row, enter, d, theta)

    monkeypatch.setattr(lp._Simplex, "__init__", bland_from_the_start)
    monkeypatch.setattr(lp._Simplex, "_pivot", checked_pivot)
    sol = solve_lp(degenerate_problem())
    assert sol.bland and not reference.bland
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(reference.objective, abs=1e-12)
    assert np.allclose(sol.x, reference.x, atol=1e-12)
    assert np.allclose(sol.y, reference.y, atol=1e-12)
    assert ties_seen and min(ties_seen) > 1


def _loop_unit_start(p):
    """Reference for a start without placed columns: (slacks, basis, artificials).

    slacks holds (row, sign) per inequality row, +1 on a <= row and -1 on a
    >= row. A row starts on its slack when the slack's sign is b's (+1 at
    b >= 0), else on an artificial of b's sign, numbered after the slacks;
    artificials holds their (row, sign).
    """
    slacks = [(i, 1.0 if s == LE else -1.0) for i, s in enumerate(p.row_senses) if s != EQ]
    slack_of = {i: (p.num_cols + k, sign) for k, (i, sign) in enumerate(slacks)}
    basis, artificials = [], []
    for i, b in enumerate(p.b):
        sign = 1.0 if b >= 0 else -1.0
        if i in slack_of and slack_of[i][1] == sign:
            basis.append(slack_of[i][0])
        else:
            basis.append(p.num_cols + len(slacks) + len(artificials))
            artificials.append((i, sign))
    return slacks, basis, artificials


def _start_signs(basis, unit_sign, n):
    """Per row the sign of its start column: +1 for a placed column, else its unit column's."""
    sign = np.ones(basis.size)
    units = basis >= n
    sign[units] = unit_sign[basis[units] - n]
    return sign


def _dense_inverse(inv, m):
    """The B^-1 that an ``lp._Inverse`` stands for, as a dense array, row by row."""
    none = np.zeros(0, dtype=np.intp)
    return np.array([inv.row(r, none, np.zeros(0)) for r in range(m)])


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
        std, form = to_standard_form(p)
        slacks, basis, artificials = _loop_unit_start(p)
        assert list(zip(form.slack_rows.tolist(), form.slack_sign.tolist())) == slacks
        got, inv, unit_rows, unit_sign, crash = lp._start(std.A, std.b, form, None, lp.FEAS_TOL)
        assert got.tolist() == basis and not crash
        assert list(zip(unit_rows.tolist(), unit_sign.tolist())) == slacks + artificials
        # The start columns are unit columns with nonnegative values: B^-1
        # is diagonal, each row's sign, and B^-1 b = |b|.
        sign = _start_signs(got, unit_sign, p.num_cols)
        assert np.array_equal(_dense_inverse(inv, p.num_rows), np.diag(sign))
        assert np.array_equal(inv.ftran(std.b), np.abs(p.b))
    for _ in range(50):
        p = _random_feasible_bounded(rng)
        sol = solve_lp(p)
        for x, y in ((sol.x, sol.y_raw), (sol.x + rng.normal(size=p.num_cols), -sol.y_raw)):
            assert _residuals(p, x, y) == _loop_residuals(p, x, y)


def test_negating_rows_is_bit_exact():
    # Negating a row with b != 0, coefficients and b, and swapping <= and >=
    # gives the row the opposite start sign, and every later product the
    # simplex takes changes sign exactly: status, x and objective are
    # bit-identical and y_raw is negated on those rows. At b = 0 both forms
    # start on +e_i, so such rows stay as drawn.
    rng = np.random.default_rng(29)
    swap = {LE: GE, GE: LE, EQ: EQ}
    for _ in range(200):
        p = _random_feasible_bounded(rng)
        neg = (np.arange(p.num_rows) < p.num_rows // 2) & (p.b != 0.0)
        q = LpProblem(
            p.sense, p.c, np.where(neg[:, None], -p.A, p.A),
            [swap[s] if f else s for s, f in zip(p.row_senses, neg)], np.where(neg, -p.b, p.b),
        )
        a, b = solve_lp(p), solve_lp(q)
        assert a.status == b.status == "optimal"
        assert np.array_equal(a.x, b.x) and a.objective == b.objective
        assert np.array_equal(b.y_raw, np.where(neg, -a.y_raw, a.y_raw))
        assert a.iterations == b.iterations


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
    )
    sol = solve_lp(p, start=np.array([0, -1]))
    assert sol.crash
    assert sol.status == "infeasible"
    cert = sol.certificate
    assert cert @ p.b > 0 and cert @ p.A[:, 0] <= 1e-12 and cert[1] <= 0.0


def test_start_row_with_surplus_starts_on_its_slack():
    # x1 = 3 from row 0 leaves row 1, x1 >= 1 with b > 0, a surplus of 2:
    # its value on +e_1 is -2, the sign of its slack -e_1, so the row starts
    # on the slack and the start is feasible, with no phase 1.
    p = LpProblem(
        sense="max",
        c=np.array([1.0, 0.0]),
        A=np.array([[1.0, 1.0], [1.0, 0.0]]),
        row_senses=[EQ, GE],
        b=np.array([3.0, 1.0]),
    )
    sol = solve_lp(p, start=np.array([0, -1]))
    assert sol.crash and sol.status == "optimal"
    assert sol.phase1_iterations == 0 and sol.iterations == 1
    assert sol.x.tolist() == [3.0, 0.0]


@pytest.mark.parametrize(
    "side, message",
    [
        pytest.param("primal", "residuals", id="primal"),
        pytest.param("dual", "residuals", id="dual"),
        pytest.param("objective", r"duality gap 1\.000e-03 exceeds tolerance", id="objective"),
    ],
)
def test_residual_guard_rejects_a_drifted_solution(monkeypatch, side, message):
    # Shift the box problem's optimal x along (1, -1), or y along (2, -1):
    # both objectives stay at 3, so the duality-gap guard passes, but the
    # shifted x breaks x1 <= 1 and the shifted y leaves x1 a positive
    # reduced profit. Lowering x2 by 1e-3 keeps x feasible and y optimal,
    # but c.x = 2.999 against b.y = 3: the duality-gap guard refuses it.
    solve_standard = lp._solve_standard

    def drifted(*args):
        res = solve_standard(*args)
        if side == "primal":
            res.x[:2] += [1e-3, -1e-3]
        elif side == "dual":
            res.y_raw[:] += [2e-3, -1e-3]
        else:
            res.x[1] -= 1e-3
        return res

    monkeypatch.setattr(lp, "_solve_standard", drifted)
    with pytest.raises(ArithmeticError, match=message):
        solve_lp(box_problem())


def _benchmark_portfolio_lp(resolution):
    cfg = benchmark_portfolio(resolution)
    inst = build_portfolio_instance(cfg)
    return inst, build_discounted_primal(inst, cfg.benchmark)


def _primal_path_start(inst, num_rows):
    """The greedy start for inst with its reward negated: a policy that
    minimizes reward. Its basis is not dual feasible, so the solve leaves the
    dual phase at once and runs phase 1 and phase 2 from the same start."""
    return _greedy_start(replace(inst, reward_r=-inst.reward_r), num_rows)


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
    # and phase 2 continues from its inverse: the only factorizations are
    # the start's, which the dual phase's attempt shares, and one each time
    # the eta file reaches ETA_SHARE of the basis size: twice at the default
    # share, 11 times at 1/16.
    inst, p = _benchmark_portfolio_lp(2)
    factorizations = pivots = 0
    etas_at = []
    factorize, pivot, refactorize = lp._factorize, lp._Simplex._pivot, lp._Simplex.refactorize

    def counted_factorize(*args):
        nonlocal factorizations
        factorizations += 1
        return factorize(*args)

    def counted_pivot(self, *args):
        nonlocal pivots
        pivots += 1
        pivot(self, *args)

    def recorded_refactorize(self):
        etas_at.append(self.num_etas)
        refactorize(self)

    monkeypatch.setattr(lp, "_factorize", counted_factorize)
    monkeypatch.setattr(lp._Simplex, "_pivot", counted_pivot)
    monkeypatch.setattr(lp._Simplex, "refactorize", recorded_refactorize)
    for share in (lp.ETA_SHARE, 1 / 16):
        monkeypatch.setattr(lp, "ETA_SHARE", share)
        factorizations = pivots = 0
        etas_at.clear()
        sol = solve_lp(p, start=_primal_path_start(inst, p.num_rows))
        assert sol.status == "optimal" and sol.crash and sol.phase1_iterations > 0
        trigger = int(np.ceil(share * p.num_rows))
        assert etas_at == [trigger] * (pivots // trigger)
        assert factorizations == 1 + sol.refactorizations == 1 + len(etas_at)
    assert etas_at


def test_solve_keeps_no_copy_of_the_matrix():
    # The solve works on the problem's own matrix: a copy of it, with or
    # without slack or artificial columns appended, or a gathered temporary
    # of its size, passes the limit. The first input has equality rows
    # only, so every row starts on an artificial; every feasible x has cost
    # sum(b), so phase 2 barely pivots. The second repeats row 0: an
    # artificial stays basic on the redundant row, and phase 2 runs on the
    # same matrix, not on a copy without that row. The third has inequality
    # rows only, half of them >= rows with b < 0, which every row's slack
    # starts, and phase 2 pivots towards max sum(A) x.
    rng = np.random.default_rng(11)
    m, n = 100, 16_000
    A = rng.uniform(0.0, 1.0, size=(m, n))
    b = A[:, :m] @ rng.uniform(0.5, 1.0, size=m)
    half = np.arange(m) >= m // 2
    problems = [
        LpProblem("min", A.sum(axis=0), A, [EQ] * m, b),
        LpProblem("min", A.sum(axis=0), np.vstack([A, A[:1]]), [EQ] * (m + 1), np.append(b, b[0])),
        LpProblem("max", A.sum(axis=0), np.where(half[:, None], -A, A),
                  [GE if h else LE for h in half], np.where(half, -b, b)),
    ]
    for p in problems:
        tracemalloc.start()
        try:
            sol = solve_lp(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.status == "optimal"
        assert sol.phase1_iterations >= m if EQ in p.row_senses else sol.iterations >= m
        assert peak <= 0.5 * p.A.nbytes


def test_compressed_solve_holds_no_dense_basis_matrix():
    # The resolution-4 portfolio LP, 962 rows, from the greedy start: its 15
    # closed classes of 64 states are held as block factors, so the solve's
    # traced peak stays below one dense m x m float64 array, which the start
    # matrix, its inverse and the gather of its columns each took when the
    # inverse was held dense.
    inst, p = _benchmark_portfolio_lp(4)
    start = _greedy_start(inst, p.num_rows)
    tracemalloc.start()
    try:
        sol = solve_lp(p, start=start)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == "optimal" and sol.crash
    assert peak < 8 * p.num_rows**2


def test_phase_two_keeps_the_redundant_rows_artificial_basic(monkeypatch):
    # Average-mode balance rows sum to zero, so each draw has a redundant
    # row. In phase 2 (artificials priced at 0) no artificial enters, one
    # left basic sits within feas_tol of 0 at the end, and its row's dual
    # is exactly 0. The solves start from the reward-minimizing policy (or
    # the unit start where that policy is multichain), so they take phase 1.
    monkeypatch.setattr(average, "_greedy_start", _primal_path_start)
    run, pivot, solve_standard = lp._Simplex.run, lp._Simplex._pivot, lp._solve_standard
    phase2_entering, basic_artificials, redundant_duals = [], [], []

    def spied_run(self, c, max_iter):
        self.phase2 = not c[self.first_art :].any()
        result = run(self, c, max_iter)
        if self.phase2:
            basic_artificials.extend(self.x_B[self.basis >= self.first_art] / self.feas_tol)
            spied_run.redundant = np.flatnonzero(self.basis >= self.first_art)
        return result

    def spied_pivot(self, leave_row, enter, d, theta):
        if getattr(self, "phase2", False):
            phase2_entering.append(enter - self.first_art)
        return pivot(self, leave_row, enter, d, theta)

    def spied_solve_standard(*args):
        res = solve_standard(*args)
        if res.status == "optimal":
            redundant_duals.extend(res.y_raw[spied_run.redundant])
        return res

    monkeypatch.setattr(lp._Simplex, "run", spied_run)
    monkeypatch.setattr(lp._Simplex, "_pivot", spied_pivot)
    monkeypatch.setattr(lp, "_solve_standard", spied_solve_standard)
    rng = np.random.default_rng(3)
    for _ in range(12):
        feasible_pair(rng, max_states=10, max_actions=4)
    assert phase2_entering and max(phase2_entering) < 0
    assert basic_artificials and np.abs(basic_artificials).max() <= 1.0
    assert redundant_duals and not np.any(redundant_duals)


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
        inv = lp._factorize(A, np.arange(30), np.arange(40, 70), *[np.zeros(0, dtype=int)] * 3)
        sx = lp._Simplex(A, np.ones(30), lp.FEAS_TOL, np.arange(40, 70), inv)
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
    # The resolution-2 portfolio LP is 1.6 % nonzero, built as compressed
    # columns. The same LP given dense takes the dense products at density
    # 0 and compressed ones, taken from the dense matrix, at density 1.
    inst, p = _benchmark_portfolio_lp(2)
    start = _greedy_start(inst, p.num_rows)
    reference = solve_lp(p, start=start)
    monkeypatch.setattr(lp, "SPARSE_DENSITY", density)
    sol = solve_lp(replace(p, A=p.A), start=start)
    assert sol.status == reference.status == "optimal"
    assert sol.objective == pytest.approx(reference.objective, rel=1e-12)
    assert np.allclose(sol.y, reference.y, rtol=1e-9, atol=1e-12)


def _dual_statuses(monkeypatch):
    """Spy on ``lp._Simplex.dual``: the returned list gains each status it returns."""
    dual, statuses = lp._Simplex.dual, []

    def spied(self, c):
        statuses.append(dual(self, c))
        return statuses[-1]

    monkeypatch.setattr(lp._Simplex, "dual", spied)
    return statuses


def _without_dual_phase(monkeypatch):
    """Solves from here on take two phases from every start, as without a dual phase."""
    monkeypatch.setattr(lp._Simplex, "dual", lambda self, c: "dual infeasible")


@pytest.mark.parametrize("resolution", [2, 3])
def test_dual_phase_solves_the_portfolio_lps_from_the_greedy_start(monkeypatch, resolution):
    # The greedy start with every dominance row on its slack is dual feasible;
    # dual steepest edge reaches the two-phase primal's objective in a few
    # pivots (about 60 and 140 for the primal), the cleanup phase 2 makes
    # none and nothing refactorizes.
    inst, p = _benchmark_portfolio_lp(resolution)
    start = _greedy_start(inst, p.num_rows)
    statuses = _dual_statuses(monkeypatch)
    sol = solve_lp(p, start=start)
    assert statuses == ["feasible"]
    assert sol.status == "optimal" and sol.crash and sol.phase1_iterations == 0
    assert 0 < sol.dual_iterations <= 25
    assert sol.iterations == sol.dual_iterations + 1   # phase 2 prices once, no pivot
    assert sol.refactorizations == 0
    # The final basis holds a column per row; every structural outside it is 0.
    assert sol.basis.shape == (p.num_rows,)
    assert not sol.x[np.setdiff1d(np.arange(p.num_cols), sol.basis)].any()
    _without_dual_phase(monkeypatch)
    primal = solve_lp(p, start=start)
    assert primal.phase1_iterations > 0 and primal.iterations > 2 * sol.iterations
    assert sol.objective == pytest.approx(primal.objective, rel=1e-12)


def test_start_that_is_not_dual_feasible_takes_two_phases(monkeypatch):
    # With no value iteration sweep the discounted greedy start maximizes
    # the immediate reward alone. Where that basis is not dual feasible the
    # dual phase makes no pivot and two phases from the same start reach
    # the objective of the converged start's dual phase.
    rng = np.random.default_rng(0)
    cases = [feasible_pair(rng, max_states=10, max_actions=4, mode="discounted")[:2]
             for _ in range(8)]
    statuses = _dual_statuses(monkeypatch)
    checked = 0
    for inst, bench in cases:
        p = build_discounted_primal(inst, bench)
        reference = solve_lp(p, start=_greedy_start(inst, p.num_rows))
        monkeypatch.setattr(average, "CRASH_SWEEPS", 0)
        sol = solve_lp(p, start=_greedy_start(inst, p.num_rows))
        monkeypatch.setattr(average, "CRASH_SWEEPS", CRASH_SWEEPS)
        assert statuses[-2] == "feasible" and sol.status == "optimal"
        if statuses[-1] == "dual infeasible":
            assert sol.crash and sol.dual_iterations == 0 and sol.iterations > 1
            assert sol.objective == pytest.approx(reference.objective, rel=1e-12)
            checked += 1
    assert checked >= 3


def test_infeasibility_found_by_the_dual_phase_keeps_the_primal_certificate(monkeypatch):
    # x1 = 3 from row 0 violates x1 <= 2, and no nonbasic column can repair
    # row 1: the dual phase proves the LP infeasible, and the two phases
    # that follow return the certificate they return without it. So does
    # the golden unattainable TI-1 benchmark, from its greedy start.
    p = LpProblem("max", np.array([1.0]), np.array([[1.0], [1.0]]), [EQ, LE], np.array([3.0, 2.0]))
    statuses = _dual_statuses(monkeypatch)
    sol = solve_lp(p, start=np.array([0, -1]))
    report = solve_average(ti1(), Benchmark(support=[11.0], probs=[1.0]))
    assert statuses == ["infeasible", "infeasible"]
    assert sol.status == report.status == "infeasible"
    _without_dual_phase(monkeypatch)
    primal = solve_lp(p, start=np.array([0, -1]))
    primal_report = solve_average(ti1(), Benchmark(support=[11.0], probs=[1.0]))
    assert np.array_equal(sol.certificate, primal.certificate)
    assert report.certificate == primal_report.certificate
    assert report.binding_etas == primal_report.binding_etas == [11.0]


def test_start_that_leaves_an_artificial_off_zero_takes_two_phases(monkeypatch):
    # Row 1, x2 = 1, has no start column: its artificial starts basic at 1.
    # The dual phase never moves an artificial, so it hands this basis on as
    # "stalled", and phase 1 pivots x2 in.
    p = LpProblem("max", np.array([1.0, -1.0]), np.eye(2), [EQ, EQ], np.array([1.0, 1.0]))
    statuses = _dual_statuses(monkeypatch)
    sol = solve_lp(p, start=np.array([0, -1]))
    assert statuses == ["stalled"]
    assert sol.crash and sol.phase1_iterations > 0
    assert sol.x.tolist() == [1.0, 1.0] and sol.objective == 0.0


def _loop_ftran(B_inv, etas, v):
    """Reference: B^-1 v through a list of (r, g) etas, one at a time."""
    w = B_inv @ v
    for r, g in etas:
        w -= w[r] * g
    return w


def _loop_btran(B_inv, etas, v):
    """Reference: B^-T v through the same list, in reverse order."""
    v = v.copy()
    for r, g in reversed(etas):
        v[r] -= v @ g
    return v @ B_inv


def test_compact_eta_file_matches_the_list_of_etas(monkeypatch):
    # The equality rows start on artificials and the eta file holds 6 etas,
    # so the solve refactorizes several times, and a row pivots twice within
    # one file (R repeats it). After every pivot FTRAN, BTRAN and each row
    # of the inverse match the list of etas built from the same columns.
    rng = np.random.default_rng(3)
    m, n = 24, 60
    A = np.where(rng.random((m, n)) < 0.6, 0.0, rng.uniform(0.0, 1.0, (m, n)))
    b = A[:, :m] @ rng.uniform(0.5, 1.0, m)
    p = LpProblem("max", rng.normal(size=n), A, [EQ] * (m // 2) + [LE] * (m - m // 2), b)
    etas, checked, repeated = [], 0, 0
    pivot = lp._Simplex._pivot

    def close(got, want):
        return np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def checked_pivot(self, leave_row, enter, d, theta):
        nonlocal checked, repeated
        pivot(self, leave_row, enter, d, theta)
        if self.num_etas == 0:  # refactorized
            etas.clear()
            return
        g = d / d[leave_row]
        g[leave_row] = 1.0 - 1.0 / d[leave_row]
        repeated += any(r == leave_row for r, _ in etas)
        etas.append((leave_row, g))
        v = rng.normal(size=self.m)
        B_inv = _dense_inverse(self.inv, self.m)
        assert close(self.ftran(v.copy()), _loop_ftran(B_inv, etas, v))
        assert close(self.btran(v), _loop_btran(B_inv, etas, v))
        for r, unit in enumerate(np.eye(self.m)):
            assert close(self.row(r), _loop_btran(B_inv, etas, unit))
        checked += 1

    monkeypatch.setattr(lp._Simplex, "_pivot", checked_pivot)
    sol = solve_lp(p)
    assert sol.status == "optimal" and sol.refactorizations >= 1
    assert checked >= 20 and repeated >= 1


def test_updated_duals_follow_a_fresh_btran(monkeypatch):
    # y is updated per pivot; at every iteration of the resolution-2
    # portfolio solve's two phases it stays within 1e-9 max|y| of a BTRAN of
    # the basic costs.
    inst, p = _benchmark_portfolio_lp(2)
    entering = lp._Simplex._entering
    drift = []

    def checked(self, c, y, dual_tol):
        fresh = self.btran(c[self.basis])
        drift.append(np.abs(y - fresh).max() / np.abs(fresh).max())
        return entering(self, c, y, dual_tol)

    monkeypatch.setattr(lp._Simplex, "_entering", checked)
    sol = solve_lp(p, start=_primal_path_start(inst, p.num_rows))
    assert sol.status == "optimal"
    assert len(drift) >= sol.iterations and max(drift) <= 1e-9


def test_optimality_is_declared_on_a_fresh_dual_vector(monkeypatch):
    # Corrupt every updated y into one that prices every column out: zero
    # for phase 1's costs, the optimal duals for phase 2's. Were optimality
    # declared on an updated y, the solve would stop after its first pivot;
    # a fresh BTRAN overrules it each time.
    inst, p = _benchmark_portfolio_lp(2)
    start = _primal_path_start(inst, p.num_rows)
    reference = solve_lp(p, start=start)
    std, form = to_standard_form(p)
    y_star = lp._solve_standard(std, form, lp.FEAS_TOL, start).y_raw
    entering = lp._Simplex._entering
    overruled = 0

    def corrupted(self, c, y, dual_tol):
        nonlocal overruled
        if np.array_equal(y, self.btran(c[self.basis])):
            return entering(self, c, y, dual_tol)
        rc, enter, d = entering(self, c, y_star if c.min() < 0 else np.zeros(self.m), dual_tol)
        assert enter == -1
        overruled += 1
        return rc, enter, d

    monkeypatch.setattr(lp._Simplex, "_entering", corrupted)
    sol = solve_lp(p, start=start)
    assert sol.status == "optimal"
    assert sol.phase1_iterations > 1 and overruled >= reference.iterations // 2
    assert sol.objective == pytest.approx(reference.objective, rel=1e-12)


def _loop_components(nz):
    """Reference: component labels by a depth-first search per unlabelled vertex,
    numbered in order of their smallest vertex."""
    n = nz.shape[0]
    label = np.full(n, -1)
    count = 0
    for root in range(n):
        if label[root] >= 0:
            continue
        label[root], stack = count, [root]
        while stack:
            v = stack.pop()
            for w in np.flatnonzero(nz[v] | nz[:, v]):
                if label[w] < 0:
                    label[w] = count
                    stack.append(w)
        count += 1
    return label


def test_components_match_a_depth_first_search():
    # Directed patterns with self-loops, isolated vertices and long paths.
    rng = np.random.default_rng(23)
    for n, density in [(1, 1.0), (7, 0.0), (40, 0.02), (60, 0.03), (30, 0.5)]:
        for _ in range(10):
            nz = rng.random((n, n)) < density
            assert np.array_equal(lp._components(*np.nonzero(nz), n), _loop_components(nz))
    chain = np.eye(200, k=1, dtype=bool)   # one component of diameter 199
    assert np.array_equal(lp._components(*np.nonzero(chain[::-1, ::-1]), 200), np.zeros(200))


def _block_start(rng, sizes, units):
    """(B, rows): an identity B with start columns I - 0.9 P^T on the rows
    ``rows``. P is block diagonal with blocks of the given sizes, its states
    are shuffled, and the rows are scattered among the units unit rows, which
    hold dense dominance entries."""
    S = sum(sizes)
    P = np.zeros((S, S))
    lo = 0
    for size in sizes:
        P[lo : lo + size, lo : lo + size] = rng.dirichlet(np.ones(size), size=size)
        lo += size
    shuffle = rng.permutation(S)
    M = (np.eye(S) - 0.9 * P.T)[np.ix_(shuffle, shuffle)]
    m = S + units
    rows = np.sort(rng.permutation(m)[:S])
    unit = np.setdiff1d(np.arange(m), rows)
    B = np.eye(m)
    B[np.ix_(rows, rows)] = M
    B[np.ix_(unit, rows)] = rng.normal(size=(units, S))
    return B, rows


def _spy_inverses(monkeypatch):
    """(args, inv): every np.linalg.inv argument from here on, and the
    unpatched inverse for references."""
    inv, args = np.linalg.inv, []

    def spied(a):
        args.append(a.copy())
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", spied)
    return args, inv


def _check_factors(inv, want, rng):
    """An ``lp._Inverse`` against the dense inverse want: its dense form at
    1e-12 relative, and each of its products at 1e-12 of the reference's
    largest entry."""
    m = want.shape[0]
    got = _dense_inverse(inv, m)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    v, R, coef = rng.normal(size=m), rng.integers(0, m, 4), rng.normal(size=4)
    rows = np.sort(rng.permutation(m)[:3])
    products = [
        (inv.ftran(v), want @ v),
        (inv.btran(v), v @ want),
        (inv.row(m // 2, R, coef), want[m // 2] - coef @ want[R]),
        (inv.column(rows, v[:3]), want[:, rows] @ v[:3]),
        (inv.unit(m - 1), want[:, m - 1]),
        (inv.norms2(), np.einsum("ij,ij->i", want, want)),
    ]
    for got, ref in products:
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_block_start_inverse_matches_the_full_inverse(monkeypatch):
    # Five closed classes in three sizes, one inverse call per size, from
    # dense and compressed columns; the unit columns take either sign.
    rng = np.random.default_rng(7)
    args, inv = _spy_inverses(monkeypatch)
    for units in (4, 0, 1, 4, 9):
        B, rows = _block_start(rng, [3, 5, 3, 1, 5], units)
        unit = np.setdiff1d(np.arange(B.shape[0]), rows)
        sign = rng.choice([-1.0, 1.0], size=units)
        B[unit, unit] = sign
        want = inv(B)
        for A in (B[:, rows], from_dense(B[:, rows].T)):
            args.clear()
            got = lp._factorize(A, rows, np.arange(rows.size), unit, unit, sign)
            assert sorted(a.shape for a in args) == [(1, 1, 1), (2, 3, 3), (2, 5, 5)]
            assert got.dense is None
            _check_factors(got, want, rng)


def test_refactorized_basis_matches_the_full_inverse(monkeypatch):
    # Four independent sub-LPs of five rows: an equality row, a negated one
    # (b < 0, so its artificial is -e_i), two <= rows and a negated >= row
    # whose slack, -e_i, starts basic. Every basis is block diagonal along
    # the sub-LPs. From the unit start at ETA_SHARE 1/8, phase 1
    # refactorizes every 3 pivots on bases of structurals, slacks and
    # artificials of both signs. Each factorization matches the inverse of
    # the dense basis, with one block per sub-LP that holds structurals on
    # rows without a unit column.
    rng = np.random.default_rng(17)
    A = np.zeros((20, 32))
    for k in range(4):
        A[5 * k : 5 * k + 5, 8 * k : 8 * k + 8] = rng.uniform(0.1, 1.0, (5, 8))
    negated = np.tile([False, True, False, False, True], 4)
    A[negated] *= -1.0
    senses = [EQ, EQ, LE, LE, GE] * 4
    margin = np.where(np.asarray(senses) == EQ, 0.0, np.where(np.asarray(senses) == LE, 0.1, -0.1))
    p = LpProblem("max", rng.normal(size=32), A, senses, A @ rng.uniform(0.5, 1.0, 32) + margin)
    refactorize, mixed = lp._Simplex.refactorize, []

    def checked(self):
        refactorize(self)
        B = np.zeros((self.m, self.m))
        structural = np.flatnonzero(self.basis < self.n)
        B[:, structural] = A[:, self.basis[structural]]
        units = np.flatnonzero(self.basis >= self.n)
        k = self.basis[units] - self.n
        B[self.unit_rows[k], units] = self.unit_sign[k]
        _check_factors(self.inv, np.linalg.inv(B), rng)
        artificials = np.count_nonzero(self.basis >= self.first_art)
        if self.inv.dense is None and 0 < artificials < units.size and structural.size:
            mixed.append((sum(len(inv) for *_, inv in self.inv.blocks), set(self.unit_sign[k])))

    monkeypatch.setattr(lp._Simplex, "refactorize", checked)
    monkeypatch.setattr(lp, "ETA_SHARE", 1 / 8)
    sol = solve_lp(p)
    assert sol.status == "optimal" and sol.refactorizations >= 3
    assert any(blocks > 1 and signs == {-1.0, 1.0} for blocks, signs in mixed)


def test_singular_block_drops_the_start(monkeypatch):
    # Rows 0-1 start on a nonsingular block, rows 2-3 on two equal columns;
    # row 4 is a <= row that keeps its slack.
    A = np.array(
        [
            [2.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            [1.0, 2.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 1.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 1.0, 0.0, 1.0],
            [1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        ]
    )
    p = LpProblem("min", np.array([1.0, 1.0, 1.0, 2.0, 3.0, 3.0]), A, [EQ] * 4 + [LE],
                  np.array([3.0, 3.0, 1.0, 2.0, 10.0]))
    args, _ = _spy_inverses(monkeypatch)
    sol = solve_lp(p, start=np.array([0, 1, 2, 3, -1]))
    assert args[0].shape == (2, 2, 2)   # both blocks are 2 x 2
    assert not sol.crash
    plain = solve_lp(p)
    assert sol.status == plain.status == "optimal"
    assert np.array_equal(sol.x, plain.x) and sol.iterations == plain.iterations


@pytest.mark.parametrize("case", ["full-row", "connected"])
def test_one_component_start_inverts_the_full_matrix(monkeypatch, case):
    # A normalization row sum x = 1 is a fully nonzero row of the start, as
    # in every average-mode LP: no edge arrays are built. A tridiagonal start
    # has one component found by the search.
    rng = np.random.default_rng(2)
    S = 6
    M = np.eye(S) - 0.3 * (np.eye(S, k=1) + np.eye(S, k=-1)) * rng.uniform(0.5, 1.0, (S, S))
    if case == "full-row":
        M[0] = 1.0
    A = np.hstack([M, rng.uniform(0.0, 1.0, (S, 3))])
    A = np.vstack([A, rng.normal(size=A.shape[1])])   # a dominance row
    b = np.append(M @ rng.uniform(0.5, 1.0, S), -100.0)
    p = LpProblem("max", rng.normal(size=A.shape[1]), A, [EQ] * S + [GE], b)
    std, form = to_standard_form(p)
    start = np.append(np.arange(S), -1)
    B = np.eye(S + 1)
    B[:, :S] = A[:, :S]
    components, searched = lp._components, []

    def spied_components(i, j, count):
        searched.append(count)
        return components(i, j, count)

    monkeypatch.setattr(lp, "_components", spied_components)
    args, inv = _spy_inverses(monkeypatch)
    basis, got, _, unit_sign, crash = lp._start(std.A, std.b, form, start, lp.FEAS_TOL)
    assert crash
    assert len(args) == 1 and np.array_equal(args[0], B)
    # The dominance row starts on its slack, -e_i: its row of the inverse is negated.
    sign = _start_signs(basis, unit_sign, A.shape[1])
    assert sign.tolist() == [1.0] * S + [-1.0]
    assert np.array_equal(_dense_inverse(got, S + 1), sign[:, None] * inv(B))
    # The bipartite graph of the start columns: a vertex per row and per slot.
    assert searched == ([] if case == "full-row" else [2 * S])


def test_portfolio_resolution_2_start_inverts_six_blocks(monkeypatch):
    # The greedy policy's chain has six closed classes of 64 states.
    inst, p = _benchmark_portfolio_lp(2)
    start = _greedy_start(inst, p.num_rows)
    std, form = to_standard_form(p)
    args, inv = _spy_inverses(monkeypatch)
    basis, got, _, unit_sign, crash = lp._start(std.A, std.b, form, start, lp.FEAS_TOL)
    assert crash and [a.shape for a in args] == [(6, 64, 64)]
    rows = np.flatnonzero(start >= 0)
    B = np.eye(p.num_rows)
    B[:, rows] = p.A[:, start[rows]]
    want = _start_signs(basis, unit_sign, p.num_cols)[:, None] * inv(B)
    dense = _dense_inverse(got, p.num_rows)
    assert np.abs(dense - want).max() <= 1e-12 * np.abs(want).max()


EXACT_TOL = 1e-12
# The scales of ROADMAP item 1's sweep, applied to r, z and the benchmark support.
SCALES = {
    "average": [1e3, 1e-3, 1e6, 1e-6, 1e-5, 1e-7, 1e-8],
    "discounted": [1e3, 1e-3, 1e6, 1e-6],
}


def _exact_verdicts(monkeypatch, cases):
    """The larger exact infeasibility of the final basis of every optimal
    solve, and how many of those bases the dual phase led to."""
    finals = record_final_bases(monkeypatch)
    verdicts = []
    for inst, bench in cases:
        solve = solve_average if inst.mode == "average" else solve_discounted
        before = len(finals)
        try:
            report = solve(inst, bench)
        except ArithmeticError:
            continue   # refused by solve_lp's guards: no answer to check
        if report.status == "optimal":
            assert len(finals) == before + 1
            verdicts.append(max(exact_basis_infeasibility(finals[-1])))
    return verdicts, sum(fb.dual_phase for fb in finals)


def test_final_basis_is_exactly_optimal_on_small_draws(monkeypatch):
    # Up to 10 states and 5 support points: at most 16 rows. Every optimal
    # basis, checked in rational arithmetic on the float data, is primal and
    # dual feasible to 1e-12 relative. Every one of them ends the dual phase
    # from the greedy start.
    cases = []
    for mode in SCALES:
        rng = np.random.default_rng(31)
        for _ in range(10):
            cases.append(feasible_pair(rng, max_states=10, max_actions=4, mode=mode)[:2])
    verdicts, dual_phase = _exact_verdicts(monkeypatch, cases)
    assert len(verdicts) == dual_phase == 20
    assert max(verdicts) < EXACT_TOL


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: absolute simplex tolerances return wrong optima on scaled data",
)
def test_final_basis_is_exactly_optimal_across_scales(monkeypatch):
    # ROADMAP item 1's sweep: 20 seeded draws per mode, unscaled and with r,
    # z and the support scaled; some scaled solves end on a wrong "optimal" basis.
    cases = []
    for seed in range(20):
        for mode, scales in SCALES.items():
            inst, bench, _ = feasible_pair(np.random.default_rng(seed), max_states=10, mode=mode)
            cases.append((inst, bench))
            for k in scales:
                scaled = replace(inst, reward_r=inst.reward_r * k, reward_z=inst.reward_z * k)
                cases.append((scaled, Benchmark(support=bench.support * k, probs=bench.probs)))
    verdicts, _ = _exact_verdicts(monkeypatch, cases)
    assert max(verdicts) < EXACT_TOL
