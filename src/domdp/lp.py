"""Two-phase revised simplex returning primal and dual optimal solutions.

Problem form. ``LpProblem`` is max or min c.x over x >= 0, subject to rows
A_i x = b_i, A_i x <= b_i or A_i x >= b_i: the form of every LP the package
builds, all over occupation measures. ``to_standard_form`` appends one slack
column per inequality row and negates the rows with b < 0, so the simplex
solves min c.x, A x = b, x >= 0 with b >= 0, and the first n entries of its
x are the problem's x.

The solver is deterministic: identical inputs produce identical pivot
sequences. Duals are read from the final basis and mapped back to the
original rows, both raw (signed, for duality checks) and normalized per row
sense (nonnegative multipliers for inequality rows).

Basis inverse. ``_Simplex`` keeps the explicit inverse of the basis from its
last refactorization and, after it, an eta file: one column per pivot since
then, in product form (Forrest and Tomlin, Math. Prog. 2, 1972). FTRAN
(B^-1 v) applies the inverse and then the etas in order; BTRAN (B^-T v)
applies the etas in reverse order and then the inverse. The basic values
follow the pivot formula. Once the eta file holds ETA_SHARE of the basis
size m, ``np.linalg.inv`` rebuilds the inverse, which empties the eta file
and recomputes the basic values from b. An inverse costs O(m^3) and each
eta O(m) per FTRAN or BTRAN, so the interval between inverses grows with
m. Drift between refactorizations is caught by the residual check of
``solve_lp``.

Pricing. Each iteration takes y by BTRAN and prices c - A^T y. When less
than SPARSE_DENSITY of A is nonzero, A is also held as compressed columns
(int32 row indices) and the product is one ``np.add.reduceat`` over them;
otherwise it is one dense ``A.T @ y`` and the compressed arrays are never
built. On one core the compressed product takes 0.4-0.7 of the dense
product's time at 4-6 % nonzero and breaks even at 12-14 %, on random
400 x 2400, 642 x 1952 and 1794 x 11506 matrices. An entering column with
less than SPARSE_DENSITY of its entries nonzero is formed from them, as
``B_inv[:, rows] @ vals``; a denser one as ``B_inv @ a``.

Ratio test. Harris's two passes (Math. Prog. 5, 1973): the step is the
smallest ratio with every basic value relaxed by feas_tol, and among the
rows whose exact ratio lies within that step the one with the largest pivot
element leaves. Large pivots keep the eta file and the next inverse well
conditioned; a step is never negative, so basic values stay within about
feas_tol of feasibility. After 5 (m + n) degenerate pivots the solver
switches to Bland's rule, with the exact ratio test and ties to the lowest
basic column.

Phases. Phase 1 minimizes the sum of the artificials. They are not stored
as columns of A: an artificial is +-e_i on its row i, so pricing reads
+-y_i, the entering column is +-B^-1 e_i and a refactorization writes the
unit column into its slot. Phase 1's certificate, the tableau rows that
drive artificials out and, in phase 2, the final x and y all go through
FTRAN and BTRAN. When phase 1 drops no row, phase 2 goes on from phase 1's
inverse and eta file; otherwise it refactorizes the basis on the rows kept.

Start basis. Basis slot i belongs to row i. Without a start, each row takes
its unit start, which ``to_standard_form`` records: the row's slack when
the slack is +1 after the row flip (a <= row with b >= 0, or a >= row with
b < 0), or else an artificial +e_i, so the basis inverse is the identity.
A caller may place structural start columns on some rows
(``solve_lp(start=...)``); the occupation-measure LP places a deterministic
policy's pair columns on its balance rows. Every other row keeps its slack when the slack's value is
nonnegative and otherwise takes an artificial, negated where the row's
residual is negative so that every artificial starts at a value >= 0. The
start is dropped in favour of the unit one when its columns are singular
or one of their values is below -feas_tol. An artificial always sits in its
own row's slot: phase 1 finds a redundant row by the slot of an artificial
it cannot drive out, and drops the row of that index.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-8
GAP_TOL = 1e-7
# The eta file is folded into a fresh inverse once it holds this share of
# the basis size. On one core, 1/4 solved the 962-row portfolio LP from the
# unit start (about 1700 pivots) in 3.5 s, against 3.7, 3.9 and 6.0 s at
# 1/8, 1/2 and 1.
ETA_SHARE = 0.25
# Pricing runs over compressed columns when less than this share of A is
# nonzero, and as one dense A.T @ y above it; see the module docstring.
# domdp.io writes an instance's kernel rows sparse by the same rule.
SPARSE_DENSITY = 0.12

LE, EQ, GE = "<=", "=", ">="


@dataclass
class LpProblem:
    """max or min c.x over x >= 0 with one sense per row; see the module docstring.

    Row labels name the rows of an infeasibility certificate.
    """

    sense: str                  # "max" | "min"
    c: np.ndarray
    A: np.ndarray
    row_senses: list[str]
    b: np.ndarray
    row_labels: list[str]

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.sense not in ("max", "min"):
            raise ValueError(f"unknown objective sense {self.sense!r}")
        m, n = self.A.shape if self.A.ndim == 2 else (len(self.b), self.c.size)
        if self.A.shape != (m, n) or self.c.shape != (n,) or self.b.shape != (m,):
            raise ValueError(
                f"dimension mismatch: A {self.A.shape}, c {self.c.shape}, b {self.b.shape}"
            )
        if len(self.row_senses) != m or len(self.row_labels) != m:
            raise ValueError("row senses/labels must match the number of rows")
        for s in self.row_senses:
            if s not in (LE, EQ, GE):
                raise ValueError(f"unknown row sense {s!r}")
        if len(set(self.row_labels)) != m:
            raise ValueError("row labels must be unique")

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    @property
    def num_cols(self) -> int:
        return self.A.shape[1]

    @property
    def lower(self) -> np.ndarray:
        """Every variable's lower bound, 0.0: x >= 0 throughout.

        Read-only; kept for readers of the per-variable bounds, such as
        ``perfbench/checks.highs_objective``, which passes them to HiGHS.
        """
        return np.zeros(self.num_cols)


@dataclass
class LpSolution:
    status: str                       # optimal | infeasible | unbounded
    x: np.ndarray | None = None
    y: np.ndarray | None = None       # normalized per row sense (ineq rows >= 0)
    y_raw: np.ndarray | None = None   # signed duals; b . y_raw = dual objective
    objective: float | None = None
    dual_objective: float | None = None
    primal_residual: float = 0.0
    dual_residual: float = 0.0
    slackness_residual: float = 0.0
    ray: np.ndarray | None = None         # unbounded direction, original variables
    certificate: np.ndarray | None = None  # phase-1 dual weights per original row
    iterations: int = 0                   # both phases together
    phase1_iterations: int = 0
    crash: bool = False                   # the caller's start columns were used
    degenerate_pivots: int = 0
    bland: bool = False                   # the solve switched to Bland's rule
    refactorizations: int = 0             # np.linalg.inv calls of the simplex itself


@dataclass
class StandardForm:
    """min c.x, A x = b with b >= 0, x >= 0, plus the exact inverse mapping."""

    obj_sign: float
    n: int                   # the original columns, first in the standard form
    slack_col: np.ndarray    # -1 for equality rows
    row_flip: np.ndarray
    unit_start: np.ndarray   # per row its slack where that is +1 after the flip, else -1

    def map_primal(self, x_std: np.ndarray) -> np.ndarray:
        return x_std[: self.n]

    def map_duals(self, y_std: np.ndarray, orig: LpProblem) -> tuple[np.ndarray, np.ndarray]:
        y_raw = self.obj_sign * self.row_flip * y_std
        # Inequality rows that oppose the objective's sense get their sign flipped.
        against = GE if orig.sense == "max" else LE
        norm = np.where(np.asarray(orig.row_senses, dtype=str) == against, -1.0, 1.0)
        return y_raw, norm * y_raw


def to_standard_form(p: LpProblem) -> tuple[LpProblem, StandardForm]:
    """Slack or surplus per inequality row, rows with b < 0 negated.

    Columns: p's n columns, then one slack per inequality row in row order.
    A is C-ordered: the summation order of the products the simplex takes
    follows the layout.
    """
    m, n = p.num_rows, p.num_cols
    obj_sign = 1.0 if p.sense == "min" else -1.0
    senses = np.asarray(p.row_senses, dtype=str)
    ineq = np.flatnonzero(senses != EQ)
    slack_col = np.full(m, -1)
    slack_col[ineq] = n + np.arange(ineq.size)
    slack_sign = np.where(senses == LE, 1.0, -1.0)
    A = np.zeros((m, n + ineq.size))
    A[:, :n] = p.A
    A[ineq, slack_col[ineq]] = slack_sign[ineq]
    flip = p.b < 0
    row_flip = np.where(flip, -1.0, 1.0)
    A[flip] *= -1.0
    unit_start = np.where(slack_sign * row_flip == 1.0, slack_col, -1)
    std = LpProblem(
        sense="min",
        c=np.concatenate([obj_sign * p.c, np.zeros(ineq.size)]),
        A=A,
        row_senses=[EQ] * m,
        b=p.b * row_flip,
        row_labels=list(p.row_labels),
    )
    return std, StandardForm(obj_sign, n, slack_col, row_flip, unit_start)


class _Simplex:
    """Revised simplex on A x = b, x >= 0, from a given basis; see the module docstring.

    An eta (r, g) stands for the pivot in row r with entering column
    d = B^-1 a: it multiplies B^-1 from the left by I - g e_r^T, where
    g = d / d_r except g_r = 1 - 1 / d_r.

    Columns n + k are the artificials: art_sign[k] * e_{art_rows[k]}.
    """

    def __init__(
        self, A: np.ndarray, b: np.ndarray, feas_tol: float, basis, B_inv=None,
        art_rows=np.zeros(0, dtype=int), art_sign=np.zeros(0),
    ):
        self.A = A
        self.b = b
        self.m, self.n = A.shape
        self.art_rows, self.art_sign = art_rows, art_sign
        self.cols = _compressed(A)
        self.feas_tol = feas_tol
        self.basis = basis
        self.bland = False
        self.degenerate_pivots = 0
        self.iterations = 0
        self.refactorizations = 0
        if B_inv is None:
            self.refactorize()
        else:
            self._restart(B_inv)

    def _restart(self, B_inv: np.ndarray) -> None:
        self.B_inv = B_inv
        self.etas: list[tuple[int, np.ndarray]] = []
        self.x_B = B_inv @ self.b

    def refactorize(self) -> None:
        self.refactorizations += 1
        slots = np.flatnonzero(self.basis >= self.n)
        k = self.basis[slots] - self.n
        B = self.A[:, np.where(self.basis < self.n, self.basis, 0)]
        B[:, slots] = 0.0
        B[self.art_rows[k], slots] = self.art_sign[k]
        self._restart(np.linalg.inv(B))

    def reduce(self, A: np.ndarray, b: np.ndarray, kept: np.ndarray) -> None:
        """Continue without the artificials on A restricted to the rows kept.

        With every row kept the inverse and the eta file carry over;
        otherwise the basis is refactorized on the kept rows.
        """
        self.A, self.b = A, b
        self.art_rows, self.art_sign = self.art_rows[:0], self.art_sign[:0]
        if kept.size == self.m:
            return
        self.m = kept.size
        self.basis = self.basis[kept]
        self.cols = _compressed(A)
        self.refactorize()

    def ftran(self, v: np.ndarray) -> np.ndarray:
        """B^-1 v."""
        return self._forward(self.B_inv @ v)

    def _forward(self, w: np.ndarray) -> np.ndarray:
        for r, g in self.etas:
            w -= w[r] * g
        return w

    def btran(self, v: np.ndarray) -> np.ndarray:
        """B^-T v."""
        v = v.copy()
        for r, g in reversed(self.etas):
            v[r] -= v @ g
        return v @ self.B_inv

    def column(self, q: int) -> np.ndarray:
        """B^-1 times column q of A; from the column's nonzeros when they are few.

        Gathering the inverse's columns copies m x nnz values, so a column
        as dense as SPARSE_DENSITY takes the dense product instead.
        """
        if q >= self.n:
            k = q - self.n
            return self._forward(self.B_inv[:, self.art_rows[k]] * self.art_sign[k])
        if self.cols is not None:
            ptr, rows, vals = self.cols
            lo, hi = ptr[q], ptr[q + 1]
            if hi - lo < SPARSE_DENSITY * self.m:
                return self._forward(self.B_inv[:, rows[lo:hi]] @ vals[lo:hi])
        return self._forward(self.B_inv @ self.A[:, q])

    def price(self, y: np.ndarray) -> np.ndarray:
        """A.T @ y, then the artificials' entries."""
        if self.cols is None:
            p = self.A.T @ y
        else:
            ptr, rows, vals = self.cols
            p = np.add.reduceat(vals * y.take(rows), ptr[:-1])
        if self.art_rows.size:
            p = np.concatenate([p, y.take(self.art_rows) * self.art_sign])
        return p

    def _pivot(self, leave_row: int, enter: int, d: np.ndarray, theta: float) -> None:
        """Basis change with entering value theta; refactorizes when the eta
        file reaches ETA_SHARE of the basis size."""
        self.basis[leave_row] = enter
        self.x_B -= theta * d
        self.x_B[leave_row] = theta
        g = d / d[leave_row]
        g[leave_row] = 1.0 - 1.0 / d[leave_row]
        self.etas.append((leave_row, g))
        if len(self.etas) >= max(1, ETA_SHARE * self.m):
            self.refactorize()

    def run(self, c: np.ndarray, max_iter: int) -> tuple[str, int, np.ndarray | None]:
        """Minimize c.x from the current basis.

        Returns (status, entering_col, direction): status "optimal" or
        "unbounded"; for unbounded the entering column and basic direction
        describe the improving ray.
        """
        bland_after = 5 * (self.m + c.size)
        dual_tol = PIVOT_TOL * (1.0 + np.abs(c).max(initial=0.0))
        for _ in range(max_iter):
            self.iterations += 1
            rc = c - self.price(self.btran(c[self.basis]))
            rc[self.basis] = 0.0
            if self.bland:
                candidates = np.flatnonzero(rc < -dual_tol)
                if candidates.size == 0:
                    return "optimal", -1, None
                enter = int(candidates[0])
            else:
                enter = int(np.argmin(rc))
                if rc[enter] >= -dual_tol:
                    return "optimal", -1, None
            d = self.column(enter)
            pos = np.flatnonzero(d > PIVOT_TOL)
            if pos.size == 0:
                return "unbounded", enter, d
            d_pos = d[pos]
            ratios = self.x_B[pos] / d_pos
            if self.bland:
                theta = ratios.min()
                ties = pos[ratios <= theta + 1e-12 * (1.0 + abs(theta))]
                leave_row = int(ties[np.argmin(self.basis[ties])])
            else:
                # Harris: the longest step that no basic value relaxed by
                # feas_tol blocks, then the largest pivot among the rows
                # whose exact ratio lies within it.
                step = ((self.x_B[pos] + self.feas_tol) / d_pos).min()
                within = np.flatnonzero(ratios <= step)
                leave_row = int(pos[within[np.argmax(d_pos[within])]])
            if self.x_B[leave_row] <= self.feas_tol:
                self.degenerate_pivots += 1
                if self.degenerate_pivots > bland_after:
                    self.bland = True
            theta = max(self.x_B[leave_row] / d[leave_row], 0.0)
            self._pivot(leave_row, enter, d, theta)
        raise RuntimeError(f"simplex exceeded {max_iter} iterations")


def _compressed(A: np.ndarray):
    """A's columns as (starts, int32 rows, values); None when A is too dense.

    starts has one entry per column plus the end. An empty column keeps one
    explicit zero, so every column owns a segment of np.add.reduceat.
    """
    if np.count_nonzero(A) >= SPARSE_DENSITY * A.size:
        return None
    nz = A != 0.0
    nz[0, ~nz.any(axis=0)] = True
    cols, rows = np.nonzero(nz.T)
    ptr = np.searchsorted(cols, np.arange(A.shape[1] + 1))
    return ptr, rows.astype(np.int32), A[rows, cols]


def _crash(A: np.ndarray, b: np.ndarray, basis: np.ndarray, start: np.ndarray, feas_tol: float):
    """The start columns in their rows' slots; None when they cannot start.

    basis is the unit start. Returns (basis, B_inv, negate): the basis with -1
    on every row that takes an artificial, its inverse, and the rows whose
    artificial is -e_i. Rows outside the start keep +e_i in the start
    matrix; a negative value there turns the slot into -e_i, which negates
    that row of the inverse.
    """
    rows = np.flatnonzero(start >= 0)
    if rows.size == 0:
        return None
    B = np.eye(A.shape[0])
    B[:, rows] = A[:, start[rows]]
    try:
        B_inv = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        return None
    x_B = B_inv @ b
    if not np.isfinite(x_B).all() or x_B[rows].min() < -feas_tol:
        return None
    negate = x_B < 0.0
    negate[rows] = False
    B_inv[negate] *= -1.0
    basis = basis.copy()
    basis[rows] = start[rows]
    basis[negate] = -1
    return basis, B_inv, negate


def _solve_standard(
    std: LpProblem, unit_start: np.ndarray, feas_tol: float, start: np.ndarray | None
) -> LpSolution:
    """Two-phase simplex on a standard-form problem.

    Returns x, y_raw and the certificate or ray over the standard form's
    columns and rows, with the counters; rows found redundant in phase 1
    carry dual 0. unit_start and start hold a column per row, -1 where none
    is placed.
    """
    A, b, c = std.A, std.b, std.c
    m, n = A.shape
    max_iter = 5000 + 200 * (m + n)
    crash = None if start is None else _crash(A, b, unit_start, start, feas_tol)
    # The unit start's columns are all +e_i, so its inverse is the identity.
    basis, B_inv, negate = crash or (unit_start.copy(), np.eye(m), np.zeros(m, dtype=bool))
    # An artificial column covers each row left without a basic column.
    need_art = np.flatnonzero(basis == -1)
    n_art = need_art.size
    basis[need_art] = n + np.arange(n_art)
    art_sign = np.where(negate[need_art], -1.0, 1.0)
    sx = _Simplex(A, b, feas_tol, basis, B_inv, need_art, art_sign)
    counts = dict(crash=crash is not None)

    kept = np.arange(m)
    if n_art:
        c1 = np.zeros(n + n_art)
        c1[n:] = 1.0
        status, _, _ = sx.run(c1, max_iter)
        if status != "optimal":  # pragma: no cover - phase 1 is always bounded
            raise RuntimeError("phase 1 reported unbounded")
        counts["phase1_iterations"] = sx.iterations
        obj1 = c1[sx.basis] @ sx.ftran(b)
        if obj1 > feas_tol * (1.0 + np.abs(b).max(initial=0.0)):
            cert = sx.btran(c1[sx.basis])
            return LpSolution("infeasible", certificate=cert, **counts, **_counters(sx))
        # Drive artificials out of the basis; rows that resist are redundant.
        # A pivot only changes its own row's basic column, so the rows to
        # visit are known up front.
        redundant = []
        for row in np.flatnonzero(sx.basis >= n):
            unit = np.zeros(m)
            unit[row] = 1.0
            tableau_row = sx.price(sx.btran(unit))[:n]
            tableau_row[sx.basis[sx.basis < n]] = 0.0
            cands = np.flatnonzero(np.abs(tableau_row) > PIVOT_TOL)
            if cands.size:
                d = sx.column(int(cands[0]))
                sx._pivot(row, int(cands[0]), d, sx.x_B[row] / d[row])
            else:
                redundant.append(row)
        # Phase 2 drops the artificial columns and the redundant rows.
        kept = np.delete(kept, redundant)
        sx.reduce(A[kept] if redundant else A, b[kept], kept)

    status, enter, d = sx.run(c, max_iter)
    if status == "unbounded":
        ray = np.zeros(n)
        ray[enter] = 1.0
        ray[sx.basis] = -d
        return LpSolution("unbounded", ray=ray, **counts, **_counters(sx))
    x = np.zeros(n)
    x[sx.basis] = sx.ftran(sx.b)
    np.maximum(x, 0.0, out=x)
    y_full = np.zeros(m)
    y_full[kept] = sx.btran(c[sx.basis])
    return LpSolution("optimal", x=x, y_raw=y_full, **counts, **_counters(sx))


def _counters(sx: _Simplex) -> dict:
    return dict(
        iterations=sx.iterations,
        degenerate_pivots=sx.degenerate_pivots,
        bland=sx.bland,
        refactorizations=sx.refactorizations,
    )


def _residuals(p: LpProblem, x: np.ndarray, y_raw: np.ndarray):
    """Largest primal violation, dual violation and complementary product."""
    gap = p.A @ x - p.b
    senses = np.asarray(p.row_senses, dtype=str)
    row_viol = np.where(senses == LE, gap, np.where(senses == GE, -gap, np.abs(gap)))
    rc = p.c - p.A.T @ y_raw
    col_viol = rc if p.sense == "max" else -rc
    prim = max(0.0, row_viol.max(initial=0.0), (-x).max(initial=0.0))
    dual = max(0.0, col_viol.max(initial=0.0))
    slack = max(np.abs(y_raw * gap).max(initial=0.0), np.abs(x * rc).max(initial=0.0))
    return float(prim), float(dual), float(slack)


def solve_lp(
    p: LpProblem, feas_tol: float = FEAS_TOL, *, start: np.ndarray | None = None
) -> LpSolution:
    """Solve to optimality, infeasibility (with certificate) or unboundedness.

    start optionally names a column of p per row (-1 for none) to start
    from; see the module docstring for how the rest of the basis is filled
    in and when the start is dropped.
    """
    std, rec = to_standard_form(p)
    res = _solve_standard(std, rec.unit_start, feas_tol, start)
    if res.status == "infeasible":
        return replace(res, certificate=rec.row_flip * res.certificate)
    if res.status == "unbounded":
        return replace(res, ray=rec.map_primal(res.ray))
    x = rec.map_primal(res.x)
    y_raw, y = rec.map_duals(res.y_raw, p)
    objective = float(p.c @ x)
    dual_objective = float(p.b @ y_raw)
    prim, dual, slack = _residuals(p, x, y_raw)
    gap = abs(objective - dual_objective)
    if gap > GAP_TOL * (1.0 + abs(objective)):
        raise ArithmeticError(
            f"duality gap {gap:.3e} exceeds tolerance at objective {objective!r}"
        )
    # A basis that drifted can still close the gap; its x or y is then off.
    bound = feas_tol * (1.0 + max(np.abs(p.b).max(initial=0.0), np.abs(p.c).max(initial=0.0)))
    if max(prim, dual) > bound:
        raise ArithmeticError(
            f"residuals (primal {prim:.3e}, dual {dual:.3e}) exceed tolerance {bound:.3e}"
        )
    return replace(
        res,
        x=x,
        y=y,
        y_raw=y_raw,
        objective=objective,
        dual_objective=dual_objective,
        primal_residual=prim,
        dual_residual=dual,
        slackness_residual=slack,
    )
