"""Revised simplex returning primal and dual optimal solutions: a dual phase
from a caller's start where it is dual feasible, two phases otherwise.

Problem form. ``LpProblem`` is max or min c.x over x >= 0, subject to rows
A_i x = b_i, A_i x <= b_i or A_i x >= b_i: the form of every LP the package
builds, all over occupation measures. ``to_standard_form`` turns the
objective into a min and gives each inequality row a slack: +e_i on a <= row,
-e_i on a >= row. The simplex solves min c.x, A x + slacks = b, x >= 0 on
the problem's own A and b: no row is negated and a C-ordered A is not
copied, and the first n entries of its x are the problem's x.

The solver is deterministic: identical inputs produce identical pivot
sequences. Duals are read from the final basis and mapped back to the
original rows, both raw (signed, for duality checks) and normalized per row
sense (nonnegative multipliers for inequality rows).

Basis inverse. ``_Simplex`` keeps the explicit inverse of the basis from its
last refactorization and, after it, an eta file: one eta per pivot since
then, in product form (Forrest and Tomlin, Math. Prog. 2, 1972), stored in
compact form (Schreiber and Van Loan, SIAM J. Sci. Stat. Comput. 10, 1989).
The etas' vectors are the rows of a preallocated matrix G, their pivot rows
the entries of R, and their product is I - G^T T E_R^T with T unit lower
triangular, so FTRAN (B^-1 v) is the inverse's product followed by
w - ((T w[R]) @ G), and BTRAN (B^-T v) subtracts T^T (G v) at the rows R
(R can repeat a row) before the inverse's product: two matrix products each,
whatever the number of etas. Row r of B^-1 has nonzero weights on the rows
R and r of the inverse only, so ``row`` reads just those rows. T gains one
row per pivot at O(K^2) for K etas. The basic values follow the pivot
formula. Once the eta file holds ETA_SHARE of the basis size m,
``np.linalg.inv`` rebuilds the inverse, which empties the eta file and
recomputes the basic values from b. An inverse costs O(m^3) and each eta
O(m) per FTRAN or BTRAN, so the interval between inverses grows with m.
Drift between refactorizations is caught by the residual check of
``solve_lp``.

Pricing. Each iteration prices c - A^T y. y is updated per pivot,
y += (rc_q / d_r) e_r^T B^-1 for entering column q and pivot row r, from
the row of the inverse the pivot creates. A BTRAN of the basic costs
recomputes y from scratch at the start of each ``run``, after each
refactorization, and whenever an updated y finds no entering column or an
unbounded one: optimal and unbounded are declared on a recomputed y only,
and with a candidate left the solve goes on from it. The phase-1
certificate and the final duals are BTRANs too.

Compressed columns. A is held as compressed columns, the ``domdp.sparse``
rows of its transpose, when a builder passes it so (the occupation LP of a
sparse instance, from ``domdp.average``) or when a dense A has less than
SPARSE_DENSITY of its entries nonzero; then pricing is one
``np.add.reduceat`` over the columns, otherwise one dense ``A.T @ y``, and
the compressed arrays are never built. On one core the compressed product
takes 0.4-0.7 of the dense product's time at 4-6 % nonzero and breaks even
at 12-14 %, on random 400 x 2400, 642 x 1952 and 1794 x 11506 matrices. The
entering column is formed the same way: from its nonzeros, as
``B_inv[:, rows] @ vals``, when A is compressed, and as ``B_inv @ a``
otherwise. A refactorization and the start basis gather only their own
columns, the dual phase takes a leaving column's norm from its nonzeros,
and the residual checks take the compressed products, so an LP built
compressed is never held dense by the solve: ``LpProblem.A`` builds its
dense copy only for a reader outside the solve, such as an independent
solver or a test.

Ratio test. Harris's two passes (Math. Prog. 5, 1973): the step is the
smallest ratio with every basic value relaxed by feas_tol, and among the
rows whose exact ratio lies within that step the one with the largest pivot
element leaves. Large pivots keep the eta file and the next inverse well
conditioned; a step is never negative, so basic values stay within about
feas_tol of feasibility. After 5 (m + n) degenerate pivots the solver
switches to Bland's rule, with the exact ratio test and ties to the lowest
basic column.

Phases. Phase 2 minimizes c.x from a primal feasible basis, which either
the dual phase or phase 1 hands it. Phase 1 minimizes the sum of the
artificials. Neither they nor the slacks are stored as columns of A: each
is a unit column +-e_i on its row i (a logical variable; Maros,
Computational Techniques of the Simplex Method, 2003), the slacks first, so
pricing reads +-y_i, the entering column is +-B^-1 e_i and a
refactorization writes the unit column into its slot. An artificial that
leaves gets sign 0 and never returns.
Phase 1's certificate and, in phase 2, the final x and y go through FTRAN
and BTRAN; the tableau rows that drive artificials out are rows of the
inverse (``row``). One that cannot be driven out stays basic at 0 on its
redundant row, whose dual is 0 (Dantzig, Linear Programming and
Extensions, 1963). Phase 2 prices the artificials at 0 and goes on from
phase 1's A and inverse, refactorized when an artificial stayed basic.
Without a start, as in every ALP solve, or when the dual phase gives up,
the solve takes these two phases.

Dual phase. When the caller's start columns are placed, every inequality
row starts on its slack, even where the slack's value is negative, and only
an equality row without a start column keeps an artificial (in average mode
the redundant balance row 0, which stays basic at 0 and never leaves). If
that basis is dual feasible, every reduced cost at least -dual_tol with
phase 2's dual_tol = PIVOT_TOL (1 + max|c|), the dual simplex (Lemke, Naval
Res. Logist. Q. 1, 1954) runs from it: the only primal infeasible rows are
the rows whose slacks start negative, such as the dominance rows the
greedy policy violates. Each pivot takes as leaving row the one with the
largest x_r^2 / w_r among the rows below -feas_tol, where w_r = |e_r^T
B^-1|^2 is the dual steepest edge weight (Forrest and Goldfarb, Math. Prog.
57, 1992): exact from the start's inverse, then updated with one FTRAN of
rho_r = e_r^T B^-1 per pivot. The pivot row alpha = rho_r^T [A U] comes
from ``row`` and ``price``, and a Harris two-pass ratio test on rc_j /
-alpha_j over the columns with alpha_j < -PIVOT_TOL picks the entering
column: the longest dual step that no reduced cost relaxed by dual_tol
blocks, then the largest |alpha_j| within it. Both choices take the lowest
index among those within TIE_TOL of the best, so dense and compressed
pricing pivot alike. The reduced costs follow rc += t alpha for the dual
step t. Once no row is violated, phase 2 runs from the basis as a cleanup,
on a y from BTRAN. A violated row without an entering column proves the LP
infeasible; the solve then takes two phases from the same start, which
return phase 1's certificate.

Start basis. Basis slot i belongs to row i. A caller may place structural
start columns on some rows (``solve_lp(start=...)``); the
occupation-measure LP places a deterministic policy's pair columns on its
balance rows. Every other row holds +e_i while the basic values
x = B^-1 b are found, so x = b when no column is placed. For the two
phases such a row then takes the sign of its value, or of b_i where the
value is 0: it starts on its slack when the slack has that sign, and
otherwise on an artificial of that sign, and its row of the inverse is
negated to match. So every slack and artificial starts at a value >= 0.
The dual phase starts an inequality row on its slack whatever its sign (see
above), from the same inverse with that row negated. The start columns are
not placed when they are singular or one of their values is below
-feas_tol. An artificial always sits in its own row's slot, so the slot of
one left basic names its redundant row.

The start matrix is B = [[M, 0], [D, I]] under a permutation, M the start
columns on their own rows. When M's nonzero pattern (M | M^T) falls into
several connected components, M is block diagonal under a permutation (the
block triangular form of Duff and Reid, ACM TOMS 4, 1978), and
B^-1 = [[M^-1, 0], [-D M^-1, I]] is formed one block at a time, with one
batched inverse per block size. A discounted policy's balance block
I - delta P^T splits so along the closed classes of its chain. The
components come from hooking and pointer jumping over M's nonzeros, with
no loop per row. A start with one component is inverted whole by
``np.linalg.inv(B)``; a start with a fully nonzero row or column, such as
the average-mode normalization row, has one, and is sent there before any
edge list is built. A singular block makes B singular, and the start is
dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import sparse
from .sparse import SPARSE_DENSITY, Rows

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-8
GAP_TOL = 1e-7
# The eta file's arrays hold this share of the basis size, and a full file
# is folded into a fresh inverse. On one core, 1/4 solved the 962-row portfolio LP from the
# unit start (about 1700 pivots) in 3.5 s, against 3.7, 3.9 and 6.0 s at
# 1/8, 1/2 and 1.
ETA_SHARE = 0.25
# The dual phase's leaving row and entering column: among the choices within
# this share of the best, the lowest index, so products that differ in their
# last bits (dense or compressed pricing) pick the same pivot.
TIE_TOL = 1e-9

LE, EQ, GE = "<=", "=", ">="


@dataclass
class LpProblem:
    """max or min c.x over x >= 0 with one sense per row; see the module docstring.

    A is given dense, or as ``sparse.Rows`` of its columns, which are then
    kept in ``cols``: the dense A of such a problem is built on its first
    read, and the solve never reads it.

    Rows are known by their index only: a caller that reports on rows, such
    as the certificate of an infeasible solve, names them from its own layout.
    """

    sense: str                  # "max" | "min"
    c: np.ndarray
    A: np.ndarray
    row_senses: list[str]
    b: np.ndarray
    cols: Rows | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if isinstance(self.A, Rows):
            self.cols = self.A
            del self.A   # built by __getattr__ when read
            shape = self.cols.shape[::-1]
        else:
            self.cols = None
            self.A = np.asarray(self.A, dtype=float)
            shape = self.A.shape
        if self.sense not in ("max", "min"):
            raise ValueError(f"unknown objective sense {self.sense!r}")
        m, n = shape if len(shape) == 2 else (len(self.b), self.c.size)
        if shape != (m, n) or self.c.shape != (n,) or self.b.shape != (m,):
            raise ValueError(
                f"dimension mismatch: A {shape}, c {self.c.shape}, b {self.b.shape}"
            )
        if len(self.row_senses) != m:
            raise ValueError("row senses must match the number of rows")
        for s in self.row_senses:
            if s not in (LE, EQ, GE):
                raise ValueError(f"unknown row sense {s!r}")

    def __getattr__(self, name: str):
        # Reached only for the dense A of a problem given compressed columns.
        cols = self.__dict__.get("cols")
        if name != "A" or cols is None:
            raise AttributeError(name)
        self.A = cols.dense().T
        return self.A

    @property
    def matrix(self) -> np.ndarray | Rows:
        """A as the solve reads it: the compressed columns when given, else dense."""
        return self.A if self.cols is None else self.cols

    @property
    def num_rows(self) -> int:
        return self.b.size

    @property
    def num_cols(self) -> int:
        return self.c.size

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
    basis: np.ndarray | None = None       # column per row slot; unit column k is n + k
    iterations: int = 0                   # the phases that gave the answer, together
    phase1_iterations: int = 0
    dual_iterations: int = 0              # dual pivots, also when phase 1 took over
    crash: bool = False                   # the caller's start columns were used
    degenerate_pivots: int = 0
    bland: bool = False                   # the solve switched to Bland's rule
    refactorizations: int = 0             # np.linalg.inv calls of the simplex itself


@dataclass
class StandardForm:
    """The slacks of a standard form, and the objective's sign for mapping duals back."""

    obj_sign: float
    slack_rows: np.ndarray   # the inequality rows; slack k is column n + k
    slack_sign: np.ndarray   # +1 on a <= row, -1 on a >= row


def to_standard_form(p: LpProblem) -> tuple[LpProblem, StandardForm]:
    """The min-sense problem over p's own A and b, and one slack per inequality row.

    Slack k is the unit column slack_sign[k] * e_{slack_rows[k]}; it is not
    stored in A. A dense A is C-ordered, not copied when p's already is: the
    summation order of the products the simplex takes follows the layout.
    Compressed columns are shared as they are.
    """
    senses = np.asarray(p.row_senses, dtype=str)
    slack_rows = np.flatnonzero(senses != EQ)
    obj_sign = 1.0 if p.sense == "min" else -1.0
    A = np.ascontiguousarray(p.A) if p.cols is None else p.cols
    std = LpProblem("min", obj_sign * p.c, A, p.row_senses, p.b)
    return std, StandardForm(obj_sign, slack_rows, np.where(senses[slack_rows] == LE, 1.0, -1.0))


class _Simplex:
    """Revised simplex on A x + U u = b, x, u >= 0, from a given basis; see the module docstring.

    Eta k stands for the pivot in row R[k] with entering column d = B^-1 a:
    it multiplies B^-1 from the left by I - G[k]^T e_{R[k]}^T, where
    G[k] = d / d_r except G[k, r] = 1 - 1 / d_r. The product of the first K
    etas is I - G^T T E_R^T, with T = (I + L)^-1 and L[k, j] = G[j, R[k]]
    for j < k; T is unit lower triangular, one row added per pivot.

    Columns n + k are the unit columns of U: unit_sign[k] * e_{unit_rows[k]}.
    The first n_slack are the slacks; from column first_art on they are the
    artificials, with unit_sign[k] = 0 once artificial k has left the basis.

    A is dense, or ``sparse.Rows`` of its columns, which the simplex reads
    as they are (self.A is then None). A dense A is also held as compressed
    columns when less than SPARSE_DENSITY of it is nonzero.
    """

    def __init__(
        self, A: np.ndarray | Rows, b: np.ndarray, feas_tol: float, basis, B_inv: np.ndarray,
        unit_rows=np.zeros(0, dtype=int), unit_sign=np.zeros(0), n_slack: int = 0,
    ):
        if isinstance(A, Rows):
            self.A, self.cols = None, A
            self.n, self.m = A.shape
        else:
            self.A, self.cols = A, _compressed(A)
            self.m, self.n = A.shape
        self.b = b
        self.unit_rows, self.unit_sign = unit_rows, unit_sign
        self.first_art = self.n + n_slack
        self.feas_tol = feas_tol
        self.basis = basis
        self.bland = False
        self.degenerate_pivots = 0
        self.iterations = 0
        self.refactorizations = 0
        # Room for ETA_SHARE of m etas. A pivot writes its row of G and of R
        # and T's row below the diagonal, so an emptied file reuses the arrays.
        cap = max(1, math.ceil(ETA_SHARE * self.m))
        self.G = np.empty((cap, self.m))
        self.R = np.empty(cap, dtype=np.intp)
        self.T = np.eye(cap)
        self._restart(B_inv)

    def _restart(self, B_inv: np.ndarray) -> None:
        self.B_inv = B_inv
        self.num_etas = 0
        self.x_B = B_inv @ self.b

    def refactorize(self) -> None:
        self.refactorizations += 1
        slots = np.flatnonzero(self.basis >= self.n)
        k = self.basis[slots] - self.n
        structural = np.where(self.basis < self.n, self.basis, 0)
        B = _columns(self.cols if self.A is None else self.A, structural)
        B[:, slots] = 0.0
        B[self.unit_rows[k], slots] = self.unit_sign[k]
        self._restart(np.linalg.inv(B))

    def ftran(self, v: np.ndarray) -> np.ndarray:
        """B^-1 v."""
        return self._forward(self.B_inv @ v)

    def _forward(self, w: np.ndarray) -> np.ndarray:
        """The eta file applied to w: w - G^T T w[R]."""
        k = self.num_etas
        if k:
            w -= (self.T[:k, :k] @ w[self.R[:k]]) @ self.G[:k]
        return w

    def btran(self, v: np.ndarray) -> np.ndarray:
        """B^-T v."""
        k = self.num_etas
        v = v.copy()
        if k:
            # A row can pivot more than once, so R can repeat: scatter-add.
            np.subtract.at(v, self.R[:k], (self.G[:k] @ v) @ self.T[:k, :k])
        return v @ self.B_inv

    def row(self, r: int) -> np.ndarray:
        """e_r^T B^-1, from the rows R and r of the inverse only."""
        k = self.num_etas
        return self.B_inv[r] - (self.G[:k, r] @ self.T[:k, :k]) @ self.B_inv[self.R[:k]]

    def column(self, q: int) -> np.ndarray:
        """B^-1 times column q of A; from the column's nonzeros when A is compressed."""
        if q >= self.n:
            k = q - self.n
            return self._forward(self.B_inv[:, self.unit_rows[k]] * self.unit_sign[k])
        if self.cols is None:
            return self._forward(self.B_inv @ self.A[:, q])
        rows, vals = self.cols.row(q)
        return self._forward(self.B_inv[:, rows] @ vals)

    def price(self, y: np.ndarray) -> np.ndarray:
        """A.T @ y, then the unit columns' entries."""
        p = self.A.T @ y if self.cols is None else self.cols @ y
        if self.unit_rows.size:
            p = np.concatenate([p, y.take(self.unit_rows) * self.unit_sign])
        return p

    def _pivot(self, leave_row: int, enter: int, d: np.ndarray, theta: float) -> None:
        """Basis change with entering value theta; refactorizes when the eta
        file is full, at ETA_SHARE of the basis size. An artificial that
        leaves gets sign 0: its column prices at 0 and never enters again."""
        if self.basis[leave_row] >= self.first_art:
            self.unit_sign[self.basis[leave_row] - self.n] = 0.0
        self.basis[leave_row] = enter
        self.x_B -= theta * d
        self.x_B[leave_row] = theta
        k = self.num_etas
        self.num_etas = k + 1
        if self.num_etas == self.G.shape[0]:
            self.refactorize()  # which drops this eta unwritten
            return
        g = self.G[k]
        np.divide(d, d[leave_row], out=g)
        g[leave_row] = 1.0 - 1.0 / d[leave_row]
        self.R[k] = leave_row
        if k:
            # Row k of (I + L)^-1: -L[k, :k] T[:k, :k], with L[k, :k] = G[:k, r].
            self.T[k, :k] = -(self.G[:k, leave_row] @ self.T[:k, :k])

    def _entering(self, c: np.ndarray, y: np.ndarray, dual_tol: float):
        """Price c - A^T y; returns (rc, entering column, B^-1 a_q), the last
        two (-1, None) when no column prices out."""
        rc = c - self.price(y)
        rc[self.basis] = 0.0
        if self.bland:
            candidates = np.flatnonzero(rc < -dual_tol)
            enter = int(candidates[0]) if candidates.size else -1
        else:
            enter = int(np.argmin(rc))
            if rc[enter] >= -dual_tol:
                enter = -1
        return rc, enter, None if enter < 0 else self.column(enter)

    def dual(self, c: np.ndarray) -> str:
        """Dual simplex with dual steepest edge for min c.x from the current
        basis; see the module docstring.

        Returns "feasible" when it ends primal feasible, "dual infeasible"
        when the basis it starts from is not dual feasible, "infeasible" when
        a violated row has no entering column, which proves the LP
        infeasible, and "stalled" when the pivots run out or an artificial
        ends off 0.
        """
        dual_tol = PIVOT_TOL * (1.0 + np.abs(c).max(initial=0.0))
        rc = c - self.price(self.btran(c[self.basis]))
        rc[self.basis] = 0.0
        if rc.min() < -dual_tol:
            return "dual infeasible"
        # w_i = |e_i^T B^-1|^2, exact from the start's inverse, then updated.
        w = np.einsum("ij,ij->i", self.B_inv, self.B_inv)
        for _ in range(5 * (self.m + c.size)):
            x = self.x_B
            viol = np.flatnonzero((x < -self.feas_tol) & (self.basis < self.first_art))
            if viol.size == 0:
                off = np.abs(x[self.basis >= self.first_art]).max(initial=0.0) > self.feas_tol
                return "stalled" if off else "feasible"
            score = x[viol] ** 2 / w[viol]
            r = int(viol[np.argmax(score >= (1.0 - TIE_TOL) * score.max())])
            rho = self.row(r)
            alpha = self.price(rho)
            alpha[self.basis] = 0.0
            cand = np.flatnonzero(alpha < -PIVOT_TOL)
            if cand.size == 0:
                return "infeasible"
            # Harris: the longest dual step that no reduced cost relaxed by
            # dual_tol blocks, then the largest |alpha| within it.
            a = -alpha[cand]
            step = ((rc[cand] + dual_tol) / a).min()
            within = rc[cand] / a <= step
            cand, a = cand[within], a[within]
            q = int(cand[np.argmax(a >= (1.0 - TIE_TOL) * a.max())])
            t = max(rc[q], 0.0) / -alpha[q]
            d, tau = self.column(q), self.ftran(rho)
            # Forrest and Goldfarb's update. Row i of the new inverse is
            # rho_i - (d_i / d_r) rho_r, and its product with the leaving
            # column is -d_i / d_r, which bounds its norm from below.
            leave = self.basis[r]
            norm2 = 1.0 if leave >= self.n else self._norm2(leave)
            ratio = d / d[r]
            w_r = w[r]
            w += ratio * (ratio * w_r - 2.0 * tau)
            np.maximum(w, ratio * ratio / norm2, out=w)
            w[r] = w_r / d[r] ** 2
            rc += t * alpha
            rc[leave], rc[q] = t, 0.0
            self.iterations += 1
            self._pivot(r, q, d, x[r] / d[r])
        return "stalled"

    def _norm2(self, j: int) -> float:
        """|a_j|^2 of structural column j; from its nonzeros when A is not dense."""
        if self.A is not None:
            return float(self.A[:, j] @ self.A[:, j])
        _, a = self.cols.row(j)
        return float(a @ a)

    def run(self, c: np.ndarray, max_iter: int) -> tuple[str, int, np.ndarray | None]:
        """Minimize c.x from the current basis.

        Returns (status, entering_col, direction): status "optimal" or
        "unbounded"; for unbounded the entering column and basic direction
        describe the improving ray.
        """
        bland_after = 5 * (self.m + c.size)
        dual_tol = PIVOT_TOL * (1.0 + np.abs(c).max(initial=0.0))
        y, fresh = self.btran(c[self.basis]), True
        for _ in range(max_iter):
            self.iterations += 1
            rc, enter, d = self._entering(c, y, dual_tol)
            if not fresh and (d is None or d.max() <= PIVOT_TOL):
                # Optimal and unbounded are declared on a y from BTRAN only.
                y, fresh = self.btran(c[self.basis]), True
                rc, enter, d = self._entering(c, y, dual_tol)
            if d is None:
                return "optimal", -1, None
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
            if self.num_etas:
                # y' = y + (rc_q / d_r) rho_r, and the new row r of B^-1 is rho_r / d_r.
                y, fresh = y + rc[enter] * self.row(leave_row), False
            else:
                y, fresh = self.btran(c[self.basis]), True
        raise RuntimeError(f"simplex exceeded {max_iter} iterations")


def _compressed(A: np.ndarray) -> Rows | None:
    """A's columns as ``sparse.Rows`` of its transpose; None when A is too dense."""
    if np.count_nonzero(A) >= SPARSE_DENSITY * A.size:
        return None
    return sparse.from_dense(A.T)


def _columns(A: np.ndarray | Rows, idx: np.ndarray) -> np.ndarray:
    """The columns idx of A as a dense array; A dense or compressed columns."""
    if not isinstance(A, Rows):
        return A[:, idx]
    k, rows, vals = A[idx].entries()
    out = np.zeros((A.width, len(idx)))
    out[rows, k] = vals
    return out


def _components(nz: np.ndarray) -> np.ndarray:
    """Connected components of the graph with an edge i - j wherever nz[i, j]:
    a label in 0 ... count - 1 per vertex.

    Each round hooks every root to the smallest root across its edges, both
    ways, and pointer jumping makes every tree a star again. A root only
    moves to a smaller one, so no pointer cycle forms, and every root with
    an edge to another tree merges, which halves the trees each round.
    """
    i, j = np.divmod(np.flatnonzero(nz), nz.shape[1])
    parent = np.arange(nz.shape[0])
    while True:
        pi, pj = parent[i], parent[j]
        cross = pi != pj
        if not cross.any():
            return np.unique(parent, return_inverse=True)[1]
        pi, pj = pi[cross], pj[cross]
        np.minimum.at(parent, pi, pj)
        np.minimum.at(parent, pj, pi)
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand


def _start_inverse(B: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """B^-1 for the identity B with the start columns on the rows ``rows``.

    Under a permutation B = [[M, 0], [D, I]], M = B[rows, rows]. Where M's
    nonzero pattern splits into components, M is block diagonal and
    B^-1 = [[M^-1, 0], [-D M^-1, I]] comes one block at a time, one batched
    inverse per block size; one component, and so any start with a fully
    nonzero row or column, takes ``np.linalg.inv(B)`` itself. Raises
    LinAlgError when a block is singular.
    """
    nz = (B[rows] != 0.0)[:, rows]
    if nz.all(axis=0).any() or nz.all(axis=1).any():
        return np.linalg.inv(B)
    label = _components(nz)
    if label.max() == 0:
        return np.linalg.inv(B)
    unit = np.setdiff1d(np.arange(B.shape[0]), rows, assume_unique=True)
    sizes = np.bincount(label)
    by_label = rows[np.argsort(label, kind="stable")]
    B_inv = np.eye(B.shape[0])
    for size in np.unique(sizes):
        # One row of B's indices per component of this size.
        at = by_label[np.repeat(sizes == size, sizes)].reshape(-1, size)
        block_inv = np.linalg.inv(B[at[:, :, None], at[:, None, :]])
        B_inv[at[:, :, None], at[:, None, :]] = block_inv
        B_inv[unit[:, None], at[:, None, :]] = -(B[unit[:, None], at[:, None, :]] @ block_inv)
    return B_inv


def _start(A: np.ndarray | Rows, b: np.ndarray, form: StandardForm, start, feas_tol: float):
    """The start basis: (basis, B_inv, unit_rows, unit_sign, crash).

    start holds a column per row, -1 where none is placed, or is None. Its
    columns sit in their rows' slots when they can start, and crash says
    whether they do. Every other row holds +e_i while x = B^-1 b is found,
    then takes the sign of its value, or of b_i where the value is 0: its
    slack where the slack has that sign, else an artificial of that sign,
    numbered after the slacks in row order. Its row of B_inv is negated to
    match.
    """
    m, n = b.size, A.shape[0] if isinstance(A, Rows) else A.shape[1]
    start = np.full(m, -1) if start is None else start
    rows = np.flatnonzero(start >= 0)
    x = None
    if rows.size:
        B = np.eye(m)
        B[:, rows] = _columns(A, start[rows])
        try:
            B_inv = _start_inverse(B, rows)
            x = B_inv @ b
        except np.linalg.LinAlgError:
            pass
    if x is None or not np.isfinite(x).all() or x[rows].min() < -feas_tol:
        rows, B_inv, x = rows[:0], np.eye(m), b
    sign = np.where((x < 0.0) | ((x == 0.0) & (b < 0.0)), -1.0, 1.0)
    sign[rows] = 1.0
    B_inv[sign < 0.0] *= -1.0
    basis = np.full(m, -1)
    fits = form.slack_sign == sign[form.slack_rows]
    basis[form.slack_rows[fits]] = n + np.flatnonzero(fits)
    basis[rows] = start[rows]
    art = np.flatnonzero(basis < 0)
    basis[art] = n + form.slack_rows.size + np.arange(art.size)
    unit_rows = np.concatenate([form.slack_rows, art])
    unit_sign = np.concatenate([form.slack_sign, sign[art]])
    return basis, B_inv, unit_rows, unit_sign, rows.size > 0


def _solve_standard(
    std: LpProblem, form: StandardForm, feas_tol: float, start: np.ndarray | None
) -> LpSolution:
    """Dual phase or phase 1, then phase 2, on a standard-form problem.

    Returns x and the ray over the problem's columns, y_raw and the
    certificate over its rows (of the min-sense problem), with the final
    basis and the counters; a redundant row, whose artificial stays basic at
    0, carries dual 0. start holds a column per row, -1 where none is placed.
    """
    A, b, c = std.matrix, std.b, std.c
    m, n = std.num_rows, std.num_cols
    n_slack = form.slack_rows.size
    max_iter = 5000 + 200 * (m + n + n_slack)
    basis, B_inv, unit_rows, unit_sign, crash = _start(A, b, form, start, feas_tol)
    first_art, n_all = n + n_slack, n + unit_rows.size
    # Phase 2 prices the unit columns at 0; the artificials that left have sign 0.
    c2 = np.concatenate([c, np.zeros(n_all - n)])
    counts = dict(crash=crash)
    sx = None
    if crash:
        # The dual phase starts every inequality row on its slack: where the
        # start gave the row an artificial, the slack takes its slot, its row
        # of B_inv is negated and the artificial gets sign 0, as one that left.
        slack = np.full(m, -1)
        slack[form.slack_rows] = np.arange(n_slack)
        swap = np.flatnonzero((basis >= first_art) & (slack >= 0))
        dual_basis, dual_sign = basis.copy(), unit_sign.copy()
        dual_basis[swap] = n + slack[swap]
        dual_sign[basis[swap] - n] = 0.0
        B_inv[swap] *= -1.0
        sx = _Simplex(A, b, feas_tol, dual_basis, B_inv, unit_rows, dual_sign, n_slack)
        status = sx.dual(c2)
        counts["dual_iterations"] = sx.iterations
        if status != "feasible":
            # Two phases from the start instead; they also give the
            # certificate when the dual phase found a row infeasible.
            B_inv[swap] *= -1.0
            sx = None
    if sx is None:
        sx = _Simplex(A, b, feas_tol, basis, B_inv, unit_rows, unit_sign, n_slack)
        if n_all > first_art:
            c1 = np.zeros(n_all)
            c1[first_art:] = 1.0
            status, _, _ = sx.run(c1, max_iter)
            if status != "optimal":  # pragma: no cover - phase 1 is always bounded
                raise RuntimeError("phase 1 reported unbounded")
            counts["phase1_iterations"] = sx.iterations
            obj1 = c1[sx.basis] @ sx.ftran(b)
            if obj1 > feas_tol * (1.0 + np.abs(b).max(initial=0.0)):
                cert = sx.btran(c1[sx.basis])
                return LpSolution("infeasible", certificate=cert, **counts, **_final(sx))
            # Drive artificials out of the basis; one that resists stays basic at
            # 0 on its redundant row. A pivot only changes its own row's basic
            # column, so the rows to visit are known up front.
            for row in np.flatnonzero(sx.basis >= first_art):
                tableau_row = sx.price(sx.row(row))[:first_art]
                tableau_row[sx.basis[sx.basis < first_art]] = 0.0
                cands = np.flatnonzero(np.abs(tableau_row) > PIVOT_TOL)
                if cands.size:
                    d = sx.column(int(cands[0]))
                    sx._pivot(row, int(cands[0]), d, sx.x_B[row] / d[row])
            if (sx.basis >= first_art).any():
                # A fresh inverse recomputes the basic values from b, which
                # re-checks phase 1's claim that the artificials still basic sit at 0.
                sx.refactorize()

    status, enter, d = sx.run(c2, max_iter)
    if status == "unbounded":
        ray = np.zeros(n_all)
        ray[enter] = 1.0
        ray[sx.basis] = -d
        return LpSolution("unbounded", ray=ray[:n], **counts, **_final(sx))
    x = np.zeros(n_all)
    x[sx.basis] = sx.ftran(b)
    y = sx.btran(c2[sx.basis])
    # An artificial sits in its own row's slot: its redundant row's dual is 0.
    y[sx.basis >= first_art] = 0.0
    return LpSolution("optimal", x=np.maximum(x[:n], 0.0), y_raw=y, **counts, **_final(sx))


def _final(sx: _Simplex) -> dict:
    """The final basis and the counters of a solve's last simplex."""
    return dict(
        basis=sx.basis,
        iterations=sx.iterations,
        degenerate_pivots=sx.degenerate_pivots,
        bland=sx.bland,
        refactorizations=sx.refactorizations,
    )


def _residuals(p: LpProblem, x: np.ndarray, y_raw: np.ndarray):
    """Largest primal violation, dual violation and complementary product."""
    if p.cols is None:
        Ax, ATy = p.A @ x, p.A.T @ y_raw
    else:
        Ax, ATy = x @ p.cols, p.cols @ y_raw
    gap = Ax - p.b
    senses = np.asarray(p.row_senses, dtype=str)
    row_viol = np.where(senses == LE, gap, np.where(senses == GE, -gap, np.abs(gap)))
    rc = p.c - ATy
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
    std, form = to_standard_form(p)
    res = _solve_standard(std, form, feas_tol, start)
    if res.status != "optimal":
        return res
    x = res.x
    y_raw = form.obj_sign * res.y_raw
    # Inequality rows that oppose the objective's sense get their sign flipped.
    against = GE if p.sense == "max" else LE
    y = np.where(np.asarray(p.row_senses, dtype=str) == against, -1.0, 1.0) * y_raw
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
