"""Dense two-phase simplex returning primal and dual optimal solutions.

The solver is deterministic: identical inputs produce identical pivot
sequences. Duals are read from the final basis and mapped back to the
original rows, both raw (signed, for duality checks) and normalized per row
sense (nonnegative multipliers for inequality rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-8
GAP_TOL = 1e-7
REFACTOR_EVERY = 50

LE, EQ, GE = "<=", "=", ">="


@dataclass
class LpProblem:
    sense: str                  # "max" | "min"
    c: np.ndarray
    A: np.ndarray
    row_senses: list[str]
    b: np.ndarray
    lower: np.ndarray           # per-variable lower bound, 0.0 or -inf
    row_labels: list[str]
    col_labels: list[str]

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        if self.sense not in ("max", "min"):
            raise ValueError(f"unknown objective sense {self.sense!r}")
        m, n = self.A.shape if self.A.ndim == 2 else (len(self.b), self.c.size)
        if self.A.shape != (m, n) or self.c.shape != (n,) or self.b.shape != (m,):
            raise ValueError(
                f"dimension mismatch: A {self.A.shape}, c {self.c.shape}, b {self.b.shape}"
            )
        if len(self.row_senses) != m or len(self.row_labels) != m:
            raise ValueError("row senses/labels must match the number of rows")
        if len(self.col_labels) != n or self.lower.shape != (n,):
            raise ValueError("column labels/lower bounds must match the number of columns")
        for s in self.row_senses:
            if s not in (LE, EQ, GE):
                raise ValueError(f"unknown row sense {s!r}")
        if len(set(self.row_labels)) != m or len(set(self.col_labels)) != n:
            raise ValueError("row and column labels must be unique")

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    @property
    def num_cols(self) -> int:
        return self.A.shape[1]


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
    iterations: int = 0


@dataclass
class StandardForm:
    """min c.x, A x = b with b >= 0, x >= 0, plus the exact inverse mapping."""

    obj_sign: float
    pos_col: np.ndarray
    neg_col: np.ndarray      # -1 where the variable was not split
    slack_col: np.ndarray    # -1 for equality rows
    row_flip: np.ndarray

    def map_primal(self, x_std: np.ndarray) -> np.ndarray:
        x = x_std[self.pos_col].copy()
        split = self.neg_col >= 0
        x[split] -= x_std[self.neg_col[split]]
        return x

    def map_duals(self, y_std: np.ndarray, orig: LpProblem) -> tuple[np.ndarray, np.ndarray]:
        y_raw = self.obj_sign * self.row_flip * y_std
        # Inequality rows that oppose the objective's sense get their sign flipped.
        against = GE if orig.sense == "max" else LE
        norm = np.where(np.asarray(orig.row_senses, dtype=str) == against, -1.0, 1.0)
        return y_raw, norm * y_raw


def to_standard_form(p: LpProblem) -> tuple[LpProblem, StandardForm]:
    """Slack/surplus per inequality, split free variables, flip rows so b >= 0.

    Columns: each variable, directly followed by its negated copy when it is
    free, then one slack per inequality row in row order. A is C-ordered:
    the summation order of the products the simplex takes follows the layout.
    """
    m, n = p.num_rows, p.num_cols
    obj_sign = 1.0 if p.sense == "min" else -1.0
    free = np.isneginf(p.lower)
    width = 1 + free
    pos_col = np.cumsum(width) - width
    neg_col = np.where(free, pos_col + 1, -1)
    src = np.repeat(np.arange(n), width)
    k = src.size
    sign = np.ones(k)
    sign[neg_col[free]] = -1.0
    senses = np.asarray(p.row_senses, dtype=str)
    ineq = np.flatnonzero(senses != EQ)
    slack_col = np.full(m, -1)
    slack_col[ineq] = k + np.arange(ineq.size)
    A = np.zeros((m, k + ineq.size))
    np.multiply(p.A[:, src], sign, out=A[:, :k])
    A[ineq, slack_col[ineq]] = np.where(senses[ineq] == LE, 1.0, -1.0)
    flip = p.b < 0
    row_flip = np.where(flip, -1.0, 1.0)
    A[flip] *= -1.0
    labels = np.asarray(p.col_labels, dtype=object)[src]
    labels[neg_col[free]] += "__neg"
    std = LpProblem(
        sense="min",
        c=np.concatenate([obj_sign * p.c[src] * sign, np.zeros(ineq.size)]),
        A=A,
        row_senses=[EQ] * m,
        b=p.b * row_flip,
        lower=np.zeros(A.shape[1]),
        row_labels=list(p.row_labels),
        col_labels=labels.tolist() + np.char.mod("__slack[%d]", ineq).tolist(),
    )
    return std, StandardForm(obj_sign, pos_col, neg_col, slack_col, row_flip)


class _Simplex:
    """Revised simplex with an explicit basis inverse and eta updates."""

    def __init__(self, A: np.ndarray, b: np.ndarray, feas_tol: float, basis, B_inv=None):
        self.A = A
        self.b = b
        self.m, self.n = A.shape
        self.feas_tol = feas_tol
        self.basis = basis
        self.bland = False
        self.degenerate_pivots = 0
        self.pivots = 0
        self.iterations = 0
        self.B_inv = B_inv
        if B_inv is None:
            self.refactorize()

    def refactorize(self) -> None:
        self.B_inv = np.linalg.inv(self.A[:, self.basis])

    def _pivot(self, leave_row: int, enter: int, d: np.ndarray) -> None:
        self.basis[leave_row] = enter
        piv = d[leave_row]
        row = self.B_inv[leave_row] / piv
        self.B_inv -= np.outer(d, row)
        self.B_inv[leave_row] = row
        self.pivots += 1
        if self.pivots % REFACTOR_EVERY == 0:
            self.refactorize()

    def run(self, c: np.ndarray, max_iter: int) -> tuple[str, int, np.ndarray | None]:
        """Minimize c.x from the current basis.

        Returns (status, entering_col, direction): status "optimal" or
        "unbounded"; for unbounded the entering column and basic direction
        describe the improving ray.
        """
        bland_after = 5 * (self.m + self.n)
        dual_tol = PIVOT_TOL * (1.0 + np.abs(c).max(initial=0.0))
        for _ in range(max_iter):
            self.iterations += 1
            x_B = self.B_inv @ self.b
            y = self.B_inv.T @ c[self.basis]
            rc = c - self.A.T @ y
            rc[self.basis] = 0.0
            if self.bland:
                candidates = np.where(rc < -dual_tol)[0]
                if candidates.size == 0:
                    return "optimal", -1, None
                enter = int(candidates[0])
            else:
                enter = int(np.argmin(rc))
                if rc[enter] >= -dual_tol:
                    return "optimal", -1, None
            d = self.B_inv @ self.A[:, enter]
            pos = np.where(d > PIVOT_TOL)[0]
            if pos.size == 0:
                return "unbounded", enter, d
            ratios = x_B[pos] / d[pos]
            theta = ratios.min()
            ties = pos[ratios <= theta + 1e-12 * (1.0 + abs(theta))]
            leave_row = int(ties[np.argmin(self.basis[ties])])
            if x_B[leave_row] <= self.feas_tol:
                self.degenerate_pivots += 1
                if self.degenerate_pivots > bland_after:
                    self.bland = True
            self._pivot(leave_row, enter, d)
        raise RuntimeError(f"simplex exceeded {max_iter} iterations")


def _start_basis(A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per row, the first zero-cost unit column with +1 in that row; -1 if none."""
    nz = A != 0.0
    unit = np.flatnonzero((nz.sum(axis=0) == 1) & (c == 0.0))
    _, row_of = np.nonzero(nz[:, unit].T)
    plus = A[row_of, unit] == 1.0
    rows, first = np.unique(row_of[plus], return_index=True)
    basis = np.full(A.shape[0], -1)
    basis[rows] = unit[plus][first]
    return basis


def _solve_standard(std: LpProblem, feas_tol: float):
    """Two-phase simplex on a standard-form problem.

    Returns (status, x, y_std_full, cert, ray_std, kept_rows, iterations).
    y_std_full has one entry per original standard row; rows found redundant
    in phase 1 carry dual 0.
    """
    A, b, c = std.A, std.b, std.c
    m, n = A.shape
    max_iter = 5000 + 200 * (m + n)
    # An artificial column covers each row without a unit column.
    basis = _start_basis(A, c)
    need_art = np.flatnonzero(basis == -1)
    n_art = need_art.size
    basis[need_art] = n + np.arange(n_art)
    A_work = np.hstack([A, np.zeros((m, n_art))]) if n_art else A
    A_work[need_art, basis[need_art]] = 1.0
    # Every start basis column is a unit column, so its inverse is the identity.
    sx = _Simplex(A_work, b, feas_tol, basis, np.eye(m))

    kept = np.arange(m)
    if n_art:
        c1 = np.zeros(n + n_art)
        c1[n:] = 1.0
        status, _, _ = sx.run(c1, max_iter)
        if status != "optimal":  # pragma: no cover - phase 1 is always bounded
            raise RuntimeError("phase 1 reported unbounded")
        x_B = sx.B_inv @ b
        obj1 = c1[sx.basis] @ x_B
        if obj1 > feas_tol * (1.0 + np.abs(b).max(initial=0.0)):
            cert = sx.B_inv.T @ c1[sx.basis]
            return "infeasible", None, None, cert, None, kept, sx.iterations
        # Drive artificials out of the basis; rows that resist are redundant.
        # A pivot only changes its own row's basic column, so the rows to
        # visit are known up front.
        redundant = []
        for row in np.flatnonzero(sx.basis >= n):
            tableau_row = sx.B_inv[row] @ A
            tableau_row[sx.basis[sx.basis < n]] = 0.0
            cands = np.flatnonzero(np.abs(tableau_row) > PIVOT_TOL)
            if cands.size:
                sx._pivot(row, int(cands[0]), sx.B_inv @ A_work[:, cands[0]])
            else:
                redundant.append(row)
        # Phase 2 drops the artificial columns and the redundant rows, and
        # starts from a fresh inverse of the phase-1 basis.
        if redundant:
            kept = np.delete(kept, redundant)
            A = A[kept]
            b = b[kept]
        sx2 = _Simplex(A, b, feas_tol, sx.basis[kept])
        sx2.iterations = sx.iterations
        sx2.degenerate_pivots = sx.degenerate_pivots
        sx2.bland = sx.bland
        sx = sx2

    status, enter, d = sx.run(c, max_iter)
    if status == "unbounded":
        ray = np.zeros(n)
        ray[enter] = 1.0
        ray[sx.basis] = -d
        return "unbounded", None, None, None, ray, kept, sx.iterations
    x = np.zeros(n)
    x[sx.basis] = sx.B_inv @ sx.b
    np.maximum(x, 0.0, out=x)
    y_kept = sx.B_inv.T @ c[sx.basis]
    y_full = np.zeros(m)
    y_full[kept] = y_kept
    return "optimal", x, y_full, None, None, kept, sx.iterations


def _residuals(p: LpProblem, x: np.ndarray, y_raw: np.ndarray):
    """Largest primal violation, dual violation and complementary product."""
    gap = p.A @ x - p.b
    senses = np.asarray(p.row_senses, dtype=str)
    row_viol = np.where(senses == LE, gap, np.where(senses == GE, -gap, np.abs(gap)))
    rc = p.c - p.A.T @ y_raw
    free = np.isneginf(p.lower)
    col_viol = np.where(free, np.abs(rc), rc if p.sense == "max" else -rc)
    prim = max(0.0, row_viol.max(initial=0.0), (-x[~free]).max(initial=0.0))
    dual = max(0.0, col_viol.max(initial=0.0))
    slack = max(np.abs(y_raw * gap).max(initial=0.0), np.abs(x * rc)[~free].max(initial=0.0))
    return float(prim), float(dual), float(slack)


def solve_lp(p: LpProblem, feas_tol: float = FEAS_TOL) -> LpSolution:
    """Solve to optimality, infeasibility (with certificate) or unboundedness."""
    std, rec = to_standard_form(p)
    status, x_std, y_std, cert, ray_std, kept, iters = _solve_standard(std, feas_tol)
    if status == "infeasible":
        cert_orig = rec.row_flip * cert
        return LpSolution(status="infeasible", certificate=cert_orig, iterations=iters)
    if status == "unbounded":
        ray = rec.map_primal(ray_std)
        return LpSolution(status="unbounded", ray=ray, iterations=iters)
    x = rec.map_primal(x_std)
    y_raw, y = rec.map_duals(y_std, p)
    objective = float(p.c @ x)
    dual_objective = float(p.b @ y_raw)
    prim, dual, slack = _residuals(p, x, y_raw)
    gap = abs(objective - dual_objective)
    if gap > GAP_TOL * (1.0 + abs(objective)):
        raise ArithmeticError(
            f"duality gap {gap:.3e} exceeds tolerance at objective {objective!r}"
        )
    return LpSolution(
        status="optimal",
        x=x,
        y=y,
        y_raw=y_raw,
        objective=objective,
        dual_objective=dual_objective,
        primal_residual=prim,
        dual_residual=dual,
        slackness_residual=slack,
        iterations=iters,
    )
