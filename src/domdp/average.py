"""Occupation-measure LP for both modes: build, solve, dual recovery, checks.

Average and discounted problems are one LP over pair weights x(s,a). The
balance rows read

    sum_a x(j,a) - delta sum_{s,a} P(j|s,a) x(s,a) = b(j)

with delta = 1 and b = 0 plus a normalization row sum x = 1 in average mode,
and delta = discount and b = initial, without normalization, in discounted
mode. Dominance rows, one per benchmark support point (or per family
parameter), follow. Balance-row duals give the cost-to-go h (the value
function v in discounted mode), the normalization dual gives the gain g
(0 in discounted mode), and the dominance multipliers reconstruct a
piecewise linear increasing concave utility u, so that at the optimum

    g + h(s) = max_a { r(s,a) + u(z(s,a)) + delta sum_j P(j|s,a) h(j) }

holds at every state the optimal measure visits.

The simplex starts from the unconstrained greedy policy phi, found by value
iteration (relative value iteration in average mode): phi's pair columns
go on the balance rows and the dominance rows keep their slacks, negative
on the rows phi violates. phi is optimal without the dominance rows, so
this basis is dual feasible, and the dual phase of ``domdp.lp`` pivots
those rows feasible. Where the basis is not dual feasible (value iteration
stopped short) or the dual phase finds the LP infeasible, a row phi
violates takes an artificial instead and phase 1 repairs it. In discounted
mode the block I - delta P_phi^T is nonsingular and its solution is phi's
discounted occupation measure for every deterministic phi, so when value
iteration does not converge within CRASH_SWEEPS sweeps the last sweep's
greedy policy starts the simplex all the same. In average mode the S
balance rows sum to zero, so phi's columns go on balance rows 1..S-1 and
the normalization row, and balance row 0, which the other balance rows make
redundant, keeps an artificial; it stays basic at 0 and the row's dual is
0, which fixes the gauge of the cost-to-go at h(0) = 0, the gauge relative
value iteration uses. The LP starts as it would without phi (artificials
on every balance row) when relative value iteration does not converge
within CRASH_SWEEPS sweeps, when phi is multichain in average mode, or
when the simplex rejects the start (see ``domdp.lp``).

A sparse instance (see ``domdp.mdp``) stays compressed through the solve:
the sweeps, the greedy start and the residuals take the kernel's compressed
products (the damped sweep as 0.5 (P h) + 0.5 h(s)), and the LP's matrix is
built as compressed columns, column k being e_{s(k)} - delta P(.|k), then
the normalization entry, then the nonzeros of column k of the dominance
rows, which the simplex reads as they are. A dense instance keeps its
dense BLAS products and a dense LP matrix.
"""

from __future__ import annotations

import numpy as np

from .dominance import (
    GeneratorFamily,
    benchmark_curve,
    benchmark_plus_curve,
    family_rows,
    reconstruct_utility,
    shortfall_minus,
    shortfall_plus,
)
from . import sparse
from .lp import EQ, FEAS_TOL, GE, LE, LpProblem, solve_lp
from .mdp import (
    AVERAGE,
    Benchmark,
    MdpInstance,
    Policy,
    deterministic_policy,
    is_unichain,
    policy_kernel,
    recurrent_classes,
    require_valid,
    split_rows,
)
from .results import (
    DualSolution,
    OccupationMeasure,
    SlacknessSummary,
    SolveReport,
)

VISIT_TOL = 1e-9
ZERO_MARGINAL = 1e-12
STATIONARY_TOL = 1e-10
CRASH_SWEEPS = 1000


def _occupation_lp(
    inst: MdpInstance,
    bench: Benchmark,
    family: GeneratorFamily | None,
    mode: str,
    convex: bool = False,
) -> tuple[LpProblem, np.ndarray, np.ndarray]:
    """(LP, dominance grid, dominance rows D): etas, or parameter indices for a family.

    convex=True gives the cost variant: minimize, with E[(z-eta)_+] rows
    capped at the benchmark's.
    """
    require_valid(inst)
    if inst.mode != mode:
        raise ValueError(f"{mode} builder got mode {inst.mode!r}")
    if family is not None:
        D, rhs = family_rows(family, inst.reward_z)
        grid = np.arange(len(rhs), dtype=float)
    else:
        if inst.reward_z.ndim != 1:
            raise ValueError("vector z requires a generator family")
        if bench.is_vector:
            raise ValueError("a vector benchmark requires a generator family")
        grid = bench.support
        kink = shortfall_plus if convex else shortfall_minus
        D = kink(inst.reward_z, grid[:, None])
        rhs = benchmark_plus_curve(bench, grid) if convex else benchmark_curve(bench, grid)
    return occupation_lp(inst, D, rhs, convex=convex), grid, D


def occupation_lp(
    inst: MdpInstance, D: np.ndarray, rhs: np.ndarray,
    pairs: np.ndarray | None = None, project: np.ndarray | None = None, convex: bool = False,
) -> LpProblem:
    """inst's occupation LP with dominance rows D x >= rhs (minimized, <= rhs, if convex).

    Rows: the S balance rows, the normalization row sum x = 1 in average
    mode only, then one dominance row per entry of rhs. D has a column per
    pair. pairs keeps one column per entry, duplicates included; project
    turns the balance rows B x = b into project @ B x = project @ b.

    A sparse instance's LP, without pairs or project, is built as
    compressed columns (see the module docstring), the others dense.
    """
    S, K = inst.num_states, inst.num_pairs
    b = np.zeros(S) if inst.mode == AVERAGE else inst.initial
    c = inst.reward_r.copy()
    normalize = int(inst.mode == AVERAGE)
    if inst.kernel_rows is not None and pairs is None and project is None:
        A = _occupation_columns(inst, D, normalize)
    else:
        B = -inst.delta * inst.kernel.T
        B[inst.state_of_pair(), np.arange(K)] += 1.0
        if pairs is not None:
            B, D, c = B[:, pairs], D[:, pairs], c[pairs]
        if project is not None:
            B, b = project @ B, project @ b
        A = np.vstack([B, np.ones((normalize, c.size)), D])
    return LpProblem(
        sense="min" if convex else "max",
        c=c,
        A=A,
        row_senses=[EQ] * (len(b) + normalize) + [LE if convex else GE] * len(rhs),
        b=np.concatenate([b, [1.0] * normalize, rhs]),
    )


def _occupation_columns(inst: MdpInstance, D: np.ndarray, normalize: int) -> sparse.Rows:
    """The occupation LP's matrix as compressed columns, from inst's kernel rows.

    Column k holds 1 - delta P(s(k)|k) on its own state's balance row and
    -delta P(j|k) on the others, then 1 on the normalization row when
    normalize is 1, then the nonzeros of D[:, k]: the entries, bit for bit,
    of the dense matrix's column k.
    """
    S, K = inst.num_states, inst.num_pairs
    pair, to, p = inst.kernel_rows.entries()
    key = pair * S + to
    value = -inst.delta * p
    own = np.arange(K) * S + inst.state_of_pair()
    at = np.searchsorted(key, own)
    hit = at < key.size
    hit[hit] = key[at[hit]] == own[hit]
    value[at[hit]] += 1.0
    key = np.insert(key, at[~hit], own[~hit])
    value = np.insert(value, at[~hit], 1.0)
    dom_col, dom_row = np.nonzero(D.T)
    first = S + normalize
    col = np.concatenate([key // S, np.arange(normalize * K), dom_col])
    row = np.concatenate([key % S, np.full(normalize * K, S), first + dom_row])
    val = np.concatenate([value, np.ones(normalize * K), D[dom_row, dom_col]])
    # Stable: within a column the balance, normalization and D entries stay in row order.
    order = np.argsort(col, kind="stable")
    return sparse.from_entries(col[order], row[order], val[order], K, first + len(D))


def row_name(inst: MdpInstance, i: int, etas: np.ndarray | None) -> str:
    """Row i of inst's unprojected occupation LP by name; see the README's report schema.

    Dominance row k is named by the benchmark point etas[k], or by k for a
    family (etas None).
    """
    first = inst.num_states + (inst.mode == AVERAGE)
    if i < inst.num_states:
        return f"balance[{i}]"
    if i < first:
        return "normalize"
    if etas is None:
        return f"dominance[xi={i - first}]"
    return f"dominance[eta={float(etas[i - first])!r}]"


def build_average_primal(
    inst: MdpInstance, bench: Benchmark, family: GeneratorFamily | None = None
) -> LpProblem:
    """Reward-maximizing LP over stable occupation measures."""
    return _occupation_lp(inst, bench, family, AVERAGE)[0]


def build_average_cost_primal(inst: MdpInstance, bench: Benchmark) -> LpProblem:
    """Cost-minimizing variant: increasing convex order on the secondary cost.

    reward_r is read as a cost c and reward_z as a cost; the dominance rows
    cap sum x(s,a) (z(s,a)-eta)_+ at E[(Y-eta)_+] per eta in supp Y.
    """
    return _occupation_lp(inst, bench, None, AVERAGE, convex=True)[0]


def extract_policy(occ: OccupationMeasure) -> Policy:
    """Disintegrate x into a stationary policy; uniform at zero-marginal states."""
    inst = occ.inst
    w = occ.weights
    if inst.mode != AVERAGE:
        w = w / w.sum()
    starts, sizes = inst.pair_offsets[:-1], np.diff(inst.pair_offsets)
    total = np.add.reduceat(w, starts)
    visited = total > ZERO_MARGINAL
    # Unvisited states divide ones by |A(s)|, then by 1: the uniform row.
    probs = np.where(np.repeat(visited, sizes), np.maximum(w, 0.0), 1.0)
    probs /= np.repeat(np.where(visited, total, sizes), sizes)
    probs /= np.repeat(np.where(visited, np.add.reduceat(probs, starts), 1.0), sizes)
    return Policy(tuple(split_rows(probs, inst.pair_offsets)))


def stationary_distribution(policy: Policy, inst: MdpInstance) -> np.ndarray:
    """Unique invariant distribution of the induced chain; unichain required."""
    P = policy_kernel(policy, inst)
    classes = recurrent_classes(P)
    if len(classes) != 1:
        raise ValueError(f"multichain policy: recurrent classes {classes}")
    if isinstance(P, sparse.Rows):
        P = P.dense()
    S = inst.num_states
    for replace in range(S - 1, -1, -1):
        M = (np.eye(S) - P).T
        M[replace] = 1.0
        rhs = np.zeros(S)
        rhs[replace] = 1.0
        try:
            mu = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        mu = np.maximum(mu, 0.0)
        total = mu.sum()
        if total <= 0:
            continue
        mu = mu / total
        if float(np.abs(mu - mu @ P).max()) <= STATIONARY_TOL:
            return mu
    raise ArithmeticError("stationary distribution did not meet residual tolerance")


def check_slackness(report: SolveReport) -> SlacknessSummary:
    """Complementary slackness residuals: multiplier times constraint slack.

    Dominance side: |lam_q margin_q| per row, with the report's margins
    sum_x row_q - rhs_q. Pair side:
    |x(s,a) (g + h(s) - delta sum_j P h - r - u(z))| per pair.
    """
    if report.status != "optimal":
        raise ValueError("slackness is only defined for optimal reports")
    occ = report.occupation
    inst = occ.inst
    dual = report.dual
    dom = np.abs(dual.lam * report.dominance_margins)
    slack = dual.pair_rhs(inst) - inst.reward_r - dual.u_of_z
    pairs = np.abs(occ.weights * slack)
    return SlacknessSummary(dominance=dom, pairs=pairs)


def optimality_residual(report: SolveReport, inst: MdpInstance) -> tuple[np.ndarray, np.ndarray]:
    """Per-state residual of the modified optimality equations.

    g + h(s) = max_a { r(s,a) + u(z(s,a)) + delta sum_j P(j|s,a) h(j) }, with
    g = 0 and h = v in discounted mode. Returns (residuals, visited): only
    states whose occupation marginal exceeds 1e-9 are required to satisfy
    the equation; the rest are reported unconstrained.
    """
    if report.status != "optimal":
        raise ValueError("optimality residuals require an optimal report")
    dual = report.dual
    q = inst.reward_r + dual.u_of_z + inst.delta * (inst.P @ dual.h)
    residuals = np.abs(dual.g + dual.h - np.maximum.reduceat(q, inst.pair_offsets[:-1]))
    return residuals, report.occupation.state_marginal() > VISIT_TOL


def relative_value_iteration(
    inst: MdpInstance, tol: float = 1e-9, max_iter: int = 1_000_000
) -> tuple[float, np.ndarray]:
    """Unconstrained average-reward oracle via damped relative value iteration.

    Uses the aperiodicity transform P' = (I + P)/2, which preserves the gain,
    and stops when the span of the Bellman update is below tol; the returned
    gain is then within tol/2 of optimal for unichain instances.
    """
    require_valid(inst)
    solution = _relative_sweeps(inst, max_iter, tol)
    if solution is None:
        raise RuntimeError("relative value iteration did not converge")
    return solution


def _relative_sweeps(
    inst: MdpInstance, max_iter: int, tol: float = 1e-9
) -> tuple[float, np.ndarray] | None:
    """(gain, h) of at most max_iter damped relative sweeps from h = 0, or
    None when the span of the update is still above tol.

    The damped kernel (I + P)/2 is formed once when dense; compressed rows
    take 0.5 (P h) + 0.5 h(s) per sweep instead.
    """
    state = inst.state_of_pair()
    if inst.kernel_rows is None:
        kernel = 0.5 * inst.kernel
        kernel[np.arange(inst.num_pairs), state] += 0.5

        def damped(h):
            return kernel @ h
    else:
        def damped(h):
            return 0.5 * (inst.kernel_rows @ h) + 0.5 * h.take(state)
    h = np.zeros(inst.num_states)
    for _ in range(max_iter):
        Th = np.maximum.reduceat(inst.reward_r + damped(h), inst.pair_offsets[:-1])
        w = Th - h
        span = float(w.max() - w.min())
        if span <= tol:
            g = float(0.5 * (w.max() + w.min()))
            return g, Th - Th[0]
        h = Th - Th[0]
    return None


def value_iteration_unconstrained(
    inst: MdpInstance, tol: float = 1e-8, max_iter: int = 1_000_000
) -> tuple[np.ndarray, Policy]:
    """Classic discounted value iteration, the vacuous-benchmark oracle.

    Iterates to sup-norm difference tol*(1-delta)/(2*delta), which leaves the
    returned v within tol/2 of the optimal value function.
    """
    require_valid(inst)
    v, converged = _value_sweeps(inst, max_iter, tol)
    if not converged:
        raise RuntimeError("value iteration did not converge")
    q = inst.reward_r + inst.delta * (inst.P @ v)
    return v, deterministic_policy(inst, _greedy_pairs(inst, q) - inst.pair_offsets[:-1])


def _value_sweeps(
    inst: MdpInstance, max_iter: int, tol: float = 1e-8
) -> tuple[np.ndarray, bool]:
    """(last v, converged) of at most max_iter discounted Bellman sweeps from v = 0."""
    delta, P = inst.delta, inst.P
    threshold = tol * (1.0 - delta) / (2.0 * delta)
    v = np.zeros(inst.num_states)
    for _ in range(max_iter):
        v_new = np.maximum.reduceat(
            inst.reward_r + delta * (P @ v), inst.pair_offsets[:-1]
        )
        step = float(np.abs(v_new - v).max())
        v = v_new
        if step <= threshold:
            return v, True
    return v, False


def _greedy_pairs(inst: MdpInstance, q: np.ndarray) -> np.ndarray:
    """Per state, the pair index of its first action maximizing q."""
    offsets = inst.pair_offsets[:-1]
    hits = np.flatnonzero(q == np.maximum.reduceat(q, offsets)[inst.state_of_pair()])
    return hits[np.searchsorted(hits, offsets)]


def _greedy_start(inst: MdpInstance, num_rows: int) -> np.ndarray | None:
    """Start columns of the greedy policy per LP row (-1 for none), or None.

    See the module docstring for the layout and when there is no start.
    """
    if inst.mode == AVERAGE:
        solution = _relative_sweeps(inst, CRASH_SWEEPS)
        if solution is None:
            return None
        h = solution[1]
        # Greedy for RVI's damped kernel (I + P)/2: the h(s)/2 term is the
        # same for every action of s.
        q = inst.reward_r + 0.5 * (inst.P @ h)
    else:
        # Every deterministic policy is a valid discounted start, so the
        # last sweep's greedy policy serves even when the sweeps run out.
        v, _ = _value_sweeps(inst, CRASH_SWEEPS)
        q = inst.reward_r + inst.delta * (inst.P @ v)
    pairs = _greedy_pairs(inst, q)
    first = int(inst.mode == AVERAGE)
    if first and not is_unichain(inst.P[pairs]):
        return None
    start = np.full(num_rows, -1)
    start[first : first + inst.num_states] = pairs
    return start


def _solve(
    inst: MdpInstance,
    bench: Benchmark,
    mode: str,
    family: GeneratorFamily | None,
    feas_tol: float,
) -> SolveReport:
    """Either mode's solve: LP, then dual recovery and every residual filled in."""
    lp, grid, D = _occupation_lp(inst, bench, family, mode)
    S = inst.num_states
    first = S + (mode == AVERAGE)
    sol = solve_lp(lp, feas_tol=feas_tol, start=_greedy_start(inst, lp.num_rows))
    flags = dict(mode=mode, family_mode=family is not None)
    if sol.status != "optimal":
        report = SolveReport(status=sol.status, **flags)
        if sol.status == "infeasible":
            cert = sol.certificate
            scale = float(np.abs(cert).max(initial=0.0))
            keep = np.flatnonzero(np.abs(cert) > 1e-9 * (1.0 + scale))
            etas = grid if family is None else None
            report.certificate = [(row_name(inst, i, etas), float(cert[i])) for i in keep]
            report.binding_etas = [float(grid[i - first]) for i in keep if i >= first]
        return report
    D, rhs = D.copy(), lp.b[first:].copy()   # views would keep their bases alive
    occ = OccupationMeasure(inst=inst, weights=sol.x)
    lam = np.maximum(sol.y[first:], 0.0)
    dual = DualSolution(
        g=float(sol.y[S]) if mode == AVERAGE else 0.0,
        h=sol.y[:S],
        lam=lam,
        utility=reconstruct_utility(grid, lam) if family is None else None,
        u_of_z=lam @ D,
    )
    policy = extract_policy(occ)
    report = SolveReport(
        status="optimal",
        objective=sol.objective,
        dual_objective=sol.dual_objective,
        gap=abs(sol.objective - sol.dual_objective),
        occupation=occ,
        dual=dual,
        policy=policy,
        dominance_grid=grid,
        dominance_matrix=D,
        dominance_rhs=rhs,
        dominance_margins=D @ occ.weights - rhs,
        multichain=not is_unichain(policy_kernel(policy, inst)),
        **flags,
    )
    report.slackness = check_slackness(report)
    report.optimality_residuals, report.visited_states = optimality_residual(report, inst)
    return report


def solve_average(
    inst: MdpInstance,
    bench: Benchmark,
    family: GeneratorFamily | None = None,
    feas_tol: float = FEAS_TOL,
) -> SolveReport:
    """Solve the dominance-constrained average-reward problem with full dual recovery."""
    return _solve(inst, bench, AVERAGE, family, feas_tol)
