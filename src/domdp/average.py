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
go on the balance rows, the dominance rows keep their slacks, and only a
dominance row that phi violates takes an artificial. In discounted mode the
block I - delta P_phi^T is nonsingular and its solution is phi's discounted
occupation measure for every deterministic phi, so when value iteration
does not converge within CRASH_SWEEPS sweeps the last sweep's greedy
policy starts the simplex all the same. In average mode the S balance rows
sum to zero, so phi's columns go on balance rows 1..S-1 and the
normalization row, and balance row 0 keeps an artificial that phase 1 finds
redundant; dropping that row fixes the gauge of the cost-to-go at
h(0) = 0, the gauge relative value iteration uses. The LP starts as it would without phi (artificials on
every balance row) when relative value iteration does not converge within
CRASH_SWEEPS sweeps, when phi is multichain in average mode, or when the
simplex rejects the start (see ``domdp.lp``).
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
) -> tuple[LpProblem, np.ndarray]:
    """(LP, dominance grid): etas, or parameter indices for a family.

    convex=True gives the cost variant: minimize, with E[(z-eta)_+] rows
    capped at the benchmark's.
    """
    require_valid(inst)
    if inst.mode != mode:
        raise ValueError(f"{mode} builder got mode {inst.mode!r}")
    if family is not None:
        D, rhs = family_rows(family, inst.reward_z)
        grid = np.arange(len(rhs), dtype=float)
        dom_labels = [f"dominance[xi={i}]" for i in range(len(grid))]
    else:
        if inst.reward_z.ndim != 1:
            raise ValueError("vector z requires a generator family")
        if bench.is_vector:
            raise ValueError("a vector benchmark requires a generator family")
        grid = bench.support
        kink = shortfall_plus if convex else shortfall_minus
        D = kink(inst.reward_z, grid[:, None])
        rhs = benchmark_plus_curve(bench, grid) if convex else benchmark_curve(bench, grid)
        dom_labels = [f"dominance[eta={float(eta)!r}]" for eta in grid]
    return occupation_lp(inst, D, rhs, dom_labels, convex=convex), grid


def occupation_lp(
    inst: MdpInstance, D: np.ndarray, rhs: np.ndarray, dom_labels: list[str],
    pairs: np.ndarray | None = None, project: np.ndarray | None = None, convex: bool = False,
) -> LpProblem:
    """inst's occupation LP with dominance rows D x >= rhs (minimized, <= rhs, if convex).

    D has a column per pair. pairs keeps one column per entry, duplicates
    included; project turns the S balance rows B x = b into
    project @ B x = project @ b.
    """
    S, K = inst.num_states, inst.num_pairs
    B = -inst.delta * inst.kernel.T
    B[inst.state_of_pair(), np.arange(K)] += 1.0
    b = np.zeros(S) if inst.mode == AVERAGE else inst.initial
    c = inst.reward_r.copy()
    row_labels = [f"balance[{j}]" for j in range(S)]
    if pairs is not None:
        B, D, c = B[:, pairs], D[:, pairs], c[pairs]
    if project is not None:
        B, b = project @ B, project @ b
        row_labels = [f"basis[{j}]" for j in range(len(project))]
    normalize = int(inst.mode == AVERAGE)  # the row sum x = 1, in average mode only
    row_labels += ["normalize"] * normalize + dom_labels
    return LpProblem(
        sense="min" if convex else "max",
        c=c,
        A=np.vstack([B, np.ones((normalize, c.size)), D]),
        row_senses=[EQ] * (len(row_labels) - len(rhs)) + [LE if convex else GE] * len(rhs),
        b=np.concatenate([b, [1.0] * normalize, rhs]),
        row_labels=row_labels,
    )


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
    if occ.mode != AVERAGE:
        w = w / w.sum()
    rows = []
    for s in range(inst.num_states):
        block = w[inst.pair_offsets[s] : inst.pair_offsets[s + 1]]
        total = float(block.sum())
        if total > ZERO_MARGINAL:
            row = np.maximum(block, 0.0) / total
            row = row / row.sum()
        else:
            row = np.full(block.size, 1.0 / block.size)
        rows.append(row)
    return Policy(tuple(rows))


def stationary_distribution(policy: Policy, inst: MdpInstance) -> np.ndarray:
    """Unique invariant distribution of the induced chain; unichain required."""
    P = policy_kernel(policy, inst)
    classes = recurrent_classes(P)
    if len(classes) != 1:
        raise ValueError(f"multichain policy: recurrent classes {classes}")
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

    Dominance side: |lam_q (sum_x row_q - rhs_q)| per row. Pair side:
    |x(s,a) (g + h(s) - delta sum_j P h - r - u(z))| per pair.
    """
    if report.status != "optimal":
        raise ValueError("slackness is only defined for optimal reports")
    occ = report.occupation
    inst = occ.inst
    dual = report.dual
    row_vals = report.dominance_matrix @ occ.weights
    dom = np.abs(dual.lam * (row_vals - report.dominance_rhs))
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
    q = inst.reward_r + dual.u_of_z + inst.delta * (inst.kernel @ dual.h)
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
    kernel = 0.5 * inst.kernel
    kernel[np.arange(inst.num_pairs), inst.state_of_pair()] += 0.5
    h = np.zeros(inst.num_states)
    for _ in range(max_iter):
        Th = np.maximum.reduceat(inst.reward_r + kernel @ h, inst.pair_offsets[:-1])
        w = Th - h
        span = float(w.max() - w.min())
        if span <= tol:
            g = float(0.5 * (w.max() + w.min()))
            return g, Th - Th[0]
        h = Th - Th[0]
    raise RuntimeError("relative value iteration did not converge")


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
    q = inst.reward_r + inst.delta * (inst.kernel @ v)
    return v, deterministic_policy(inst, _greedy_pairs(inst, q) - inst.pair_offsets[:-1])


def _value_sweeps(
    inst: MdpInstance, max_iter: int, tol: float = 1e-8
) -> tuple[np.ndarray, bool]:
    """(last v, converged) of at most max_iter discounted Bellman sweeps from v = 0."""
    delta = inst.delta
    threshold = tol * (1.0 - delta) / (2.0 * delta)
    v = np.zeros(inst.num_states)
    for _ in range(max_iter):
        v_new = np.maximum.reduceat(
            inst.reward_r + delta * (inst.kernel @ v), inst.pair_offsets[:-1]
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
        try:
            _, h = relative_value_iteration(inst, max_iter=CRASH_SWEEPS)
        except RuntimeError:
            return None
        # Greedy for RVI's damped kernel (I + P)/2: the h(s)/2 term is the
        # same for every action of s.
        q = inst.reward_r + 0.5 * (inst.kernel @ h)
    else:
        # Every deterministic policy is a valid discounted start, so the
        # last sweep's greedy policy serves even when the sweeps run out.
        v, _ = _value_sweeps(inst, CRASH_SWEEPS)
        q = inst.reward_r + inst.delta * (inst.kernel @ v)
    pairs = _greedy_pairs(inst, q)
    first = int(inst.mode == AVERAGE)
    if first and not is_unichain(inst.kernel[pairs]):
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
    lp, grid = _occupation_lp(inst, bench, family, mode)
    S = inst.num_states
    first = S + (mode == AVERAGE)
    sol = solve_lp(lp, feas_tol=feas_tol, start=_greedy_start(inst, lp.num_rows))
    flags = dict(mode=mode, family_mode=family is not None)
    if sol.status != "optimal":
        report = SolveReport(status=sol.status, **flags)
        if sol.status == "infeasible":
            cert = sol.certificate
            scale = float(np.abs(cert).max(initial=0.0))
            keep = [i for i in range(len(cert)) if abs(cert[i]) > 1e-9 * (1.0 + scale)]
            report.certificate = [(lp.row_labels[i], float(cert[i])) for i in keep]
            report.binding_etas = [float(grid[i - first]) for i in keep if i >= first]
        return report
    D, rhs = lp.A[first:], lp.b[first:]
    occ = OccupationMeasure(inst=inst, weights=np.maximum(sol.x, 0.0), mode=mode)
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
