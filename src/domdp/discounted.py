"""Discounted-reward entry points and the value-iteration oracle.

The discounted problem is the occupation-measure LP of ``domdp.average``
with delta = discount in the balance rows, b = initial on their right-hand
side and no normalization row; its balance-row duals are the value function
v (the dual's h, with gain g = 0).

Benchmark units: the dominance rows compare the discounted SUM of per-period
shortfalls against E[(Y-eta)_-] directly, so the benchmark must live in
discounted-total units (roughly 1/(1-delta) times a per-period quantity).
Rescaling a per-period benchmark is an explicit caller decision, never
silent; see the CLI's --rescale-benchmark flag.
"""

from __future__ import annotations

import numpy as np

from .average import _occupation_lp, _solve, optimality_residual
from .dominance import GeneratorFamily
from .lp import FEAS_TOL, LpProblem
from .mdp import DISCOUNTED, Benchmark, MdpInstance, Policy, deterministic_policy, require_valid
from .results import SolveReport

# Bound only so per-layer tracing can look them up here; the solve runs in average.
from .average import check_slackness  # noqa: F401
from .lp import solve_lp  # noqa: F401
from .mdp import policy_kernel, recurrent_classes  # noqa: F401


def build_discounted_primal(
    inst: MdpInstance, bench: Benchmark, family: GeneratorFamily | None = None
) -> LpProblem:
    """LP over discounted occupation measures, anchored at the initial distribution."""
    return _occupation_lp(inst, bench, family, DISCOUNTED)[0]


# v(s) = max_a { r(s,a) + u(z(s,a)) + delta sum_j P(j|s,a) v(j) } is the
# optimality equation with g = 0 and h = v.
bellman_residual = optimality_residual


def value_iteration_unconstrained(
    inst: MdpInstance, tol: float = 1e-8, max_iter: int = 1_000_000
) -> tuple[np.ndarray, Policy]:
    """Classic discounted value iteration, the vacuous-benchmark oracle.

    Iterates to sup-norm difference tol*(1-delta)/(2*delta), which leaves the
    returned v within tol/2 of the optimal value function.
    """
    require_valid(inst)
    delta = inst.delta
    threshold = tol * (1.0 - delta) / (2.0 * delta)
    offsets = inst.pair_offsets
    v = np.zeros(inst.num_states)
    for _ in range(max_iter):
        v_new = np.maximum.reduceat(inst.reward_r + delta * (inst.kernel @ v), offsets[:-1])
        if float(np.abs(v_new - v).max()) <= threshold:
            v = v_new
            break
        v = v_new
    else:
        raise RuntimeError("value iteration did not converge")
    q = inst.reward_r + delta * (inst.kernel @ v)
    choices = [int(np.argmax(q[offsets[s] : offsets[s + 1]])) for s in range(inst.num_states)]
    return v, deterministic_policy(inst, choices)


def solve_discounted(
    inst: MdpInstance,
    bench: Benchmark,
    benchmark_rescaled: bool = False,
    feas_tol: float = FEAS_TOL,
    family: GeneratorFamily | None = None,
) -> SolveReport:
    """Solve the discounted problem; v from balance-row duals, lambda from dominance rows."""
    return _solve(inst, bench, DISCOUNTED, family, feas_tol, benchmark_rescaled)
