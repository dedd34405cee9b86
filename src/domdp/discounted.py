"""Discounted-reward entry points (value iteration is in ``domdp.average``).

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

from .average import (  # noqa: F401 - value iteration is re-exported here
    _occupation_lp,
    _solve,
    optimality_residual,
    value_iteration_unconstrained,
)
from .dominance import GeneratorFamily
from .lp import FEAS_TOL, LpProblem
from .mdp import DISCOUNTED, Benchmark, MdpInstance
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


def solve_discounted(
    inst: MdpInstance,
    bench: Benchmark,
    benchmark_rescaled: bool = False,
    feas_tol: float = FEAS_TOL,
    family: GeneratorFamily | None = None,
) -> SolveReport:
    """Solve the discounted problem; v from balance-row duals, lambda from dominance rows."""
    return _solve(inst, bench, DISCOUNTED, family, feas_tol, benchmark_rescaled)
