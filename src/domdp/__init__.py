"""Dominance-constrained MDP solvers via occupation-measure linear programming."""

from .alp import BasisSet, sample_constraints, sample_count, solve_alp
from .average import (
    build_average_cost_primal,
    build_average_primal,
    extract_policy,
    solve_average,
    stationary_distribution,
)
from .discounted import (
    build_discounted_primal,
    solve_discounted,
    value_iteration_unconstrained,
)
from .dominance import (
    GeneratorFamily,
    UtilityFunction,
    benchmark_curve,
    check_icv,
    check_icx,
    reconstruct_utility,
    shortfall_minus,
    shortfall_plus,
    weighted_kink_family,
)
from .lp import LpProblem, LpSolution, solve_lp, to_standard_form
from .mdp import Benchmark, MdpInstance, Policy, enumerate_pairs, validate_instance
from .portfolio import PortfolioConfig, build_portfolio_instance
from .results import DualSolution, OccupationMeasure, SolveReport
from .simulate import (
    brute_force_best_feasible,
    enumerate_deterministic_policies,
    estimate_average_shortfalls,
    estimate_discounted_shortfalls,
    simulate,
)

__all__ = [
    "BasisSet",
    "Benchmark",
    "DualSolution",
    "GeneratorFamily",
    "LpProblem",
    "LpSolution",
    "MdpInstance",
    "OccupationMeasure",
    "Policy",
    "PortfolioConfig",
    "SolveReport",
    "UtilityFunction",
    "benchmark_curve",
    "brute_force_best_feasible",
    "build_average_cost_primal",
    "build_average_primal",
    "build_discounted_primal",
    "build_portfolio_instance",
    "check_icv",
    "check_icx",
    "enumerate_deterministic_policies",
    "enumerate_pairs",
    "estimate_average_shortfalls",
    "estimate_discounted_shortfalls",
    "extract_policy",
    "reconstruct_utility",
    "sample_constraints",
    "sample_count",
    "shortfall_minus",
    "shortfall_plus",
    "simulate",
    "solve_alp",
    "solve_average",
    "solve_discounted",
    "solve_lp",
    "stationary_distribution",
    "to_standard_form",
    "validate_instance",
    "value_iteration_unconstrained",
    "weighted_kink_family",
]
