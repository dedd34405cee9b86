"""Output checks, run after the timed passes.

Each check returns a list of problems; an empty list means the output is
correct. References are computed independently of the solver under test:
LP objectives come from ``scipy.optimize.linprog(method="highs")`` on the
same LP the program builds. Tolerances are the acceptance suite's.
"""

from __future__ import annotations

import json
from functools import lru_cache

import numpy as np
from scipy.optimize import linprog

from domdp import io as jsonio
from domdp.alp import BasisSet, build_alp, sample_constraints, sample_count
from domdp.average import build_average_primal
from domdp.discounted import build_discounted_primal
from domdp.dominance import reconstruct_utility
from domdp.lp import EQ, GE, LE, LpProblem

OBJECTIVE_TOL = 1e-6   # |objective - HiGHS| <= tol * (1 + |HiGHS|)
GAP_TOL = 1e-6         # criterion 2, relative to 1 + |objective|
RESIDUAL_TOL = 1e-6    # criteria 3 and 4, relative to 1 + |objective| + max|h or v|
VISIT_TOL = 1e-9       # states with a larger marginal must meet the optimality equations
SIM_SIGMAS = 4.0       # criterion 7


def highs_objective(lp: LpProblem) -> tuple[str, float | None]:
    """Independent reference solve of an LpProblem."""
    senses = np.array(lp.row_senses)
    sign = -1.0 if lp.sense == "max" else 1.0
    le, ge, eq = senses == LE, senses == GE, senses == EQ
    A_ub = np.vstack([lp.A[le], -lp.A[ge]])
    b_ub = np.concatenate([lp.b[le], -lp.b[ge]])
    bounds = [(None if np.isneginf(lo) else lo, None) for lo in lp.lower]
    res = linprog(
        sign * lp.c,
        A_ub=A_ub if A_ub.size else None,
        b_ub=b_ub if A_ub.size else None,
        A_eq=lp.A[eq] if eq.any() else None,
        b_eq=lp.b[eq] if eq.any() else None,
        bounds=bounds,
        method="highs",
        # Presolve takes HiGHS ~25 s on the 99%-dense 400-state LPs; the
        # solve itself takes ~2 s without it.
        options={"presolve": False},
    )
    if res.status == 0:
        return "optimal", sign * float(res.fun)
    return {2: "infeasible", 3: "unbounded"}.get(res.status, f"highs status {res.status}"), None


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@lru_cache(maxsize=None)
def solve_reference(instance: str) -> tuple[str, float | None]:
    loaded = jsonio.parse_instance(_load(instance))
    inst = loaded.instance
    if inst.mode == "average":
        lp = build_average_primal(inst, loaded.benchmark, loaded.family)
    else:
        lp = build_discounted_primal(inst, loaded.benchmark)
    return highs_objective(lp)


@lru_cache(maxsize=None)
def alp_reference(instance: str, basis: str, epsilon: float, delta: float, seed: int):
    loaded = jsonio.parse_instance(_load(instance))
    inst, bench = loaded.instance, loaded.benchmark
    spec = _load(basis)
    bases = BasisSet(
        h_bases=np.asarray(spec["h"], dtype=float),
        u_bases=tuple(
            reconstruct_utility([e for e, _ in lam], [w for _, w in lam])
            for lam in spec.get("u_lambdas", [])
        ),
    )
    k = bases.num_h + (1 if inst.mode == "average" else 0) + bases.num_u
    samples = sample_constraints(inst, None, sample_count(epsilon, delta, k), seed, stream=0)
    return highs_objective(build_alp(inst, bench, bases, samples))


def _objective_problems(report: dict, ref: tuple[str, float | None]) -> list[str]:
    status, value = ref
    if report.get("status") != status:
        return [f"status {report.get('status')!r}, reference {status!r}"]
    if value is not None and abs(report["objective"] - value) > OBJECTIVE_TOL * (1 + abs(value)):
        return [f"objective {report['objective']!r}, reference {value!r}"]
    return []


def check_solve(report: dict, op: dict) -> list[str]:
    problems = _objective_problems(report, solve_reference(op["instance"]))
    if problems or report["status"] != "optimal":
        return problems
    obj = report["objective"]
    if abs(obj - report["dual_objective"]) / (1 + abs(obj)) > GAP_TOL:
        problems.append(f"duality gap {report['gap']!r}")
    values = report["h"] if report["mode"] == "average" else report["v"]
    scale = 1 + abs(obj) + max(abs(v) for v in values)
    slack = report["slackness"]
    worst_slack = max(slack["max_dominance"], slack["max_pair"]) / scale
    if worst_slack > RESIDUAL_TOL:
        problems.append(f"scaled slackness residual {worst_slack:.3e}")
    marginal = np.zeros(len(report["optimality_residuals"]))
    for s, _, w in report["x"]:
        marginal[s] += w
    residuals = np.asarray(report["optimality_residuals"])[marginal > VISIT_TOL]
    if residuals.size and residuals.max() / scale > RESIDUAL_TOL:
        problems.append(f"scaled optimality residual {residuals.max() / scale:.3e}")
    return problems


def check_simulate(report: dict, ref: dict) -> list[str]:
    """Criterion 7: each estimate within 4 stderr + truncation bound + 1e-6 of its LP row."""
    estimates = report.get("estimates", [])
    if [e["eta"] for e in estimates] != ref["etas"]:
        return ["estimate grid differs from the benchmark support"]
    problems = []
    for est, row in zip(estimates, ref["lp_rows"]):
        allowed = SIM_SIGMAS * est["stderr"] + est["truncation_bound"] + 1e-6
        if abs(est["estimate"] - row) > allowed:
            problems.append(f"eta {est['eta']!r}: estimate {est['estimate']!r}, LP row {row!r}")
    return problems


def check_alp(report: dict, op: dict) -> list[str]:
    argv = op["argv"]
    ref = alp_reference(
        op["instance"],
        op["basis"],
        float(argv[argv.index("--epsilon") + 1]),
        float(argv[argv.index("--delta") + 1]),
        op["seed"],
    )
    return _objective_problems(report, ref)


def check(op: dict, report: dict, refs: dict) -> list[str]:
    if op["kind"] == "solve":
        return check_solve(report, op)
    if op["kind"] == "simulate":
        return check_simulate(report, refs[op["id"]])
    return check_alp(report, op)
