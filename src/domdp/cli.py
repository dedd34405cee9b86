"""Command-line entry point: solve, simulate, check-dominance, alp, gen-portfolio, oracle.

Exit codes: 0 success/optimal, 1 input error (also a malformed input file), 2
infeasible (certificate in the report; also a failed dominance check or an
empty oracle), 3 unbounded, 4 numerical failure (singular matrix, duality-gap
or residual guard, iteration cap).
Reports go to --out when given, otherwise to standard output. All randomness
flows from --seed (default 0); identical inputs produce byte-identical
reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import io as jsonio
from .alp import solve_alp
from .average import solve_average
from .discounted import solve_discounted
from .dominance import (
    _expected_kink,
    benchmark_curve,
    check_icv,
    check_icx,
    shortfall_minus,
)
from .lp import FEAS_TOL
from .mdp import AVERAGE, Benchmark, validate_instance
from .portfolio import build_portfolio_instance
from .simulate import (
    brute_force_best_feasible,
    burn_in,
    estimate_average_shortfalls,
    estimate_discounted_shortfalls,
    simulate,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_UNBOUNDED = 3
EXIT_NUMERICAL = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad usage, not argparse's default 2
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_INPUT)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The domdp argument parser, built on first use and shared by every
    later call in the process (parsing does not change it)."""
    parser = _Parser(prog="domdp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a dominance-constrained instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--out")
    p.add_argument("--tol", type=float, default=FEAS_TOL, help="LP feasibility tolerance")
    p.add_argument(
        "--rescale-benchmark",
        action="store_true",
        help="multiply benchmark support by 1/(1-discount) before solving (discounted only)",
    )

    p = sub.add_parser("simulate", help="Monte Carlo shortfall estimates for a policy")
    p.add_argument("--instance", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--paths", type=int, default=20)
    p.add_argument("--horizon", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", help="comma-separated etas; default benchmark support")
    p.add_argument("--out")

    p = sub.add_parser("check-dominance", help="compare two finite distributions")
    p.add_argument("--x", required=True, dest="x_file")
    p.add_argument("--benchmark", required=True)
    p.add_argument("--order", choices=["icv", "icx"], default="icv")
    p.add_argument("--out")

    p = sub.add_parser("alp", help="sampled approximate linear program")
    p.add_argument("--instance", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--basis", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("gen-portfolio", help="generate a discretized portfolio instance")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("oracle", help="brute-force best feasible deterministic policy")
    p.add_argument("--instance", required=True)
    p.add_argument("--out")
    return parser


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return jsonio.loads(fh.read())
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError (nesting past the recursion limit) is a RuntimeError,
        # which run() would otherwise report as a numerical failure.
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _emit(obj: dict, out: str | None) -> None:
    text = jsonio.dumps(obj)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _require_benchmark(loaded) -> Benchmark:
    if loaded.benchmark is None:
        raise ValueError("instance file has no benchmark")
    return loaded.benchmark


def _cmd_solve(args) -> int:
    if not 0.0 < args.tol < np.inf:
        raise ValueError(f"--tol must be positive and finite, got {args.tol!r}")
    loaded = jsonio.parse_instance(_load_json(args.instance))
    inst = loaded.instance
    bench = _require_benchmark(loaded)
    if args.rescale_benchmark:
        if inst.mode == AVERAGE:
            raise ValueError("--rescale-benchmark applies to discounted instances only")
        if loaded.family is not None:
            # The family's benchmark values were fixed from the unscaled benchmark.
            raise ValueError("--rescale-benchmark cannot rescale a generator family")
        bench = Benchmark(support=bench.support / (1.0 - inst.discount), probs=bench.probs)
    solve = solve_average if inst.mode == AVERAGE else solve_discounted
    report = solve(inst, bench, family=loaded.family, feas_tol=args.tol)
    obj = report.to_obj()
    if args.rescale_benchmark:
        obj["benchmark_rescaled"] = True
    if (
        report.status == "optimal"
        and loaded.extra_grid is not None
        and loaded.family is None
    ):
        # Diagnostic margins on the user grid; the LP rows use supp Y only.
        grid = np.unique(np.concatenate([bench.support, loaded.extra_grid]))
        x = report.occupation.weights
        margins = _expected_kink(inst.reward_z, x, shortfall_minus, grid)
        margins -= benchmark_curve(bench, grid)
        obj["extra_grid_margins"] = np.column_stack([grid, margins])
    _emit(obj, args.out)
    if report.status == "infeasible":
        return EXIT_INFEASIBLE
    if report.status == "unbounded":
        return EXIT_UNBOUNDED
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.paths < 1 or args.horizon < 1:
        raise ValueError("--paths and --horizon must be at least 1")
    loaded = jsonio.parse_instance(_load_json(args.instance))
    inst = loaded.instance
    if inst.reward_z.ndim != 1:
        raise ValueError("shortfall estimation requires scalar z")
    policy = jsonio.parse_policy(_load_json(args.policy), inst)
    if args.grid:
        grid = np.array([float(v) for v in args.grid.split(",")])
        if not np.all(np.isfinite(grid)):
            raise ValueError("--grid values must be finite")
    elif loaded.benchmark is not None:
        grid = loaded.benchmark.support
    else:
        raise ValueError("no --grid given and the instance has no benchmark")
    if inst.initial is not None:
        nu = inst.initial
    else:
        nu = np.full(inst.num_states, 1.0 / inst.num_states)
    trajs = simulate(inst, policy, nu, T=args.horizon, num_paths=args.paths, seed=args.seed)
    if inst.mode == AVERAGE:
        ests = estimate_average_shortfalls(trajs, grid)
        burn = burn_in(args.horizon)
    else:
        ests = estimate_discounted_shortfalls(trajs, grid)
        burn = 0
    out = {
        "mode": inst.mode,
        "paths": args.paths,
        "horizon": args.horizon,
        "burn_in": burn,
        "seed": args.seed,
        "estimates": [
            {
                "eta": e.eta,
                "estimate": e.estimate,
                "stderr": e.stderr,
                "truncation_bound": e.truncation_bound,
            }
            for e in ests
        ],
    }
    _emit(out, args.out)
    return EXIT_OK


def _cmd_check_dominance(args) -> int:
    values, probs = jsonio.parse_distribution(_load_json(args.x_file))
    bench = jsonio.parse_benchmark(_load_json(args.benchmark))
    check = check_icv(values, probs, bench) if args.order == "icv" else check_icx(
        values, probs, bench
    )
    out = {
        "order": args.order,
        "satisfied": check.satisfied,
        "worst_eta": check.worst_eta,
        "margin": check.margin,
        "margins": np.column_stack([check.etas, check.margins]),
    }
    _emit(out, args.out)
    return EXIT_OK if check.satisfied else EXIT_INFEASIBLE


def _cmd_alp(args) -> int:
    loaded = jsonio.parse_instance(_load_json(args.instance))
    inst = loaded.instance
    bench = _require_benchmark(loaded)
    bases = jsonio.parse_basis(_load_json(args.basis))
    report = solve_alp(inst, bench, bases, epsilon=args.epsilon, delta=args.delta, seed=args.seed)
    _emit(report.to_obj(), args.out)
    if report.status == "infeasible":
        return EXIT_INFEASIBLE
    if report.status == "unbounded":
        return EXIT_UNBOUNDED
    return EXIT_OK


def _cmd_gen_portfolio(args) -> int:
    cfg = jsonio.parse_portfolio_config(_load_json(args.config))
    inst = build_portfolio_instance(cfg)
    violations = validate_instance(inst)
    _emit(jsonio.instance_to_obj(inst, cfg.benchmark), args.out)
    _emit(
        {
            "out": args.out,
            "base_states": cfg.base_state_count,
            "states": inst.num_states,
            "pairs": inst.num_pairs,
            "violations": len(violations),
        },
        None,
    )
    return EXIT_OK if not violations else EXIT_INPUT


def _cmd_oracle(args) -> int:
    loaded = jsonio.parse_instance(_load_json(args.instance))
    inst = loaded.instance
    bench = _require_benchmark(loaded)
    result = brute_force_best_feasible(inst, bench)
    if result is None:
        _emit({"feasible": False}, args.out)
        return EXIT_INFEASIBLE
    out = {
        "feasible": True,
        "value": result.value,
        "policy": list(enumerate(result.policy.rows)),
        "shortfalls": np.column_stack([bench.support, result.shortfalls]),
        "feasible_policies": result.feasible_count,
        "skipped_multichain": result.skipped_multichain,
    }
    _emit(out, args.out)
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "check-dominance": _cmd_check_dominance,
    "alp": _cmd_alp,
    "gen-portfolio": _cmd_gen_portfolio,
    "oracle": _cmd_oracle,
}


def run(argv: list[str]) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (np.linalg.LinAlgError, ArithmeticError, RuntimeError) as exc:
        # LinAlgError subclasses ValueError, so it must be caught first.
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run(sys.argv[1:]))
