"""Seeded inputs and operation lists for the four benchmark workloads.

Run as a script, this is one set-up repetition: it imports ``domdp``,
generates the workload's inputs from the seed, writes them into the work
directory together with ``plan.json`` (the operations the worker times) and
``refs.json`` (what the output checks need), and writes the elapsed time to
``--report``. Interpreter start-up is excluded; the import of ``domdp`` is
included.

    python3 perfbench/workloads.py --workload dense-average --seed 0 \
        --dir WORK --report WORK/setup-0.json [--scale tiny] [--trace 1]

The program under test only ever receives the generated files.
"""

from __future__ import annotations

import time

SETUP_CLOCK_START = time.perf_counter()  # before domdp is imported

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from domdp import cli  # noqa: E402
from domdp import io as jsonio  # noqa: E402
from domdp.average import solve_average  # noqa: E402
from domdp.discounted import solve_discounted  # noqa: E402
from domdp.mdp import Benchmark, MdpInstance  # noqa: E402

# Sizes per scale. "full" is the benchmark; "tiny" only exercises every code
# path quickly for the smoke test.
SIZES = {
    "full": {
        "dense_states": (100, 200, 400),
        "dense_actions": 5,
        "portfolio_resolutions": (2, 3),
        "sim_average": 3,
        "sim_dense_states": 100,
        "sim_discounted": 2,
        "alp_ops": 40,
    },
    "tiny": {
        "dense_states": (6, 9),
        "dense_actions": 3,
        "portfolio_resolutions": (2,),
        "sim_average": 1,
        "sim_dense_states": 10,
        "sim_discounted": 1,
        "alp_ops": 3,
    },
}

DENSE_SUPPORT_POINTS = 4
# Support quantiles between min z and the smallest per-state best z: the
# z-greedy policy keeps every z above the top point (feasible), while the
# reward-greedy policy often lands below the bottom point (a binding row).
DENSE_SUPPORT_QUANTILES = (0.55, 0.7, 0.85, 1.0)

# A fixed 3-asset configuration: with the benchmark {-0.4, 0} the eta = 0 row
# binds at resolutions 2 and 3 (lambda about 5.9 and 4.3). It does not depend
# on the seed: price chains drawn from the seed made resolution 3 exit 1 with
# "Singular matrix" (seed 2), the numerical failure of ROADMAP item 4.
PORTFOLIO_LEVELS = ((1.0, 1.2), (1.0, 0.8), (1.0, 1.1))
PORTFOLIO_CHAIN = ((0.7, 0.3), (0.4, 0.6))
PORTFOLIO_DISCOUNT = 0.9
PORTFOLIO_BENCHMARK = {"support": [-0.4, 0.0], "probs": [0.5, 0.5]}

# Criterion 7 of the acceptance suite: its instance streams and simulation
# seeds. Each run simulates a window of them chosen by the workload seed.
C7_AVERAGE_RNG, C7_AVERAGE_COUNT, C7_AVERAGE_SEED0 = 2468, 20, 1000
C7_DISCOUNTED_RNG, C7_DISCOUNTED_COUNT, C7_DISCOUNTED_SEED0 = 1357, 5, 500
# The simulator's cost grows with S; one fixed 100-state dense instance puts
# an input on the large side of any S-dependent dispatch.
SIM_DENSE_RNG = (0, 3)
SIM_PATHS_AVERAGE, SIM_HORIZON_AVERAGE = 20, 100_000
SIM_PATHS_DISCOUNTED = 200

ALP_INSTANCE_SEED = 123456
ALP_STATES, ALP_ACTIONS = 50, 3
ALP_EPSILON, ALP_DELTA = 0.25, 0.1
ALP_BENCHMARK = {"support": [-0.5, 0.0], "probs": [0.5, 0.5]}


def _write(path: Path, obj) -> None:
    path.write_text(jsonio.dumps(obj) + "\n", encoding="utf-8")


# ---------------------------------------------------------------- instances


def dense_instance(rng, S: int, A: int):
    """Dirichlet(0.4) kernel rows mixed with 0.001/S: every entry positive."""
    K = S * A
    kernel = 0.999 * rng.dirichlet(np.full(S, 0.4), size=K) + 0.001 / S
    inst = MdpInstance(
        num_states=S,
        actions=tuple(tuple(f"a{i}" for i in range(A)) for _ in range(S)),
        kernel=kernel,
        reward_r=rng.normal(size=K),
        reward_z=rng.uniform(-2.0, 2.0, size=K),
        mode="average",
    )
    z = inst.reward_z.reshape(S, A)
    lo, top = float(z.min()), float(z.max(axis=1).min())
    support = lo + (top - lo) * np.array(DENSE_SUPPORT_QUANTILES)
    bench = Benchmark(support=support, probs=rng.dirichlet(np.ones(DENSE_SUPPORT_POINTS)))
    return inst, bench


def criterion7_instance(rng, max_states: int, max_actions: int, mode: str):
    """One draw of the acceptance suite's random family (its ``feasible_pair``).

    Positive kernels; a benchmark drawn inside the z range, shifted below it
    when the LP is infeasible, which always restores feasibility. The draws
    are made in the suite's order, so a stream reproduces its instances.
    Returns (instance, benchmark, report).
    """
    S = int(rng.integers(2, max_states + 1))
    counts = rng.integers(1, max_actions + 1, size=S)
    K = int(counts.sum())
    kernel = 0.999 * rng.dirichlet(np.full(S, 0.4), size=K) + 0.001 / S
    r = rng.normal(size=K)
    z = rng.uniform(-2.0, 2.0, size=K)
    discounted = mode == "discounted"
    initial = rng.dirichlet(np.ones(S)) if discounted else None
    discount = float(rng.uniform(0.5, 0.95)) if discounted else None
    inst = MdpInstance(
        num_states=S,
        actions=tuple(tuple(f"a{i}" for i in range(c)) for c in counts),
        kernel=kernel,
        reward_r=r,
        reward_z=z,
        mode=mode,
        discount=discount,
        initial=initial,
    )
    q = int(rng.integers(1, 6))
    zmin, zmax = float(z.min()), float(z.max())
    span = max(zmax - zmin, 0.5)
    pts = np.unique(np.round(np.sort(rng.uniform(zmin - 0.25 * span, zmax, size=q)), 6))
    scale = 1.0 / (1.0 - discount) if discounted else 1.0
    bench = Benchmark(support=pts * scale, probs=rng.dirichlet(np.ones(pts.size)))
    solver = solve_discounted if discounted else solve_average
    report = solver(inst, bench)
    if report.status != "optimal":
        shift = (zmax - zmin + 1.0) * scale
        bench = Benchmark(support=bench.support - shift, probs=bench.probs)
        report = solver(inst, bench)
    return inst, bench, report


def portfolio_config(resolution: int) -> dict:
    """Config for ``gen-portfolio``."""
    return {
        "price_levels": [list(lv) for lv in PORTFOLIO_LEVELS],
        "price_transitions": [[list(row) for row in PORTFOLIO_CHAIN]] * len(PORTFOLIO_LEVELS),
        "resolution": resolution,
        "discount": PORTFOLIO_DISCOUNT,
        "benchmark": PORTFOLIO_BENCHMARK,
    }


def alp_instance():
    """The fixed 50-state x 3-action ALP instance of the acceptance suite."""
    rng = np.random.default_rng(ALP_INSTANCE_SEED)
    S, A = ALP_STATES, ALP_ACTIONS
    K = S * A
    kernel = 0.999 * rng.dirichlet(np.full(S, 0.2), size=K) + 0.001 / S
    return MdpInstance(
        num_states=S,
        actions=tuple(tuple(f"a{i}" for i in range(A)) for _ in range(S)),
        kernel=kernel,
        reward_r=-rng.uniform(0.0, 1.0, size=K),
        reward_z=rng.uniform(-1.0, 1.0, size=K),
        mode="average",
    )


def alp_basis(num_states: int) -> dict:
    """Five block-aggregation h bases plus one kink at the benchmark median."""
    H = np.zeros((5, num_states))
    for j in range(5):
        H[j, j * num_states // 5 : (j + 1) * num_states // 5] = 1.0
    kink = float(np.median(ALP_BENCHMARK["support"]))
    return {"h": H.tolist(), "u_lambdas": [[[kink, 1.0]]]}


# ------------------------------------------------------------------- set-up


def _solve_op(name: str, instance: Path) -> dict:
    return {
        "id": name,
        "kind": "solve",
        "argv": ["solve", "--instance", str(instance), "--out", "{out}"],
        "instance": str(instance),
    }


def setup(workload: str, seed: int, work: Path, scale: str) -> None:
    """Generate and write the workload's inputs, ``plan.json`` and ``refs.json``."""
    sizes = SIZES[scale]
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    ops: list[dict] = []
    refs: dict = {}

    if workload == "dense-average":
        rng = np.random.default_rng([seed, 1])
        for i, S in enumerate(sizes["dense_states"]):
            inst, bench = dense_instance(rng, S, sizes["dense_actions"])
            path = inputs / f"dense-{i}-{S}.json"
            _write(path, jsonio.instance_to_obj(inst, bench))
            ops.append(_solve_op(f"solve-dense-{i}-{S}", path))

    elif workload == "portfolio-discounted":
        for res in sizes["portfolio_resolutions"]:
            cfg_path = inputs / f"portfolio-r{res}.config.json"
            _write(cfg_path, portfolio_config(res))
            path = inputs / f"portfolio-r{res}.json"
            rc = cli.run(["gen-portfolio", "--config", str(cfg_path), "--out", str(path)])
            if rc != 0:
                raise RuntimeError(f"gen-portfolio exited {rc} at resolution {res}")
            ops.append(_solve_op(f"solve-portfolio-r{res}", path))

    elif workload == "simulate":
        cases = []
        families = (
            ("avg", C7_AVERAGE_RNG, C7_AVERAGE_COUNT, C7_AVERAGE_SEED0,
             sizes["sim_average"], (8, 4, "average")),
            ("disc", C7_DISCOUNTED_RNG, C7_DISCOUNTED_COUNT, C7_DISCOUNTED_SEED0,
             sizes["sim_discounted"], (6, 3, "discounted")),
        )
        for tag, stream, count, seed0, take, shape in families:
            rng = np.random.default_rng(stream)
            drawn = [criterion7_instance(rng, *shape) for _ in range(count)]
            for j in range(take):
                i = (take * seed + j) % count
                cases.append((f"{tag}{i}", *drawn[i], seed0 + i))
        rng = np.random.default_rng(SIM_DENSE_RNG)
        inst, bench = dense_instance(rng, sizes["sim_dense_states"], 5)
        cases.append((f"dense{inst.num_states}", inst, bench, solve_average(inst, bench), 0))
        for name, inst, bench, rep, sim_seed in cases:
            if rep.status != "optimal":
                raise RuntimeError(f"policy solve for {name} returned {rep.status}")
            ipath = inputs / f"sim-{name}.json"
            ppath = inputs / f"sim-{name}.policy.json"
            _write(ipath, jsonio.instance_to_obj(inst, bench))
            _write(ppath, [[s, [float(p) for p in row]] for s, row in enumerate(rep.policy.rows)])
            if inst.mode == "average":
                paths, horizon = SIM_PATHS_AVERAGE, SIM_HORIZON_AVERAGE
            else:
                paths = SIM_PATHS_DISCOUNTED
                horizon = max(math.ceil(math.log(1e-7) / math.log(inst.discount)), 50)
            op_id = f"simulate-{name}"
            ops.append(
                {
                    "id": op_id,
                    "kind": "simulate",
                    "argv": [
                        "simulate", "--instance", str(ipath), "--policy", str(ppath),
                        "--paths", str(paths), "--horizon", str(horizon),
                        "--seed", str(sim_seed), "--out", "{out}",
                    ],
                    "instance": str(ipath),
                    "path_steps": paths * horizon,
                }
            )
            rows = rep.dominance_matrix @ rep.occupation.weights
            refs[op_id] = {"etas": [float(e) for e in bench.support], "lp_rows": rows.tolist()}

    elif workload == "alp-sampled":
        inst = alp_instance()
        ipath = inputs / "alp-50.json"
        bpath = inputs / "alp-50.basis.json"
        _write(ipath, jsonio.instance_to_obj(inst, Benchmark(**ALP_BENCHMARK)))
        _write(bpath, alp_basis(inst.num_states))
        for i in range(sizes["alp_ops"]):
            op_seed = 1000 * seed + i
            ops.append(
                {
                    "id": f"alp-seed{op_seed}",
                    "kind": "alp",
                    "argv": [
                        "alp", "--instance", str(ipath), "--basis", str(bpath),
                        "--epsilon", str(ALP_EPSILON), "--delta", str(ALP_DELTA),
                        "--seed", str(op_seed), "--out", "{out}",
                    ],
                    "instance": str(ipath),
                    "basis": str(bpath),
                    "seed": op_seed,
                }
            )
    else:
        raise ValueError(f"unknown workload {workload!r}")

    plan = {"workload": workload, "seed": seed, "scale": scale, "ops": ops}
    (work / "plan.json").write_text(json.dumps(plan, indent=1), encoding="utf-8")
    (work / "refs.json").write_text(json.dumps(refs), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--scale", choices=tuple(SIZES), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", required=True, type=Path)
    args = parser.parse_args(argv)

    layers = {}
    if args.trace:
        from tracing import Tracer, instrument, pass_metrics

        tracer = Tracer()
        restore = instrument(tracer)
        setup(args.workload, args.seed, args.dir, args.scale)
        restore()
        layers = {k: v for k, v in pass_metrics(tracer.spans).items() if k.startswith("portfolio.")}
    else:
        setup(args.workload, args.seed, args.dir, args.scale)
    elapsed = time.perf_counter() - SETUP_CLOCK_START
    args.report.write_text(json.dumps({"setup_s": elapsed, "layers": layers}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
