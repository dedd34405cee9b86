"""Seeded benchmark of the domdp CLI: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload dense-average --seed 0 --seconds 18 --trace 0

Run from the root of a source checkout (it needs ``src/domdp``). One run:

1. set-up, repeated ``SETUP_REPS`` times in fresh processes: import domdp,
   generate the workload's inputs from ``--seed`` and write them under
   ``.perfbench_work/`` (``setup_s`` is the median);
2. one worker process times passes over the workload's fixed operation list
   through ``domdp.cli.run`` for ``--seconds`` (``perfbench/worker.py``);
3. every operation's output is checked (``perfbench/checks.py``) and its
   report hashed, outside the timed region.

Operation times are normalised to the host's speed: a fixed reference loop
(``perfbench/reference.py``) runs right before and right after each
operation, and an operation's time ``t`` counts as
``t * REF_SECONDS / (mean of the two loop times)``. On the shared host the
bounds were set on, the quartiles of ten runs' raw times lie 10-30% of the
median apart, of normalised ones 1-15%. Raw times are in the detail line as
``raw_*``; set-up time is raw.

End-to-end metrics: ``setup_s`` (median set-up), ``wall_s`` (one pass: the
sum over the operations of each one's median time), ``op_p50_s`` (the
median over the operations of each one's median time) and ``peak_rss_mb``
(the worker's peak resident set over the warm-up and the first pass, less
the reference loop's arrays). Operation times come from the untraced passes
only.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (``perfbench/tracing.py``) with
``--trace 1``. The line before it, and ``result.json`` in the run's
directory under ``.perfbench_work/``, hold the details: per-operation times
and report sha256, the tail percentile, the failed fraction, path steps per
second and the environment.

Workloads (why each exists is recorded in BENCHMARK.json):
``dense-average``, ``portfolio-discounted``, ``simulate``, ``alp-sampled``.
Claims are made on ``DEFAULT_SEED`` and re-checked on ``HELD_OUT_SEED``,
which is not used while a change is developed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("dense-average", "portfolio-discounted", "simulate", "alp-sampled")
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919
SETUP_REPS = 3
RUN_BUDGET_S = 170  # the whole run, set-up and checks included
# One BLAS thread: the load stays within nproc, and timings on a shared
# machine do not depend on how many cores happen to be idle.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MiB"}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def tail_percentile(times: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with >= 10 samples above it.

    Nearest-rank on the sorted times, so p90 at n = 100. None when n < 20.
    """
    n = len(times)
    if n < 20:
        return None
    ordered = sorted(times)
    rank = n - 10  # ten samples lie strictly above this 1-based rank
    return 100.0 * rank / n, ordered[rank - 1]


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
    }


def _child(args: list[str], log: Path, deadline: float) -> None:
    """Run one benchmark script to completion; subprocess.run kills it at the deadline."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    with open(log, "a", encoding="utf-8") as fh:
        proc = subprocess.run(
            [sys.executable, *args],
            stdout=fh,
            stderr=subprocess.STDOUT,
            env=env,
            timeout=max(deadline - time.monotonic(), 1.0),
            check=False,
        )
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(args[0]).name} exited {proc.returncode}; see {log}")


def _check(op: dict, out: str, refs: dict) -> tuple[str | None, list[str]]:
    """(sha256 of the report, problems); an unreadable report is a problem."""
    import checks

    try:
        data = Path(out).read_bytes()
        return hashlib.sha256(data).hexdigest(), checks.check(op, json.loads(data), refs)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return None, [f"unreadable report: {exc!r}"]


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    work = ROOT / ".perfbench_work" / f"{workload}-{scale}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "log.txt"

    setups = []
    for rep in range(SETUP_REPS):
        report = work / f"setup-{rep}.json"
        _child(
            [str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed),
             "--dir", str(work), "--scale", scale, "--trace", str(int(trace)),
             "--report", str(report)],
            log,
            deadline,
        )
        setups.append(json.loads(report.read_text(encoding="utf-8")))
    _child(
        [str(HERE / "worker.py"), "--work", str(work), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        log,
        deadline,
    )

    # Only now, so the parent's imports overlap no timed work.
    import tracing
    from reference import REF_SECONDS, normalised

    plan = json.loads((work / "plan.json").read_text(encoding="utf-8"))
    refs = json.loads((work / "refs.json").read_text(encoding="utf-8"))
    timings = json.loads((work / "timings.json").read_text(encoding="utf-8"))
    ops = {op["id"]: op for op in plan["ops"]}

    failed = 0
    for rec in timings["records"]:
        rec["norm_s"] = normalised(rec["seconds"], rec["ref_before"], rec["ref_after"])
        if rec["error"] is not None:
            rec["problems"] = [rec["error"]]
        elif rec["exit"] != 0:
            rec["problems"] = [f"exit code {rec['exit']}"]
        else:
            rec["sha256"], rec["problems"] = _check(ops[rec["op"]], rec["out"], refs)
        failed += bool(rec["problems"])
    attempted = len(timings["records"])

    untraced_ids = {p["pass"] for p in timings["passes"] if not p["traced"]}
    untraced = [r for r in timings["records"] if r["pass"] in untraced_ids]
    op_times = [r["norm_s"] for r in untraced]

    def op_medians(key: str, records: list[dict]) -> list[float]:
        per_op: dict[str, list[float]] = {}
        for r in records:
            per_op.setdefault(r["op"], []).append(r[key])
        return [statistics.median(v) for v in per_op.values()]

    wall = sum(op_medians("norm_s", untraced))
    refs_s = [sum(r["ref_before"]) for r in timings["records"]]
    detail = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "passes": len(timings["passes"]),
        "ops_per_pass": len(plan["ops"]),
        "op_samples": len(op_times),
        "failed_frac": failed / attempted,
        "environment": environment(),
        "setup_s_reps": [s["setup_s"] for s in setups],
        "raw_wall_s": sum(op_medians("seconds", untraced)),
        "raw_op_p50_s": statistics.median(op_medians("seconds", untraced)),
        "reference_s": {"median": statistics.median(refs_s), "min": min(refs_s),
                        "max": max(refs_s), "nominal": REF_SECONDS},
    }
    tail = tail_percentile(op_times)
    if tail is not None:
        detail["op_tail_s"] = {"percentile": tail[0], "value": tail[1], "n": len(op_times)}
    sims = [r for r in untraced if ops[r["op"]]["kind"] == "simulate"]
    if sims:
        detail["path_steps_per_s"] = (
            sum(ops[r["op"]]["path_steps"] for r in sims) / sum(r["norm_s"] for r in sims)
        )
    hashes: dict[str, set] = {}
    for r in timings["records"]:
        hashes.setdefault(r["op"], set()).add(r.get("sha256"))
    detail["report_sha256"] = {op: sorted(h for h in hs if h) for op, hs in hashes.items()}

    if trace:
        spans = json.loads((work / "spans.json").read_text(encoding="utf-8"))
        per_pass = [tracing.pass_metrics(s) for s in spans.values()]
        per_setup = [s["layers"] for s in setups]
        names = [n for n in tracing.UNITS if n != "trace.overhead_s"]
        values = tracing.median_metrics(per_pass, names)
        for name in ("portfolio.generate_s", "portfolio.states", "portfolio.pairs"):
            values[name] = tracing.median_metrics(per_setup, [name])[name]
        traced = [r for r in timings["records"] if r["pass"] not in untraced_ids]
        traced_wall = sum(op_medians("norm_s", traced))
        values["trace.overhead_s"] = traced_wall - wall
        metrics = {n: {"value": v, "unit": tracing.UNITS[n]} for n, v in values.items()}
        detail["traced_wall_s"] = traced_wall
        detail["untraced_wall_s"] = wall
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": wall,
            "op_p50_s": statistics.median(op_medians("norm_s", untraced)),
            "peak_rss_mb": timings["peak_rss_kib"] / 1024.0,
        }
        metrics = {n: {"value": v, "unit": E2E_UNITS[n]} for n, v in values.items()}

    detail["operations"] = timings["records"]
    (work / "result.json").write_text(json.dumps({"detail": detail, "metrics": metrics}, indent=1))
    if not failed:  # keep the bulky inputs and reports only when they explain a failure
        shutil.rmtree(work / "inputs")
        shutil.rmtree(work / "out")
    summary = {k: v for k, v in detail.items() if k != "operations"}
    summary["failures"] = [
        {"pass": r["pass"], "op": r["op"], "problems": r["problems"]}
        for r in timings["records"]
        if r["problems"]
    ]
    return {
        "summary": summary,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: minimal sizes for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "domdp" / "__init__.py").is_file():
        print(f"error: no domdp sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out["summary"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
