"""Runs one workload's operations through ``domdp.cli.run`` in one process.

One closed loop, one operation at a time: the next operation starts when the
previous one has returned. After one untimed warm-up operation the worker
repeats passes over the plan's fixed operation list until ``--seconds`` have
elapsed and at least ``MIN_PASSES`` passes are done. The reference loop
(``perfbench/reference.py``) runs between operations, so every operation has
a reference time right before and right after it. With ``--trace 1`` the
worker alternates untraced and traced passes, so the tracing overhead can be
read off the two kinds of pass.

    python3 perfbench/worker.py --work DIR --seconds 18 --trace 0

Writes ``DIR/timings.json`` (per-operation times, exit codes and the
reference times around them, which passes were traced, peak resident set
over the warm-up and the first pass) and, when tracing,
``DIR/spans.json`` (the spans of each traced pass, keyed by pass number).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from domdp import cli

from reference import ReferenceLoop
from tracing import Tracer, instrument

MIN_PASSES = 2


def run_op(op: dict, out: Path, tracer: Tracer | None) -> tuple[float, int | None, str | None]:
    """(seconds, exit code, error) of one CLI operation; a raise is a failed operation."""
    argv = [str(out) if a == "{out}" else a for a in op["argv"]]
    rec = tracer.begin("cli.run") if tracer else None
    start = perf_counter()
    try:
        code, error = cli.run(argv), None
    except Exception:  # noqa: BLE001 - recorded and counted as a failed operation
        code, error = None, traceback.format_exc(limit=3)
    end = perf_counter()
    if rec is not None:  # a traced operation's time is its root span
        tracer.end(rec)
        start, end = rec[1], rec[2]
    return end - start, code, error


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    plan = json.loads((args.work / "plan.json").read_text(encoding="utf-8"))
    ops = plan["ops"]
    outdir = args.work / "out"
    outdir.mkdir(exist_ok=True)
    ref_loop = ReferenceLoop()
    run_op(ops[0], outdir / "warmup.json", None)  # untimed warm-ups
    ref_loop.parts()

    tracer = Tracer() if args.trace else None
    records, passes, spans = [], [], {}
    start = perf_counter()
    ref = ref_loop.parts()
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        restore = instrument(tracer) if traced else None
        for op in ops:
            out = outdir / f"p{k:03d}-{op['id']}.json"
            if traced:
                tracer.op = f"p{k}/{op['id']}"
            seconds, code, error = run_op(op, out, tracer if traced else None)
            ref_before, ref = ref, ref_loop.parts()
            records.append(
                {"pass": k, "op": op["id"], "seconds": seconds, "exit": code,
                 "error": error, "out": str(out), "ref_before": ref_before, "ref_after": ref}
            )
        passes.append({"pass": k, "traced": traced})
        if k == 0:
            # Later passes can only add allocator fragmentation, and how many
            # of them fit depends on machine speed, so the peak is read here,
            # less the reference loop's arrays.
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            peak_rss_kib = rss_kib - ref_loop.footprint_bytes // 1024
        if restore:
            restore()
            spans[k] = tracer.take()
        k += 1
        done = perf_counter() - start >= args.seconds and k >= MIN_PASSES
        if done and (not args.trace or k % 2 == 0):
            break

    result = {
        "records": records,
        "passes": passes,
        "peak_rss_kib": peak_rss_kib,
    }
    (args.work / "timings.json").write_text(json.dumps(result), encoding="utf-8")
    if tracer is not None:
        (args.work / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
