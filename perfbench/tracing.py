"""Spans around the calls into each ``domdp`` layer, taken from outside.

``instrument`` replaces the module attributes the pipeline actually calls
(for example ``domdp.cli.solve_average`` or ``domdp.lp.to_standard_form``)
with wrappers that record a span: name, start, end, parent span and
operation id. Spans stay in memory until the worker writes them out.
``pass_metrics`` turns the spans of one traced pass into the per-layer
metrics; a span's self time is its duration minus its children's.

Times are per pass. Counts are per pass too, except ``lp.rows``,
``lp.cols``, ``lp.nnz_frac`` (the pass's largest LP) and ``lp.dense_bytes``
(the largest simplex working set). ``alp.samples`` counts the pairs drawn
for both the training and the test sample.

Counts that need work of their own (matrix nonzeros, file sizes) are taken
after the wrapped call returns, inside a child span named ``trace``, so the
layer's self time excludes them and they show up as tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
from time import perf_counter

import numpy as np

# Span name -> (metric name for inclusive time, metric name for self time).
TIMED = {
    "cli.run": (None, "cli.self_s"),
    "io.read": ("io.read_s", None),
    "io.parse": ("io.parse_s", None),
    "io.emit": ("io.emit_s", None),
    "results.to_obj": ("results.to_obj_s", None),
    "lp.solve": ("lp.solve_s", "lp.simplex_s"),
    "lp.standard_form": ("lp.standard_form_s", None),
    "mdp.validate": ("mdp.validate_s", None),
    "mdp.policy_kernel": ("mdp.policy_kernel_s", None),
    "mdp.recurrent_classes": ("mdp.recurrent_classes_s", None),
    "dominance": ("dominance.s", None),
    "average.solve": ("average.solve_s", "average.self_s"),
    "average.build": ("average.build_s", None),
    "average.verify": ("average.verify_s", None),
    "average.extract_policy": ("average.extract_policy_s", None),
    "discounted.solve": ("discounted.solve_s", "discounted.self_s"),
    "discounted.build": ("discounted.build_s", None),
    "discounted.verify": ("discounted.verify_s", None),
    "simulate.simulate": ("simulate.simulate_s", None),
    "simulate.estimate": ("simulate.estimate_s", None),
    "alp.solve": ("alp.solve_s", "alp.self_s"),
    "alp.sample": ("alp.sample_s", None),
    "alp.build": ("alp.build_s", None),
    "portfolio.generate": ("portfolio.generate_s", None),
}

UNITS = {name: "s" for pair in TIMED.values() for name in pair if name}
UNITS.update(
    {
        "lp.calls": "count",
        "lp.iterations": "count",
        "lp.iter_per_s": "1/s",
        "lp.rows": "count",
        "lp.cols": "count",
        "lp.nnz_frac": "1",
        "lp.dense_bytes": "B",
        "io.in_bytes": "B",
        "io.out_bytes": "B",
        "simulate.path_steps": "count",
        "simulate.path_steps_per_s": "1/s",
        "alp.samples": "count",
        "portfolio.states": "count",
        "portfolio.pairs": "count",
        "trace.overhead_s": "s",
    }
)


class Tracer:
    """In-memory span recorder. Spans are [name, start, end, parent, op, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: str | None = None
        self._stack: list[int] = []

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def begin(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        rec = [name, 0.0, 0.0, parent, self.op, None]
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def end(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(rec)
            if count is not None:
                side = tracer.begin("trace")
                rec[5] = count(args, kwargs, result)
                tracer.end(side)
            return result

        return traced


# ----------------------------------------------------------------- counters


def _lp_counts(args, kwargs, sol):
    A = args[0].A
    return {
        "rows": A.shape[0],
        "cols": A.shape[1],
        "nnz": int(np.count_nonzero(A)),
        "iterations": int(sol.iterations),
    }


def _standard_form_counts(args, kwargs, result):
    """Bytes of the simplex's dense arrays: [A | artificials] plus the m x m inverse.

    A row needs an artificial unless some zero-cost column is a unit vector
    with +1 in that row, the same rule the solver uses to pick its start basis.
    """
    std = result[0]
    A, c = std.A, std.c
    m, n = A.shape
    nz = A != 0
    unit = np.where((nz.sum(axis=0) == 1) & (c == 0.0))[0]
    rows = nz[:, unit].argmax(axis=0)
    covered = np.unique(rows[A[rows, unit] == 1.0])
    artificials = m - covered.size
    return {"dense_bytes": 8 * (m * (n + artificials) + m * m)}


def _file_bytes(args, kwargs, result):
    return {"in_bytes": os.path.getsize(args[0])}


def _text_bytes(args, kwargs, text):
    return {"out_bytes": len(text) + 1}


def _path_steps(args, kwargs, result):
    return {"path_steps": int(kwargs["T"]) * int(kwargs["num_paths"])}


def _samples(args, kwargs, result):
    return {"samples": int(np.size(result))}


def _portfolio_counts(args, kwargs, inst):
    return {"states": inst.num_states, "pairs": inst.num_pairs}


def instrument(tracer: Tracer):
    """Wrap every traced call site; returns a function that restores them."""
    # domdp/__init__.py rebinds the name "simulate" to the function, so the
    # modules are looked up by their full names.
    alp, average, cli, discounted, jsonio, lp, mdp, results, simulate = (
        importlib.import_module(f"domdp.{name}")
        for name in ("alp", "average", "cli", "discounted", "io", "lp", "mdp", "results", "simulate")
    )

    sites = [
        (cli, "_load_json", "io.read", _file_bytes),
        (jsonio, "parse_instance", "io.parse", None),
        (jsonio, "parse_policy", "io.parse", None),
        (jsonio, "dumps", "io.emit", _text_bytes),
        (results.SolveReport, "to_obj", "results.to_obj", None),
        (alp.AlpReport, "to_obj", "results.to_obj", None),
        (cli, "solve_average", "average.solve", None),
        (average, "build_average_primal", "average.build", None),
        (average, "extract_policy", "average.extract_policy", None),
        (average, "check_slackness", "average.verify", None),
        (average, "optimality_residual", "average.verify", None),
        (cli, "solve_discounted", "discounted.solve", None),
        (discounted, "build_discounted_primal", "discounted.build", None),
        (discounted, "check_slackness", "discounted.verify", None),
        (discounted, "bellman_residual", "discounted.verify", None),
        (average, "solve_lp", "lp.solve", _lp_counts),
        (discounted, "solve_lp", "lp.solve", _lp_counts),
        (alp, "solve_lp", "lp.solve", _lp_counts),
        (lp, "to_standard_form", "lp.standard_form", _standard_form_counts),
        (mdp, "validate_instance", "mdp.validate", None),
        (cli, "validate_instance", "mdp.validate", None),
        (average, "policy_kernel", "mdp.policy_kernel", None),
        (discounted, "policy_kernel", "mdp.policy_kernel", None),
        (average, "recurrent_classes", "mdp.recurrent_classes", None),
        (discounted, "recurrent_classes", "mdp.recurrent_classes", None),
        (cli, "simulate", "simulate.simulate", _path_steps),
        (cli, "estimate_average_shortfalls", "simulate.estimate", None),
        (cli, "estimate_discounted_shortfalls", "simulate.estimate", None),
        (cli, "solve_alp", "alp.solve", None),
        (alp, "sample_constraints", "alp.sample", _samples),
        (alp, "build_alp", "alp.build", None),
        (cli, "build_portfolio_instance", "portfolio.generate", _portfolio_counts),
    ]
    for module in (average, discounted, simulate, cli):
        for attr in ("shortfall_minus", "benchmark_curve", "reconstruct_utility"):
            if hasattr(module, attr):
                sites.append((module, attr, "dominance", None))

    saved = []
    for owner, attr, name, count in sites:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, count))

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


# ------------------------------------------------------------------ metrics


def span_times(spans: list[list]) -> list[tuple[float, float]]:
    """(inclusive, self) seconds per span, in span order."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op, counts in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1], s[2] - s[1] - c) for s, c in zip(spans, child)]


def pass_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (or one set-up repetition)."""
    out: dict[str, float] = {}
    for (name, *_rest), (inclusive, own) in zip(spans, span_times(spans)):
        total_key, self_key = TIMED.get(name, (None, None))
        if total_key:
            out[total_key] = out.get(total_key, 0.0) + inclusive
        if self_key:
            out[self_key] = out.get(self_key, 0.0) + own
    largest = None
    for name, *_rest, counts in spans:
        if not counts:
            continue
        if name == "lp.solve":
            out["lp.calls"] = out.get("lp.calls", 0) + 1
            out["lp.iterations"] = out.get("lp.iterations", 0) + counts["iterations"]
            if largest is None or counts["rows"] * counts["cols"] > largest[0]:
                largest = (counts["rows"] * counts["cols"], counts)
        for key in ("in_bytes", "out_bytes"):
            if key in counts:
                out[f"io.{key}"] = out.get(f"io.{key}", 0) + counts[key]
        if "path_steps" in counts:
            out["simulate.path_steps"] = out.get("simulate.path_steps", 0) + counts["path_steps"]
        if "samples" in counts:
            out["alp.samples"] = out.get("alp.samples", 0) + counts["samples"]
        if "dense_bytes" in counts:
            out["lp.dense_bytes"] = max(out.get("lp.dense_bytes", 0), counts["dense_bytes"])
        if "states" in counts:
            out["portfolio.states"] = out.get("portfolio.states", 0) + counts["states"]
            out["portfolio.pairs"] = out.get("portfolio.pairs", 0) + counts["pairs"]
    if largest is not None:
        big = largest[1]
        out["lp.rows"] = big["rows"]
        out["lp.cols"] = big["cols"]
        out["lp.nnz_frac"] = big["nnz"] / (big["rows"] * big["cols"])
    if out.get("lp.simplex_s"):
        out["lp.iter_per_s"] = out["lp.iterations"] / out["lp.simplex_s"]
    if out.get("simulate.simulate_s"):
        out["simulate.path_steps_per_s"] = out["simulate.path_steps"] / out["simulate.simulate_s"]
    return out


def median_metrics(per_pass: list[dict[str, float]], names) -> dict[str, float]:
    """Median over passes of each named metric; 0 where the layer never ran."""
    return {
        name: float(statistics.median(p.get(name, 0.0) for p in per_pass)) if per_pass else 0.0
        for name in names
    }
