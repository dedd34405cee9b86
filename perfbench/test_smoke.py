"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload must finish with all output checks passing, and the one
command must print every metric BENCHMARK.json names, with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_checks_and_prints_every_metric(workload, trace, section):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCH[section]}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_spans_nest_inside_their_operation():
    proc = _run("dense-average", 1)
    assert proc.returncode == 0, proc.stderr
    work = ROOT / ".perfbench_work" / "dense-average-tiny-t1"
    spans = json.loads((work / "spans.json").read_text(encoding="utf-8"))
    timings = json.loads((work / "timings.json").read_text(encoding="utf-8"))
    op_seconds = {(r["pass"], r["op"]): r["seconds"] for r in timings["records"]}
    assert spans
    for pass_id, pass_spans in spans.items():
        for name, start, end, parent, op, _counts in pass_spans:
            assert start <= end
            if parent < 0:
                assert name == "cli.run"
                assert end - start == op_seconds[(int(pass_id), op.split("/", 1)[1])]
            else:
                p = pass_spans[parent]
                assert p[1] <= start and end <= p[2] and p[4] == op


def test_exits_nonzero_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("alp-sampled", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
