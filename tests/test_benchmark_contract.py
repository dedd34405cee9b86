"""What the benchmark in ``perfbench/`` reads of the package.

The benchmark wraps ``domdp`` functions by module attribute name, counts
fields of the LPs it sees and re-solves those LPs with HiGHS from their
fields. A name or field removed from ``domdp`` breaks it without failing any
other test. These tests load ``perfbench/tracing.py`` and
``perfbench/checks.py`` from their files and change nothing there.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from domdp import cli
from domdp import io as jsonio
from domdp.alp import build_alp, sample_constraints, sample_count
from domdp.average import build_average_primal
from domdp.lp import solve_lp

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"


def _perfbench(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _perfbench("tracing")


def test_every_traced_name_exists_and_is_restored():
    before = (cli.solve_average, cli.estimate_discounted_shortfalls)
    restore = tracing.instrument(tracing.Tracer())
    try:
        assert cli.solve_average is not before[0]
    finally:
        restore()
    assert (cli.solve_average, cli.estimate_discounted_shortfalls) == before


def test_traced_solve_records_its_lp_spans(tmp_path):
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        code = cli.run(["solve", "--instance", str(INSTANCES / "ti1.json"),
                        "--out", str(tmp_path / "report.json")])
    finally:
        restore()
    assert code == 0
    spans = tracer.take()
    by_name = {}
    for index, (name, *_rest) in enumerate(spans):
        by_name.setdefault(name, []).append(index)
    for name in ("average.solve", "lp.solve", "lp.standard_form"):
        assert len(by_name[name]) == 1, name
    (solve,), (lp_solve,), (std,) = (
        by_name[n] for n in ("average.solve", "lp.solve", "lp.standard_form")
    )
    assert spans[std][3] == lp_solve and spans[lp_solve][3] == solve
    # ti1's LP over two pairs: a balance row of zeros (one state, a
    # self-loop), the normalization and one dominance row, [0, -4].
    counts = spans[lp_solve][5]
    assert {k: counts[k] for k in ("rows", "cols", "nnz")} == {"rows": 3, "cols": 2, "nnz": 3}
    assert counts["iterations"] >= 1
    # The standard form's matrix is the LP's own, with no slack column, and
    # none of its columns is a +1 unit column: 3 x (2 + 3 artificials), plus
    # the 3 x 3 inverse.
    assert spans[std][5] == {"dense_bytes": 8 * (3 * 5 + 3 * 3)}


def _load(name: str):
    return jsonio.loads((INSTANCES / name).read_text(encoding="utf-8"))


def _ti1_primal():
    loaded = jsonio.parse_instance(_load("ti1.json"))
    return build_average_primal(loaded.instance, loaded.benchmark)


def _ti1_alp():
    loaded = jsonio.parse_instance(_load("ti1.json"))
    bases = jsonio.parse_basis(_load("ti1_basis.json"))
    k = bases.num_h + 1 + bases.num_u   # average mode adds the gain
    samples = sample_constraints(loaded.instance, None, sample_count(0.25, 0.1, k), 0)
    return build_alp(loaded.instance, loaded.benchmark, bases, samples)


@pytest.mark.parametrize("build", [_ti1_primal, _ti1_alp], ids=["average-primal", "alp"])
def test_highs_reference_agrees_with_our_solve(build):
    pytest.importorskip("scipy.optimize")
    checks = _perfbench("checks")
    lp = build()
    assert np.array_equal(lp.lower, np.zeros(lp.num_cols))
    status, reference = checks.highs_objective(lp)
    sol = solve_lp(lp)
    assert sol.status == status == "optimal"
    assert abs(sol.objective - reference) <= checks.OBJECTIVE_TOL * (1.0 + abs(reference))
