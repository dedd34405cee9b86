"""`domdp solve` reports on the 1-state instances, pinned byte for byte.

The files under tests/golden hold the exact report bytes; regenerate one
only when a change to the report is intended, with

    domdp solve --instance instances/<name>.json [--rescale-benchmark] --out tests/golden/<file>
"""

from pathlib import Path

import pytest

from domdp.cli import run

ROOT = Path(__file__).resolve().parent.parent

CASES = [
    ("ti1.json", [], "ti1.json", 0),
    ("ti1_unattainable.json", [], "ti1_unattainable.json", 2),
    ("ti1_discounted.json", [], "ti1_discounted.json", 0),
    ("ti1_discounted.json", ["--rescale-benchmark"], "ti1_discounted_rescaled.json", 0),
]


@pytest.mark.parametrize("instance, flags, golden, code", CASES, ids=[c[2] for c in CASES])
def test_report_bytes_unchanged(tmp_path, capsys, instance, flags, golden, code):
    out = tmp_path / "report.json"
    argv = ["solve", "--instance", str(ROOT / "instances" / instance), "--out", str(out)]
    assert run(argv + flags) == code
    assert out.read_bytes() == (ROOT / "tests" / "golden" / golden).read_bytes()
