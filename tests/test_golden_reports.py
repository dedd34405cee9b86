"""CLI reports on the shipped instances, pinned byte for byte.

The files under tests/golden hold the exact report bytes; regenerate one
only when a change to the report is intended, by rerunning its command
line below with --out tests/golden/<file>, for example

    domdp solve --instance instances/<name>.json [--rescale-benchmark] --out tests/golden/<file>

The bytes do not depend on the BLAS build: the solve, oracle and alp inputs
have one state, and the multi-state ms5 simulation is in average mode,
whose estimates are means, not BLAS products.
"""

from pathlib import Path

import pytest

from domdp.cli import run

ROOT = Path(__file__).resolve().parent.parent


def inst(name):
    return str(ROOT / "instances" / name)


ALP = ["--epsilon", "0.25", "--delta", "0.1", "--basis", inst("ti1_basis.json")]

CASES = [
    (["solve", "--instance", inst("ti1.json")], "ti1.json", 0),
    (["solve", "--instance", inst("ti1_unattainable.json")], "ti1_unattainable.json", 2),
    (["solve", "--instance", inst("ti1_discounted.json")], "ti1_discounted.json", 0),
    (
        ["solve", "--instance", inst("ti1_discounted.json"), "--rescale-benchmark"],
        "ti1_discounted_rescaled.json",
        0,
    ),
    (["oracle", "--instance", inst("ti1.json")], "oracle_ti1.json", 0),
    (["oracle", "--instance", inst("ti1_unattainable.json")], "oracle_ti1_unattainable.json", 2),
    (["oracle", "--instance", inst("ti1_discounted.json")], "oracle_ti1_discounted.json", 0),
    (
        ["simulate", "--instance", inst("ti1.json"), "--policy", inst("ti1_policy.json"),
         "--paths", "3", "--horizon", "1000", "--seed", "0"],
        "simulate_ti1.json",
        0,
    ),
    (
        ["simulate", "--instance", inst("ms5.json"), "--policy", inst("ms5_policy.json"),
         "--paths", "5", "--horizon", "20000", "--seed", "0"],
        "simulate_ms5.json",
        0,
    ),
    (["alp", "--instance", inst("ti1.json")] + ALP, "alp_ti1.json", 0),
    (["alp", "--instance", inst("ti1_discounted.json")] + ALP, "alp_ti1_discounted.json", 0),
]


@pytest.mark.parametrize("argv, golden, code", CASES, ids=[c[1] for c in CASES])
def test_report_bytes_unchanged(tmp_path, capsys, argv, golden, code):
    out = tmp_path / "report.json"
    assert run(argv + ["--out", str(out)]) == code
    assert out.read_bytes() == (ROOT / "tests" / "golden" / golden).read_bytes()
