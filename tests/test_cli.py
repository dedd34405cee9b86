import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import domdp
from domdp.cli import run
from domdp.io import dumps, instance_to_obj, parse_instance, parse_portfolio_config
from domdp.portfolio import build_portfolio_instance
from helpers import TI1_BENCH, ti1


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def ti1_obj(benchmark_support=(4.0,), benchmark_probs=(1.0,), mode="average", **extra):
    obj = {
        "states": 1,
        "actions": [["a", "b"]],
        "P": [[[1.0], [1.0]]],
        "r": [[2.0, 5.0]],
        "z": [[10.0, 0.0]],
        "mode": mode,
        "benchmark": {"support": list(benchmark_support), "probs": list(benchmark_probs)},
    }
    obj.update(extra)
    return obj


def test_dumps_17_digit_floats_and_determinism():
    text = dumps({"x": 0.1, "n": 3, "s": "a", "flag": True, "none": None, "v": [1.5]})
    assert text == '{"x":0.10000000000000001,"n":3,"s":"a","flag":true,"none":null,"v":[1.5]}'
    assert dumps({"x": 0.1}) == dumps({"x": 0.1})
    roundtrip = json.loads(text)
    assert roundtrip["x"] == 0.1


def test_instance_round_trip():
    inst = ti1()
    obj = instance_to_obj(inst, TI1_BENCH)
    loaded = parse_instance(json.loads(dumps(obj)))
    assert loaded.instance.num_states == 1
    assert np.array_equal(loaded.instance.reward_r, inst.reward_r)
    assert np.array_equal(loaded.benchmark.support, TI1_BENCH.support)


def test_solve_ti1_exit_zero(tmp_path, capsys):
    path = write_json(tmp_path / "ti1.json", ti1_obj())
    code = run(["solve", "--instance", path])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "optimal"
    assert report["objective"] == pytest.approx(2.0, abs=1e-8)
    assert report["g"] == pytest.approx(2.0, abs=1e-8)


def test_solve_unattainable_exits_two(tmp_path, capsys):
    path = write_json(tmp_path / "bad.json", ti1_obj(benchmark_support=(11.0,)))
    code = run(["solve", "--instance", path])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "infeasible"
    assert report["binding_etas"] == [11.0]


def test_solve_writes_outfile_byte_stable(tmp_path, capsys):
    path = write_json(tmp_path / "ti1.json", ti1_obj())
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run(["solve", "--instance", path, "--out", str(out1)]) == 0
    assert run(["solve", "--instance", path, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_solve_discounted_with_rescale(tmp_path, capsys):
    obj = ti1_obj(mode="discounted", discount=0.5, initial=[1.0])
    path = write_json(tmp_path / "d.json", obj)
    code = run(["solve", "--instance", path, "--rescale-benchmark"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "optimal"
    assert report["benchmark_rescaled"] is True
    assert "initial_weighted_value" in report and "v" in report
    # eta 4 rescaled to 8 binds exactly like the average golden case.
    assert report["objective"] == pytest.approx(4.0, abs=1e-7)


def test_check_dominance_equal_distributions(tmp_path, capsys):
    dist = {"support": [1.0, 2.0], "probs": [0.5, 0.5]}
    x = write_json(tmp_path / "x.json", dist)
    y = write_json(tmp_path / "y.json", dist)
    code = run(["check-dominance", "--x", x, "--benchmark", y])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["satisfied"] is True
    assert all(m == 0.0 for _, m in report["margins"])


def test_check_dominance_failure_exits_two(tmp_path, capsys):
    x = write_json(tmp_path / "x.json", {"support": [0.0], "probs": [1.0]})
    y = write_json(tmp_path / "y.json", {"support": [3.0], "probs": [1.0]})
    code = run(["check-dominance", "--x", x, "--benchmark", y, "--order", "icv"])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["margin"] == pytest.approx(-3.0)


def test_simulate_command(tmp_path, capsys):
    path = write_json(tmp_path / "ti1.json", ti1_obj())
    policy = write_json(tmp_path / "pol.json", [[0, [1.0, 0.0]]])
    code = run(
        [
            "simulate",
            "--instance",
            path,
            "--policy",
            policy,
            "--paths",
            "3",
            "--horizon",
            "100",
            "--seed",
            "7",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["estimates"][0]["eta"] == 4.0
    assert report["estimates"][0]["estimate"] == 0.0  # z = 10 under action a


def test_oracle_command(tmp_path, capsys):
    path = write_json(tmp_path / "ti1.json", ti1_obj())
    code = run(["oracle", "--instance", path])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["feasible"] is True
    assert report["value"] == pytest.approx(2.0)


def test_alp_command(tmp_path, capsys):
    path = write_json(tmp_path / "ti1.json", ti1_obj())
    basis = write_json(
        tmp_path / "basis.json", {"h": [[1.0]], "u_lambdas": [[[4.0, 1.0]]]}
    )
    code = run(
        [
            "alp",
            "--instance",
            path,
            "--epsilon",
            "0.25",
            "--delta",
            "0.1",
            "--basis",
            basis,
            "--seed",
            "1",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "optimal"
    # Complete basis for this instance: matches the exact optimum.
    assert report["objective"] == pytest.approx(2.0, abs=1e-6)
    assert report["violation_fraction"] == 0.0


def test_gen_portfolio_smoke(tmp_path, capsys):
    cfg = {
        "price_levels": [[1.0, 1.2], [1.0, 0.8]],
        "price_transitions": [[[0.7, 0.3], [0.4, 0.6]], [[0.7, 0.3], [0.4, 0.6]]],
        "resolution": 2,
        "discount": 0.9,
        "benchmark": {"support": [-1.0], "probs": [1.0]},
    }
    cfg_path = write_json(tmp_path / "cfg.json", cfg)
    out_path = tmp_path / "inst.json"
    code = run(["gen-portfolio", "--config", cfg_path, "--out", str(out_path)])
    assert code == 0
    info = json.loads(capsys.readouterr().out)
    assert info["base_states"] == 12
    assert info["violations"] == 0
    loaded = parse_instance(json.loads(out_path.read_text()))
    assert loaded.instance.mode == "discounted"


def test_portfolio_resolution_4_solves(tmp_path, capsys):
    # The benchmark's 3-asset config at resolution 4 (960 states), solved
    # through the CLI from the greedy start; HiGHS puts the optimum at 0.
    cfg = parse_portfolio_config(
        {
            "price_levels": [[1.0, 1.2], [1.0, 0.8], [1.0, 1.1]],
            "price_transitions": [[[0.7, 0.3], [0.4, 0.6]]] * 3,
            "resolution": 4,
            "discount": 0.9,
            "benchmark": {"support": [-0.4, 0.0], "probs": [0.5, 0.5]},
        }
    )
    inst = build_portfolio_instance(cfg)
    assert inst.num_states == 960
    path = tmp_path / "inst.json"
    path.write_text(dumps(instance_to_obj(inst, cfg.benchmark)))
    assert run(["solve", "--instance", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "optimal"
    assert abs(report["objective"]) <= 1e-9


def test_unknown_flag_exits_one(capsys):
    assert run(["solve", "--nope"]) == 1


def test_missing_file_exits_one(capsys):
    assert run(["solve", "--instance", "/nonexistent/file.json"]) == 1


def test_rescale_on_average_rejected(tmp_path, capsys):
    path = write_json(tmp_path / "ti1.json", ti1_obj())
    assert run(["solve", "--instance", path, "--rescale-benchmark"]) == 1


def test_extra_grid_diagnostics(tmp_path, capsys):
    path = write_json(tmp_path / "ti1.json", ti1_obj(extra_grid=[2.0, 6.0]))
    assert run(["solve", "--instance", path]) == 0
    report = json.loads(capsys.readouterr().out)
    margins = dict((e, m) for e, m in report["extra_grid_margins"])
    assert set(margins) == {2.0, 4.0, 6.0}
    # Optimal x is the point mass on action a with z = 10: lhs 0 at every eta.
    assert margins[2.0] == pytest.approx(0.0, abs=1e-9)
    assert margins[6.0] == pytest.approx(2.0, abs=1e-9)  # 0 - (4-6)_-


def test_extra_grid_is_ignored_with_a_family(tmp_path, capsys):
    # A family replaces the benchmark-support rows; extra_grid adds no margins to it.
    family = {"weights": [[1.0]], "etas": [4.0]}
    with_grid = write_json(tmp_path / "grid.json", ti1_obj(extra_grid=[2.0], family=family))
    without = write_json(tmp_path / "plain.json", ti1_obj(family=family))
    assert run(["solve", "--instance", with_grid]) == 0
    report = capsys.readouterr().out
    assert "extra_grid_margins" not in json.loads(report)
    assert run(["solve", "--instance", without]) == 0
    assert capsys.readouterr().out == report


def test_shipped_instances_solve(capsys):
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "instances"
    assert run(["solve", "--instance", str(root / "ti1.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["objective"] == pytest.approx(2.0, abs=1e-8)
    assert run(["solve", "--instance", str(root / "ti1_unattainable.json")]) == 2
    capsys.readouterr()


def test_family_instance_via_cli(tmp_path, capsys):
    obj = {
        "states": 1,
        "actions": [["a", "b"]],
        "P": [[[1.0], [1.0]]],
        "r": [[2.0, 5.0]],
        "z": [[[10.0, 10.0], [0.0, 0.0]]],
        "mode": "average",
        "benchmark": {"support": [[4.0, 4.0]], "probs": [1.0]},
        "family": {"weights": [[0.5, 0.5]], "etas": [4.0]},
    }
    path = write_json(tmp_path / "fam.json", obj)
    code = run(["solve", "--instance", path])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["objective"] == pytest.approx(2.0, abs=1e-8)
    assert report["family"] is True


def test_solve_discounted_honors_family(tmp_path, capsys):
    # Total mass 2: the family row gives -180 (a) or -200 (b), never >= E[(Y-100)_-] = -96.
    obj = ti1_obj(
        mode="discounted",
        discount=0.5,
        initial=[1.0],
        family={"weights": [[1.0]], "etas": [100.0]},
    )
    path = write_json(tmp_path / "d.json", obj)
    assert run(["solve", "--instance", path]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "infeasible"
    assert report["binding_etas"] == [0.0]  # the family's first parameter


def test_rescale_with_family_rejected(tmp_path, capsys):
    obj = ti1_obj(
        mode="discounted",
        discount=0.5,
        initial=[1.0],
        family={"weights": [[1.0]], "etas": [4.0]},
    )
    path = write_json(tmp_path / "d.json", obj)
    assert run(["solve", "--instance", path, "--rescale-benchmark"]) == 1
    assert "generator family" in capsys.readouterr().err


DIST = {"support": [1.0], "probs": [1.0]}
PORTFOLIO = {
    "price_levels": [[1.0, 1.2], [1.0, 0.8]],
    "price_transitions": [[[0.7, 0.3], [0.4, 0.6]]] * 2,
    "resolution": 2,
    "discount": 0.9,
    "benchmark": {"support": [-1.0], "probs": [1.0]},
}
TWO_STATES = {
    "states": 2,
    "actions": [["a", "b"], ["a"]],
    "P": [[[0.5, 0.5], [1.0, 0.0]], [[0.0, 1.0]]],
    "r": [[1.0, 0.0], [0.5]],
    "z": [[1.0, 0.0], [2.0]],
    "mode": "average",
    "benchmark": {"support": [0.5], "probs": [1.0]},
}
MALFORMED = [
    pytest.param("check-dominance", "x", {"probs": [1.0]}, id="x-without-support"),
    pytest.param("check-dominance", "x", [1.0, 2.0], id="x-json-list"),
    pytest.param("check-dominance", "benchmark", 3.0, id="benchmark-number"),
    pytest.param("simulate", "policy", {"policy": [[0]]}, id="policy-short-entry"),
    pytest.param("simulate", "policy", 7, id="policy-number"),
    pytest.param("alp", "basis", {"h": [[1.0]], "u_lambdas": [[1.0]]}, id="basis-bare-lambda"),
    pytest.param("alp", "basis", {"h": [[1.0]]}, id="basis-one-column-two-states"),
    pytest.param("alp", "basis", {"h": {"a": 1}}, id="basis-h-dict"),
    pytest.param(
        "check-dominance", "x", {"support": {"a": 1}, "probs": [1.0]}, id="x-support-dict"
    ),
    pytest.param(
        "check-dominance", "benchmark", {"support": {"a": 1}, "probs": [1.0]},
        id="benchmark-support-dict",
    ),
    pytest.param("simulate", "policy", [[[0], [0.5, 0.5]], [1, [1.0]]], id="policy-state-list"),
    pytest.param("simulate", "policy", [[0, {"a": 1}], [1, [1.0]]], id="policy-row-dict"),
    *(
        pytest.param("simulate", "policy", [[state, [1.0, 0.0]], [1, [1.0]]], id=f"policy-{name}")
        for name, state in [("state-float", 0.9), ("state-str", "0"), ("state-bool", False)]
    ),
    *(
        pytest.param("solve", "instance", ti1_obj(**{key: value}), id=f"instance-{name}")
        for name, key, value in [
            ("states-list", "states", [1]),
            ("states-float", "states", 1.5),
            ("states-str", "states", "1"),
            ("states-bool", "states", True),
            ("actions-number", "actions", 5),
            ("P-number", "P", 3),
            ("P-list-of-number", "P", [3]),
            ("P-dict", "P", {"0": 1}),
            ("P-empty", "P", []),
            ("r-list-of-number", "r", [3]),
            ("z-mixed", "z", [[1.0, [2.0]]]),
            ("discount-list", "discount", [0.5]),
            ("initial-dict", "initial", {"a": 1}),
            ("family-weights-number", "family", {"weights": 1, "etas": [4.0]}),
        ]
    ),
    pytest.param(
        "gen-portfolio", "config", {**PORTFOLIO, "price_levels": 3}, id="config-levels-number"
    ),
    pytest.param(
        "gen-portfolio", "config", {**PORTFOLIO, "resolution": [1]}, id="config-resolution-list"
    ),
    pytest.param("gen-portfolio", "config", [PORTFOLIO], id="config-bare-list"),
    *(
        pytest.param(
            "gen-portfolio", "config", {**PORTFOLIO, "resolution": value},
            id=f"config-resolution-{name}",
        )
        for name, value in [("float", 2.5), ("str", "2"), ("bool", True)]
    ),
]


@pytest.mark.parametrize("command, role, content", MALFORMED)
def test_malformed_input_file_exits_one(tmp_path, capsys, command, role, content):
    """The malformed file, passed as --<role>, ends in an error line and exit 1."""
    bad = write_json(tmp_path / "bad.json", content)
    inst = write_json(tmp_path / "inst.json", TWO_STATES)
    good = write_json(tmp_path / "good.json", DIST)
    config = write_json(tmp_path / "config.json", PORTFOLIO)
    argv = {
        "solve": ["solve", "--instance", inst],
        "gen-portfolio": ["gen-portfolio", "--config", config, "--out", str(tmp_path / "out.json")],
        "check-dominance": ["check-dominance", "--x", good, "--benchmark", good],
        "simulate": ["simulate", "--instance", inst, "--policy", good],
        "alp": ["alp", "--instance", inst, "--epsilon", "0.25", "--delta", "0.1", "--basis", good],
    }[command]
    argv[argv.index(f"--{role}") + 1] = bad
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "exc",
    [
        np.linalg.LinAlgError("Singular matrix"),
        ArithmeticError("duality gap 1 exceeds tolerance"),
        RuntimeError("simplex exceeded 10 iterations"),
    ],
    ids=["LinAlgError", "ArithmeticError", "RuntimeError"],
)
def test_numerical_failure_exits_four(tmp_path, capsys, monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr("domdp.cli.solve_average", fail)
    path = write_json(tmp_path / "ti1.json", ti1_obj())
    assert run(["solve", "--instance", path]) == 4
    assert capsys.readouterr().err == f"error: numerical failure: {exc}\n"


def test_plain_value_error_still_exits_one(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("bad input")

    monkeypatch.setattr("domdp.cli.solve_average", fail)
    path = write_json(tmp_path / "ti1.json", ti1_obj())
    assert run(["solve", "--instance", path]) == 1
    assert capsys.readouterr().err == "error: bad input\n"


@pytest.mark.parametrize("command, role", [("solve", "instance"), ("simulate", "policy")])
def test_deeply_nested_input_exits_one(tmp_path, capsys, command, role):
    """JSON nested past the recursion limit is unreadable input, not a numerical failure."""
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000)
    inst = write_json(tmp_path / "inst.json", TWO_STATES)
    argv = {
        "solve": ["solve", "--instance", inst],
        "simulate": ["simulate", "--instance", inst, "--policy", inst],
    }[command]
    argv[argv.index(f"--{role}") + 1] = str(bad)
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: ")


def test_import_loads_no_scipy():
    # SciPy costs about 0.4 s and 32 MiB per process; domdp must not pull it in.
    code = (
        "import sys, domdp, domdp.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(domdp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


NAN = float("nan")
NON_FINITE = [
    pytest.param("solve", ti1_obj(P=[[[NAN], [1.0]]]), id="solve-P-nan"),
    pytest.param("oracle", ti1_obj(P=[[[NAN], [1.0]]]), id="oracle-P-nan"),
    pytest.param("solve", ti1_obj(r=[[NAN, 5.0]]), id="solve-r-nan"),
    pytest.param("solve", ti1_obj(r=[[float("inf"), 5.0]]), id="solve-r-inf"),
    pytest.param("solve", ti1_obj(z=[[10.0, NAN]]), id="solve-z-nan"),
    pytest.param(
        "solve",
        ti1_obj(mode="discounted", discount=0.5, initial=[NAN]),
        id="solve-initial-nan",
    ),
    pytest.param("solve", ti1_obj(benchmark_probs=(NAN,)), id="solve-probs-nan"),
    pytest.param("oracle", ti1_obj(benchmark_probs=(NAN,)), id="oracle-probs-nan"),
    pytest.param("solve", ti1_obj(benchmark_support=(NAN,)), id="solve-support-nan"),
    pytest.param("solve", ti1_obj(extra_grid=[NAN]), id="solve-extra-grid-nan"),
    pytest.param("alp", {"h": [[NAN]]}, id="alp-basis-nan"),
    pytest.param("alp", {"h": [[1.0]], "u_lambdas": [[[NAN, 1.0]]]}, id="alp-u-eta-nan"),
    pytest.param("check-dominance", {"support": [NAN], "probs": [1.0]}, id="x-nan"),
    pytest.param(
        "solve", ti1_obj(family={"weights": [[NAN]], "etas": [4.0]}), id="solve-family-weight-nan"
    ),
    pytest.param(
        "solve", ti1_obj(family={"weights": [[1.0]], "etas": [NAN]}), id="solve-family-eta-nan"
    ),
    pytest.param("simulate", {"policy": [[0, [NAN, 1.0]]]}, id="simulate-policy-nan"),
    pytest.param("simulate-grid-nan", {"policy": [[0, [1.0, 0.0]]]}, id="simulate-grid-nan"),
]


@pytest.mark.parametrize("command, content", NON_FINITE)
def test_non_finite_input_exits_one(tmp_path, capsys, command, content):
    bad = write_json(tmp_path / "bad.json", content)
    ti1_path = write_json(tmp_path / "ti1.json", ti1_obj())
    argv = {
        "solve": ["solve", "--instance", bad],
        "oracle": ["oracle", "--instance", bad],
        "alp": ["alp", "--instance", ti1_path, "--epsilon", "0.25", "--delta", "0.1",
                "--basis", bad],
        "check-dominance": ["check-dominance", "--x", bad, "--benchmark", bad],
        "simulate": ["simulate", "--instance", ti1_path, "--policy", bad],
        "simulate-grid-nan":
            ["simulate", "--instance", ti1_path, "--policy", bad, "--grid", "nan"],
    }[command]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite" in err


VECTOR_Z = ti1_obj(
    z=[[[10.0, 1.0], [0.0, 2.0]]], benchmark={"support": [[4.0, 1.0]], "probs": [1.0]}
)


@pytest.mark.parametrize(
    "command, content",
    [
        pytest.param(
            "oracle",
            {**VECTOR_Z, "family": {"weights": [[0.5, 0.5]], "etas": [4.0]}},
            id="oracle-family",
        ),
        pytest.param("oracle", VECTOR_Z, id="oracle-vector-benchmark"),
        pytest.param("oracle", {**VECTOR_Z, "benchmark": DIST}, id="oracle-scalar-benchmark"),
        pytest.param("check-dominance", VECTOR_Z["benchmark"], id="check-vector-benchmark"),
    ],
)
def test_vector_z_outside_solve_exits_one(tmp_path, capsys, command, content):
    # Only solve evaluates a generator family; the others read z as scalars.
    bad = write_json(tmp_path / "bad.json", content)
    good = write_json(tmp_path / "good.json", DIST)
    argv = {
        "oracle": ["oracle", "--instance", bad],
        "check-dominance": ["check-dominance", "--x", good, "--benchmark", bad],
    }[command]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "requires a generator family" in err


def test_simulate_rejects_vector_z_before_simulating(tmp_path, capsys, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulate ran on a vector-z instance")

    monkeypatch.setattr(sys.modules["domdp.cli"], "simulate", no_simulation)
    bad = write_json(
        tmp_path / "bad.json", {**VECTOR_Z, "family": {"weights": [[0.5, 0.5]], "etas": [4.0]}}
    )
    policy = write_json(tmp_path / "pol.json", [[0, [1.0, 0.0]]])
    argv = ["simulate", "--instance", bad, "--policy", policy, "--horizon", "1000000"]
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: shortfall estimation requires scalar z\n"


@pytest.mark.parametrize("command", ["solve", "alp"])
def test_vector_benchmark_without_family_exits_one(tmp_path, capsys, command):
    # Scalar z against a vector benchmark: no family says how to compare them.
    bad = write_json(tmp_path / "bad.json", ti1_obj(benchmark=VECTOR_Z["benchmark"]))
    basis = write_json(tmp_path / "basis.json", {"h": [[1.0]], "u_lambdas": [[[4.0, 1.0]]]})
    argv = {
        "solve": ["solve", "--instance", bad],
        "alp": ["alp", "--instance", bad, "--epsilon", "0.25", "--delta", "0.1", "--basis", basis],
    }[command]
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: a vector benchmark requires a generator family\n"


def test_oracle_policy_limit_exits_one(tmp_path, capsys, monkeypatch):
    # domdp/__init__.py rebinds the name "simulate" to the function.
    monkeypatch.setattr(sys.modules["domdp.simulate"], "MAX_POLICIES", 3)
    two_by_two = {
        **TWO_STATES,
        "actions": [["a", "b"], ["a", "b"]],
        "P": [[[0.5, 0.5], [1.0, 0.0]], [[0.0, 1.0], [0.5, 0.5]]],
        "r": [[1.0, 0.0], [0.5, 2.0]],
        "z": [[1.0, 0.0], [2.0, 0.5]],
    }
    path = write_json(tmp_path / "two.json", two_by_two)
    assert run(["oracle", "--instance", path]) == 1
    assert capsys.readouterr().err.startswith("error: too many deterministic policies")


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("solve", "--tol", "-1"),
        ("solve", "--tol", "0"),
        ("solve", "--tol", "inf"),
        ("simulate", "--paths", "0"),
        ("simulate", "--horizon", "0"),
    ],
)
def test_out_of_range_argument_exits_one(tmp_path, capsys, command, flag, value):
    path = write_json(tmp_path / "ti1.json", ti1_obj())
    policy = write_json(tmp_path / "pol.json", [[0, [1.0, 0.0]]])
    argv = {
        "solve": ["solve", "--instance", path],
        "simulate": ["simulate", "--instance", path, "--policy", policy],
    }[command]
    assert run(argv + [flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err


INVALID_INSTANCES = [
    pytest.param(ti1_obj(P=[[[NAN], [1.0]]]), "P(.|0,a) must be finite", id="P-nan"),
    pytest.param(ti1_obj(r=[[NAN, 5.0]]), "r(0,a) must be finite", id="r-nan"),
    pytest.param(ti1_obj(r=[[float("inf"), 5.0]]), "r(0,a) must be finite", id="r-inf"),
    pytest.param(ti1_obj(z=[[10.0, NAN]]), "z(0,b) must be finite", id="z-nan"),
    pytest.param(
        ti1_obj(mode="discounted", discount=0.5, initial=[NAN]),
        "initial must be finite",
        id="initial-nan",
    ),
    pytest.param(
        ti1_obj(mode="discounted", discount=float("inf"), initial=[1.0]),
        "discount must be finite",
        id="discount-inf",
    ),
    pytest.param(
        ti1_obj(mode="discounted", discount=1.0, initial=[1.0]),
        "discounted mode needs discount in (0,1), got 1.0",
        id="discount-one",
    ),
    pytest.param(
        ti1_obj(mode="discounted", discount=0.5), "discounted mode needs initial", id="no-initial"
    ),
    pytest.param(ti1_obj(P=[[[0.5], [1.0]]]), "P(.|0,a) sums to 1-5.000e-01", id="row-sum-half"),
    pytest.param(ti1_obj(P=[[[-0.5], [1.0]]]), "P(0|0,a) = -0.5 < 0", id="P-negative"),
]


@pytest.mark.parametrize("content, message", INVALID_INSTANCES)
def test_simulate_rejects_invalid_instance_as_solve_does(tmp_path, capsys, content, message):
    bad = write_json(tmp_path / "bad.json", content)
    policy = write_json(tmp_path / "pol.json", [[0, [0.5, 0.5]]])
    assert run(["simulate", "--instance", bad, "--policy", policy, "--horizon", "10"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid instance (") and message in err
    assert run(["solve", "--instance", bad]) == 1
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("command", ["solve", "oracle", "alp", "simulate"])
@pytest.mark.parametrize("extra_grid", [[[1.0]], 1.0], ids=["2-d", "scalar"])
def test_extra_grid_must_be_a_list_of_numbers(tmp_path, capsys, command, extra_grid):
    bad = write_json(tmp_path / "bad.json", ti1_obj(extra_grid=extra_grid))
    policy = write_json(tmp_path / "pol.json", [[0, [1.0, 0.0]]])
    basis = write_json(tmp_path / "basis.json", {"h": [[1.0]], "u_lambdas": [[[4.0, 1.0]]]})
    argv = {
        "solve": ["solve", "--instance", bad],
        "oracle": ["oracle", "--instance", bad],
        "alp": ["alp", "--instance", bad, "--epsilon", "0.25", "--delta", "0.1", "--basis", basis],
        "simulate": ["simulate", "--instance", bad, "--policy", policy],
    }[command]
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: 'extra_grid' must be a list of numbers\n"


def _sparse(to, p):
    return {"to": to, "p": p}


def _two_states(**changes):
    """TWO_STATES with its kernel in sparse rows, then ``changes``."""
    sparse_P = [[_sparse([0, 1], [0.5, 0.5]), _sparse([0], [1.0])], [_sparse([1], [1.0])]]
    return {**TWO_STATES, "P": sparse_P, **changes}


def _with_row(row, s=0, a=1):
    obj = _two_states()
    obj["P"][s][a] = row
    return obj


SPARSE_FAULTS = [
    pytest.param(_with_row(_sparse([0.0], [1.0])), "P[0][1] 'to': expected an integer, got 0.0",
                 id="index-float"),
    pytest.param(_with_row(_sparse(["0"], [1.0])), "P[0][1] 'to': expected an integer, got '0'",
                 id="index-str"),
    pytest.param(_with_row(_sparse([False], [1.0])),
                 "P[0][1] 'to': expected an integer, got False", id="index-bool"),
    pytest.param(_with_row(_sparse([-1], [1.0])), "P[0][1] 'to': index -1 outside [0, 2)",
                 id="index-negative"),
    pytest.param(_with_row(_sparse([2], [1.0])), "P[0][1] 'to': index 2 outside [0, 2)",
                 id="index-out-of-range"),
    pytest.param(_with_row(_sparse([0, 0], [0.5, 0.5])),
                 "P[0][1] 'to': indices must increase strictly, got 0 after 0",
                 id="index-repeated"),
    pytest.param(_with_row(_sparse([1, 0], [0.5, 0.5])),
                 "P[0][1] 'to': indices must increase strictly, got 0 after 1",
                 id="index-unsorted"),
    pytest.param(_with_row(_sparse([0, 1], [1.0])),
                 "P[0][1]: 'to' and 'p' differ in length (2 and 1)", id="lengths-differ"),
    pytest.param(_with_row(_sparse([0], ["1.0"])), "P[0][1] 'p': expected a number, got '1.0'",
                 id="p-str"),
    pytest.param(_with_row(_sparse([0], [True])), "P[0][1] 'p': expected a number, got True",
                 id="p-bool"),
    pytest.param(_with_row(_sparse(0, [1.0])), "P[0][1]: 'to' and 'p' must be lists",
                 id="to-number"),
    pytest.param(_with_row({"to": [0]}),
                 "P[0][1]: a sparse row has the keys 'to' and 'p', got ['to']", id="no-p"),
    pytest.param(_with_row({**_sparse([0], [1.0]), "q": 1}),
                 "P[0][1]: a sparse row has the keys 'to' and 'p', got ['to', 'p', 'q']",
                 id="extra-key"),
    pytest.param(_with_row(_sparse([0], [10**400])),
                 "malformed instance file: OverflowError: int too large to convert to float",
                 id="p-huge-int"),
    # A sparse row where a number or a block belongs.
    pytest.param(_two_states(r=[[1.0, _sparse([0], [1.0])], [0.5]]),
                 "malformed instance file: TypeError: float() argument must be a string or a"
                 " real number, not 'dict'", id="row-in-r"),
    pytest.param(_two_states(z=[[_sparse([0], [1.0]), 0.0], [2.0]]),
                 "malformed instance file: TypeError: float() argument must be a string or a"
                 " real number, not 'dict'", id="row-in-z"),
    pytest.param(_with_row(_sparse([0], [_sparse([0], [1.0])])),
                 "malformed instance file: TypeError: float() argument must be a string or a"
                 " real number, not 'dict'", id="row-in-p"),
    pytest.param(_two_states(P=[[_sparse([0], [1.0]), _sparse([0], [1.0])],
                                _sparse([1], [1.0])]),
                 "state 1: P/r/z must have one entry per action", id="row-as-block"),
    pytest.param(_two_states(P=_sparse([0], [1.0])),
                 "malformed instance file: KeyError: 0", id="row-as-P"),
]


@pytest.mark.parametrize("content, message", SPARSE_FAULTS)
def test_sparse_row_faults_exit_one(tmp_path, capsys, content, message):
    """Each fault of a sparse kernel row ends in one error line and exit 1."""
    path = write_json(tmp_path / "bad.json", content)
    assert run(["solve", "--instance", path]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_sparse_and_mixed_rows_solve_as_dense(tmp_path, capsys):
    """A file may mix dense and sparse rows; every form gives the same report."""
    mixed = _two_states()
    mixed["P"][0][0] = [0.5, 0.5]
    reports = []
    for name, obj in [("dense", TWO_STATES), ("sparse", _two_states()), ("mixed", mixed)]:
        assert run(["solve", "--instance", write_json(tmp_path / f"{name}.json", obj)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[1] == reports[0] and reports[2] == reports[0]


NOT_NUMBERS = [
    pytest.param({"r": [["2.0", 5.0]]}, "'r': expected a number, got '2.0'", id="r-str"),
    pytest.param({"r": [[True, 5.0]]}, "'r': expected a number, got True", id="r-bool"),
    pytest.param({"z": [[10.0, "0"]]}, "'z': expected a number, got '0'", id="z-str"),
    pytest.param({"z": [[[10.0, False], [0.0, 1.0]]],
                  "benchmark": {"support": [[4.0, 1.0]], "probs": [1.0]}},
                 "'z': expected a number, got False", id="z-vector-bool"),
    pytest.param({"P": [[["1.0"], [1.0]]]}, "P[0][0]: expected a number, got '1.0'",
                 id="P-dense-str"),
    pytest.param({"P": [[[1.0], "1.0"]]}, "P[0][1]: expected a number, got '1.0'",
                 id="P-dense-str-row"),
    pytest.param({"benchmark": {"support": ["4.0"], "probs": [1.0]}},
                 "'support': expected a number, got '4.0'", id="support-str"),
    pytest.param({"benchmark": {"support": [4.0], "probs": [True]}},
                 "'probs': expected a number, got True", id="probs-bool"),
    pytest.param({"extra_grid": [1.0, "2.0"]}, "'extra_grid': expected a number, got '2.0'",
                 id="extra-grid-str"),
    pytest.param({"mode": "discounted", "discount": "0.5", "initial": [1.0]},
                 "'discount': expected a number, got '0.5'", id="discount-str"),
    pytest.param({"mode": "discounted", "discount": 0.5, "initial": [True]},
                 "'initial': expected a number, got True", id="initial-bool"),
    pytest.param({"r": [[10**400, 5.0]]},
                 "malformed instance file: OverflowError: int too large to convert to float",
                 id="r-huge-int"),
]


@pytest.mark.parametrize("changes, message", NOT_NUMBERS)
def test_strings_and_booleans_are_not_numbers(tmp_path, capsys, changes, message):
    """float() reads "2.0" and true as numbers; the instance schema does not."""
    path = write_json(tmp_path / "bad.json", ti1_obj(**changes))
    assert run(["solve", "--instance", path]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_distribution_refuses_strings(tmp_path, capsys):
    good = write_json(tmp_path / "good.json", DIST)
    bad = write_json(tmp_path / "bad.json", {"support": ["1.0"], "probs": [1.0]})
    for argv in (["--x", bad, "--benchmark", good], ["--x", good, "--benchmark", bad]):
        assert run(["check-dominance", *argv]) == 1
        assert capsys.readouterr().err == "error: 'support': expected a number, got '1.0'\n"


def test_rescaled_reports_say_so_whatever_the_status(tmp_path, capsys):
    """Support 11 rescaled by 1 / (1 - 0.5) is the 22 the infeasible report names."""
    obj = ti1_obj(benchmark_support=(11.0,), mode="discounted", discount=0.5, initial=[1.0])
    path = write_json(tmp_path / "d.json", obj)
    assert run(["solve", "--instance", path, "--rescale-benchmark"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "infeasible"
    assert report["binding_etas"] == [22.0]
    assert report["benchmark_rescaled"] is True
    assert run(["solve", "--instance", path]) == 2
    assert "benchmark_rescaled" not in json.loads(capsys.readouterr().out)


def test_gen_portfolio_writes_sparse_rows_that_solve_as_dense(tmp_path, capsys):
    """The shipped config is 8.3 % nonzero, so every row is written sparse."""
    config = Path(__file__).resolve().parent.parent / "instances" / "portfolio_config.json"
    sparse_path = tmp_path / "sparse.json"
    assert run(["gen-portfolio", "--config", str(config), "--out", str(sparse_path)]) == 0
    obj = json.loads(sparse_path.read_text())
    assert all(isinstance(row, dict) for block in obj["P"] for row in block)
    inst = parse_instance(obj).instance
    dense = {**obj, "P": np.split(inst.kernel, inst.pair_offsets[1:-1])}
    dense_path = tmp_path / "dense.json"
    dense_path.write_text(dumps(dense))
    assert len(sparse_path.read_bytes()) < len(dense_path.read_bytes())
    capsys.readouterr()
    assert run(["solve", "--instance", str(sparse_path)]) == 0
    report = capsys.readouterr().out
    assert run(["solve", "--instance", str(dense_path)]) == 0
    assert capsys.readouterr().out == report
