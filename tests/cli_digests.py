"""Byte-identity differential: digests of a seeded corpus of domdp CLI runs.

Run it from the repository root, once for each checkout to compare:

    PYTHONPATH=src python tests/cli_digests.py digests.json

Every case calls ``domdp.cli.run`` in-process and records
``[exit code, sha256 of stdout, first line of stderr]`` under the case name.
Two checkouts write identical files when no report byte, exit code or error
line changed, so ``diff`` of the two files lists every changed case. The
corpus covers ``solve`` (plain, ``--rescale-benchmark`` and ``--tol``),
``oracle``, ``alp`` at two seeds, ``simulate`` and ``check-dominance`` (icv
and icx) on seeded random instances in both modes (some with
``extra_grid``, some with a generator family, some with an infeasible
benchmark), the shipped ``instances/ti1*`` files, non-finite inputs, an
oracle over more policies than its limit, and out-of-range numeric
arguments. pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from domdp.cli import run
from helpers import random_benchmark, random_instance

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
NAN = float("nan")


def _instance_obj(inst, bench) -> dict:
    """The instance file schema, written without going through domdp.io."""
    P, r, z = [], [], []
    for s in range(inst.num_states):
        lo, hi = inst.pair_offsets[s], inst.pair_offsets[s + 1]
        P.append(inst.kernel[lo:hi].tolist())
        r.append(inst.reward_r[lo:hi].tolist())
        z.append(inst.reward_z[lo:hi].tolist())
    obj = {
        "states": inst.num_states,
        "actions": [list(a) for a in inst.actions],
        "P": P,
        "r": r,
        "z": z,
        "mode": inst.mode,
        "benchmark": {"support": bench.support.tolist(), "probs": bench.probs.tolist()},
    }
    if inst.mode == "discounted":
        obj["discount"] = inst.discount
        obj["initial"] = inst.initial.tolist()
    return obj


def _ti1_obj(**changes) -> dict:
    obj = json.loads((INSTANCES / "ti1.json").read_text())
    obj.update(changes)
    return obj


class _Corpus:
    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.cases: list[tuple[str, list[str], dict]] = []

    def file(self, name: str, obj) -> str:
        path = self.tmp / f"{name}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def add(self, name: str, argv: list[str], patch: dict | None = None) -> None:
        self.cases.append((name, argv, patch or {}))


def _random_cases(c: _Corpus, rng: np.random.Generator, count: int) -> None:
    for i in range(count):
        mode = "average" if i % 2 == 0 else "discounted"
        inst = random_instance(rng, max_states=5, max_actions=3, mode=mode)
        bench = random_benchmark(rng, inst, max_support=3)
        obj = _instance_obj(inst, bench)
        scale = 1.0 / (1.0 - inst.discount) if mode == "discounted" else 1.0
        span = float(inst.reward_z.max() - inst.reward_z.min()) + 1.0
        kind = i % 5
        support = np.asarray(obj["benchmark"]["support"])
        if kind == 1:  # shifted below min z: feasible
            obj["benchmark"]["support"] = (support - span * scale).tolist()
        elif kind == 2:  # shifted above max z: infeasible
            obj["benchmark"]["support"] = (support + span * scale).tolist()
        elif kind == 3:
            obj["extra_grid"] = np.round(rng.uniform(-3.0, 3.0, size=3) * scale, 3).tolist()
        elif kind == 4:
            etas = np.round(np.sort(rng.uniform(-2.0, 1.0, size=2)) * scale, 3)
            obj["family"] = {"weights": [[1.0]], "etas": etas.tolist()}
        name = f"rand{i:02d}-{mode}-k{kind}"
        path = c.file(name, obj)
        c.add(f"{name}/solve", ["solve", "--instance", path])
        if mode == "discounted":
            c.add(f"{name}/solve-rescale", ["solve", "--instance", path, "--rescale-benchmark"])
        else:
            c.add(f"{name}/solve-tol", ["solve", "--instance", path, "--tol", "1e-7"])
        c.add(f"{name}/oracle", ["oracle", "--instance", path])
        S = inst.num_states
        keep = S if i % 3 else max(1, S - 2)
        basis = {
            "h": np.eye(S)[:keep].tolist(),
            "u_lambdas": [[[float(eta), 1.0]] for eta in obj["benchmark"]["support"]],
        }
        basis_path = c.file(f"{name}-basis", basis)
        for seed in ("0", "1"):
            c.add(
                f"{name}/alp-seed{seed}",
                ["alp", "--instance", path, "--epsilon", "0.3", "--delta", "0.1",
                 "--basis", basis_path, "--seed", seed],
            )
        if i % 2:
            rows = [[s, np.full(len(a), 1.0 / len(a)).tolist()] for s, a in enumerate(inst.actions)]
        else:
            rows = [
                [s, np.eye(len(a))[int(rng.integers(len(a)))].tolist()]
                for s, a in enumerate(inst.actions)
            ]
        policy = c.file(f"{name}-policy", rows)
        c.add(
            f"{name}/simulate",
            ["simulate", "--instance", path, "--policy", policy, "--paths", "3",
             "--horizon", "200", "--seed", str(i)],
        )


def _dominance_cases(c: _Corpus, rng: np.random.Generator, count: int) -> None:
    for i in range(count):
        x_n, y_n = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        x = {
            "support": np.round(rng.uniform(-2.0, 2.0, size=x_n), 2).tolist(),
            "probs": rng.dirichlet(np.ones(x_n)).tolist(),
        }
        y = {
            "support": np.round(rng.uniform(-2.0, 2.0, size=y_n), 2).tolist(),
            "probs": rng.dirichlet(np.ones(y_n)).tolist(),
        }
        if i % 4 == 0:
            y = x
        xp, yp = c.file(f"dist{i:02d}-x", x), c.file(f"dist{i:02d}-y", y)
        for order in ("icv", "icx"):
            c.add(
                f"dist{i:02d}/check-{order}",
                ["check-dominance", "--x", xp, "--benchmark", yp, "--order", order],
            )


def _shipped_cases(c: _Corpus) -> None:
    ti1 = str(INSTANCES / "ti1.json")
    basis = str(INSTANCES / "ti1_basis.json")
    for name in ("ti1", "ti1_unattainable", "ti1_discounted"):
        path = str(INSTANCES / f"{name}.json")
        c.add(f"{name}/solve", ["solve", "--instance", path])
        c.add(f"{name}/solve-rescale", ["solve", "--instance", path, "--rescale-benchmark"])
        c.add(f"{name}/oracle", ["oracle", "--instance", path])
        for seed in ("0", "1"):
            c.add(
                f"{name}/alp-seed{seed}",
                ["alp", "--instance", path, "--epsilon", "0.25", "--delta", "0.1",
                 "--basis", basis, "--seed", seed],
            )
    c.add(
        "ti1/simulate",
        ["simulate", "--instance", ti1, "--policy", str(INSTANCES / "ti1_policy.json"),
         "--paths", "3", "--horizon", "1000"],
    )


def _edge_cases(c: _Corpus) -> None:
    """Inputs whose handling changed on purpose: non-finite values, limits, ranges."""
    discounted = {"mode": "discounted", "discount": 0.5, "initial": [1.0]}
    bad_instances = {
        "P-nan": _ti1_obj(P=[[[NAN], [1.0]]]),
        "r-nan": _ti1_obj(r=[[NAN, 5.0]]),
        "r-inf": _ti1_obj(r=[[float("inf"), 5.0]]),
        "z-nan": _ti1_obj(z=[[NAN, 0.0]]),
        "probs-nan": _ti1_obj(benchmark={"support": [4.0], "probs": [NAN]}),
        "support-nan": _ti1_obj(benchmark={"support": [NAN], "probs": [1.0]}),
        "extra-grid-nan": _ti1_obj(extra_grid=[NAN]),
        "initial-nan": _ti1_obj(**{**discounted, "initial": [NAN]}),
        "discount-inf": _ti1_obj(**{**discounted, "discount": float("inf")}),
    }
    for name, obj in bad_instances.items():
        path = c.file(f"nonfinite-{name}", obj)
        c.add(f"nonfinite-{name}/solve", ["solve", "--instance", path])
        c.add(f"nonfinite-{name}/oracle", ["oracle", "--instance", path])
    ti1 = str(INSTANCES / "ti1.json")
    nan_basis = c.file("nonfinite-basis", {"h": [[NAN]]})
    c.add(
        "nonfinite-basis/alp",
        ["alp", "--instance", ti1, "--epsilon", "0.25", "--delta", "0.1", "--basis", nan_basis],
    )
    nan_x = c.file("nonfinite-x", {"support": [NAN], "probs": [1.0]})
    good = c.file("dist-point", {"support": [1.0], "probs": [1.0]})
    c.add("nonfinite-x/check-icv", ["check-dominance", "--x", nan_x, "--benchmark", good])

    two_by_two = c.file(
        "oracle-limit",
        _ti1_obj(states=2, actions=[["a", "b"], ["a", "b"]],
                 P=[[[0.5, 0.5], [1.0, 0.0]], [[0.0, 1.0], [0.5, 0.5]]],
                 r=[[1.0, 0.0], [0.5, 2.0]], z=[[1.0, 0.0], [2.0, 0.5]],
                 benchmark={"support": [0.5], "probs": [1.0]}),
    )
    c.add("oracle-limit/oracle", ["oracle", "--instance", two_by_two], {"MAX_POLICIES": 3})

    policy = str(INSTANCES / "ti1_policy.json")
    c.add("range/solve-tol-negative", ["solve", "--instance", ti1, "--tol", "-1"])
    for flag in ("--paths", "--horizon"):
        c.add(
            f"range/simulate{flag}-0",
            ["simulate", "--instance", ti1, "--policy", policy, flag, "0"],
        )


def _run_case(argv: list[str], patch: dict) -> list:
    simulate_module = importlib.import_module("domdp.simulate")
    saved = {k: getattr(simulate_module, k) for k in patch}
    out, err = io.StringIO(), io.StringIO()
    try:
        for k, v in patch.items():
            setattr(simulate_module, k, v)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            # Warning lines name the source file, which differs between checkouts.
            warnings.simplefilter("ignore")
            try:
                code = run(argv)
            except Exception as exc:  # a traceback in the CLI is a result too
                code = f"raised {type(exc).__name__}"
                print(exc, file=sys.stderr)
    finally:
        for k, v in saved.items():
            setattr(simulate_module, k, v)
    first_err = err.getvalue().partition("\n")[0]
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest(), first_err]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/cli_digests.py OUT.json", file=sys.stderr)
        return 1
    rng = np.random.default_rng(20260401)
    with tempfile.TemporaryDirectory() as tmp:
        c = _Corpus(Path(tmp))
        _random_cases(c, rng, 40)
        _dominance_cases(c, rng, 30)
        _shipped_cases(c)
        _edge_cases(c)
        digests = {name: _run_case(args, patch) for name, args, patch in c.cases}
    Path(argv[0]).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} cases -> {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
