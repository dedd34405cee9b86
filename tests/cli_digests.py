"""Byte-identity differential: digests of a seeded corpus of domdp CLI runs.

Run it from the repository root of the older checkout to write its digests,
then from the newer one with ``--compare`` to check against them:

    PYTHONPATH=src python tests/cli_digests.py digests.json
    PYTHONPATH=src python tests/cli_digests.py --compare digests.json

Every case calls ``domdp.cli.run`` in-process and records
``[exit code, sha256 of stdout, first line of stderr]`` under the case name;
a case that writes a file (``--out``) appends the sha256 of that file. The
corpus's temporary directory reads as ``<tmp>`` in stdout and stderr.
Two checkouts write identical files when no report byte, exit code or error
line changed. ``--compare OLD.json`` runs the corpus, prints the name of
every case whose digest differs from OLD.json's or that only one side has,
beside the parts that changed (exit code, stdout, stderr line, written
file), then a count of identical cases, and exits 1 if any case differs. The
corpus covers ``solve`` (plain, ``--rescale-benchmark`` and ``--tol``),
``oracle``, ``alp`` at two seeds, ``simulate`` and ``check-dominance`` (icv
and icx) on seeded random instances in both modes (some with
``extra_grid``, some with a generator family, some with an infeasible
benchmark), the shipped ``instances/ti1*`` files, ``solve --out`` (also into a
missing directory), ``gen-portfolio`` on the shipped config (also at
resolutions 400 and 1000, whose kernels are too large to build) and on one
with ``initial_holdings``, ``gen-portfolio`` and ``solve`` on the benchmark's
3-asset config at resolution 3 (a sparse LP), ``alp`` with a
block-aggregation basis in both modes, non-finite and otherwise invalid
instances passed to ``solve``, ``oracle`` and ``simulate``, a generator
family with non-dyadic weights in both modes, an infeasible generator family
in both modes (certificates naming ``dominance[xi=i]`` rows), vector z
passed to ``oracle`` and a vector benchmark to ``check-dominance``, input
files with JSON of the wrong types (strings and booleans among them where
a policy, a basis or a portfolio config needs a number), a ragged kernel
row or two faults at once, or nested past the recursion limit, an
oracle over more policies than its limit, out-of-range numeric arguments,
one long ``simulate`` on a random instance of 6 to 8 states and one on a
5-cycle whose copies never meet, a ``simulate`` and an ``alp`` whose arrays
would exceed the 64-bit address space, and decoding:
an instance and a policy written with ``indent=2``, ``-0.0`` and ``1e400``
in r, action labels holding ``]`` and ``"``, 20-digit integers in a basis,
blocks past the last state and a policy that lists a state twice, and kernels
in sparse rows: two instances (one per mode) passed to ``solve`` and
``oracle``, a 120-state average-mode instance 3.3 % nonzero passed to
``solve`` and ``simulate``, and one malformed row of each kind, beside strings, booleans and
a 400-digit integer where the schema needs a number, and a discounted
instance split into closed classes, whose greedy start is inverted block by
block.
pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import dataclasses
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
from domdp.mdp import MdpInstance
from helpers import random_benchmark, random_instance, sparse_average_instance

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
NAN = float("nan")
INF = float("inf")


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
        self.cases: list[tuple[str, list[str], dict, Path | None]] = []

    def file(self, name: str, obj) -> str:
        path = self.tmp / f"{name}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def add(self, name: str, argv: list[str], patch: dict | None = None) -> None:
        self.cases.append((name, argv, patch or {}, None))

    def add_written(self, name: str, argv: list[str]) -> str:
        """A case whose digest also hashes the file it writes to ``--out``; returns its path."""
        out = self.tmp / f"{name.replace('/', '-')}.out.json"
        self.cases.append((name, argv + ["--out", str(out)], {}, out))
        return str(out)


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
    c.add_written(
        "ti1_discounted/solve-out", ["solve", "--instance", str(INSTANCES / "ti1_discounted.json")]
    )
    c.add(
        "ti1_discounted/solve-out-missing-dir",
        ["solve", "--instance", str(INSTANCES / "ti1_discounted.json"),
         "--out", str(c.tmp / "missing" / "report.json")],
    )
    shipped = INSTANCES / "portfolio_config.json"
    c.add_written("portfolio_config/gen", ["gen-portfolio", "--config", str(shipped)])
    config = json.loads(shipped.read_text())
    # Kernels of 648016 x 6416 and 4020016 x 16016 entries, refused up front.
    for res in (400, 1000):
        path = c.file(f"portfolio-r{res}", {**config, "resolution": res})
        c.add_written(f"portfolio_config-r{res}/gen", ["gen-portfolio", "--config", path])
    held = {
        **config,
        "price_levels": config["price_levels"] + [[1.0, 1.1]],
        "price_transitions": config["price_transitions"] + config["price_transitions"][:1],
        "resolution": 2,
        "initial_holdings": [0.5, 0.0, 0.5],
    }
    c.add_written(
        "portfolio-held/gen", ["gen-portfolio", "--config", c.file("portfolio-held", held)]
    )
    # The benchmark's 3-asset config at resolution 3: a sparse 642 x 1952 LP,
    # solved from the greedy start.
    bench_config = {
        "price_levels": [[1.0, 1.2], [1.0, 0.8], [1.0, 1.1]],
        "price_transitions": [[[0.7, 0.3], [0.4, 0.6]]] * 3,
        "resolution": 3,
        "discount": 0.9,
        "benchmark": {"support": [-0.4, 0.0], "probs": [0.5, 0.5]},
    }
    r3 = c.add_written(
        "portfolio-r3/gen", ["gen-portfolio", "--config", c.file("portfolio-r3", bench_config)]
    )
    c.add("portfolio-r3/solve", ["solve", "--instance", r3])


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
    ti1_policy = str(INSTANCES / "ti1_policy.json")
    for name, obj in bad_instances.items():
        path = c.file(f"nonfinite-{name}", obj)
        c.add(f"nonfinite-{name}/solve", ["solve", "--instance", path])
        c.add(f"nonfinite-{name}/oracle", ["oracle", "--instance", path])
        c.add(
            f"nonfinite-{name}/simulate", ["simulate", "--instance", path, "--policy", ti1_policy]
        )
    ti1 = str(INSTANCES / "ti1.json")
    invalid_instances = {
        "P-row-sum-half": _ti1_obj(P=[[[0.5], [1.0]]]),
        "P-negative": _ti1_obj(P=[[[-0.5], [1.0]]]),
        "no-initial": _ti1_obj(mode="discounted", discount=0.5),
        "discount-one": _ti1_obj(**{**discounted, "discount": 1.0}),
        "probs-half": _ti1_obj(benchmark={"support": [4.0], "probs": [0.5]}),
        "extra-grid-2d": _ti1_obj(extra_grid=[[1.0]]),
    }
    for name, obj in invalid_instances.items():
        path = c.file(f"invalid-{name}", obj)
        for command in ("solve", "oracle", "simulate"):
            argv = [command, "--instance", path]
            argv += ["--policy", ti1_policy] if command == "simulate" else []
            c.add(f"invalid-{name}/{command}", argv)
    bad_bases = {"basis": {"h": [[NAN]]}, "u-eta": {"h": [[1.0]], "u_lambdas": [[[NAN, 1.0]]]}}
    for name, obj in bad_bases.items():
        basis = c.file(f"nonfinite-{name}", obj)
        c.add(
            f"nonfinite-{name}/alp",
            ["alp", "--instance", ti1, "--epsilon", "0.25", "--delta", "0.1", "--basis", basis],
        )
    for name, family in {"weight": {"weights": [[NAN]], "etas": [4.0]},
                         "eta": {"weights": [[1.0]], "etas": [NAN]}}.items():
        path = c.file(f"nonfinite-family-{name}", _ti1_obj(family=family))
        c.add(f"nonfinite-family-{name}/solve", ["solve", "--instance", path])
    nan_policy = c.file("nonfinite-policy", {"policy": [[0, [NAN, 1.0]]]})
    c.add("nonfinite-policy/simulate", ["simulate", "--instance", ti1, "--policy", nan_policy])
    c.add(
        "nonfinite-grid/simulate",
        ["simulate", "--instance", ti1, "--policy", str(INSTANCES / "ti1_policy.json"),
         "--grid", "nan"],
    )
    nan_x = c.file("nonfinite-x", {"support": [NAN], "probs": [1.0]})
    good = c.file("dist-point", {"support": [1.0], "probs": [1.0]})
    c.add("nonfinite-x/check-icv", ["check-dominance", "--x", nan_x, "--benchmark", good])
    vector = {"support": [[4.0, 1.0]], "probs": [1.0]}
    vector_z = _ti1_obj(z=[[[10.0, 1.0], [0.0, 2.0]]], benchmark=vector)
    for name, obj in {
        "family": {**vector_z, "family": {"weights": [[0.5, 0.5]], "etas": [4.0]}},
        "vector-benchmark": vector_z,
        "scalar-benchmark": {**vector_z, "benchmark": {"support": [4.0], "probs": [1.0]}},
    }.items():
        c.add(f"vector-z-{name}/oracle", ["oracle", "--instance", c.file(f"vector-z-{name}", obj)])
    c.add(
        "vector-benchmark/check-icv",
        ["check-dominance", "--x", good, "--benchmark", c.file("vector-benchmark", vector)],
    )

    _wrong_type_cases(c)

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
    c.add("range/solve-tol-zero", ["solve", "--instance", ti1, "--tol", "0"])
    c.add("range/solve-tol-inf", ["solve", "--instance", ti1, "--tol", "inf"])
    for flag in ("--paths", "--horizon"):
        c.add(
            f"range/simulate{flag}-0",
            ["simulate", "--instance", ti1, "--policy", policy, flag, "0"],
        )


def _inexact_family_cases(c: _Corpus) -> None:
    """A family whose weights are not dyadic, so <w, z> rounds, solved in both modes.

    Seed 5 makes both solves optimal with a positive family multiplier.
    """
    rng = np.random.default_rng(5)
    for mode in ("average", "discounted"):
        inst = random_instance(rng, max_states=6, max_actions=3, mode=mode)
        obj = _instance_obj(inst, random_benchmark(rng, inst))
        z = rng.uniform(-2.0, 2.0, size=(inst.num_pairs, 2))
        obj["z"] = [z[lo:hi].tolist() for lo, hi in zip(inst.pair_offsets, inst.pair_offsets[1:])]
        scale = 1.0 / (1.0 - inst.discount) if mode == "discounted" else 1.0
        support = np.round(rng.uniform(-0.5, 0.75, size=(3, 2)) * scale, 3)
        obj["benchmark"] = {"support": support.tolist(), "probs": [0.2, 0.3, 0.5]}
        obj["family"] = {"weights": [[0.3, 0.7]], "etas": (support @ [0.3, 0.7]).tolist()}
        path = c.file(f"family-{mode}", obj)
        c.add(f"family-inexact-{mode}/solve", ["solve", "--instance", path])


def _infeasible_family_cases(c: _Corpus) -> None:
    """A family kinked at benchmark points above every z, solved in both modes.

    No measure meets the family rows, so both reports carry a certificate
    that names dominance rows by parameter index (``dominance[xi=i]``).
    """
    rng = np.random.default_rng(11)
    for mode in ("average", "discounted"):
        inst = random_instance(rng, max_states=5, max_actions=3, mode=mode)
        obj = _instance_obj(inst, random_benchmark(rng, inst, max_support=3))
        scale = 1.0 / (1.0 - inst.discount) if mode == "discounted" else 1.0
        span = float(inst.reward_z.max() - inst.reward_z.min()) + 1.0
        support = (np.asarray(obj["benchmark"]["support"]) + span * scale).tolist()
        obj["benchmark"]["support"] = support
        obj["family"] = {"weights": [[1.0]], "etas": support}
        path = c.file(f"family-infeasible-{mode}", obj)
        c.add(f"family-infeasible-{mode}/solve", ["solve", "--instance", path])


def _wrong_type_cases(c: _Corpus) -> None:
    """Input files whose JSON types do not fit the schema or nest too deep: each exits 1."""
    ti1 = str(INSTANCES / "ti1.json")
    instances = {
        "states-list": {"states": [1]},
        "actions-number": {"actions": 5},
        "P-number": {"P": 3},
        "P-list-of-number": {"P": [3]},
        "P-dict": {"P": {"0": 1}},
        "P-empty": {"P": []},
        "r-list-of-number": {"r": [3]},
        "z-mixed": {"z": [[1.0, [2.0]]]},
        "discount-list": {"discount": [0.5]},
        "initial-dict": {"initial": {"a": 1}},
        "family-weights-number": {"family": {"weights": 1, "etas": [4.0]}},
        # A ragged row, and two faults at once: the first in file order is reported.
        "P-ragged-row": {"P": [[[[0.5], [0.5, 0.5]], [1.0]]], "r": [[2.0, "y"]]},
        "P-wide-row-z-str": {"P": [[[1.0], [1.0, 0.0]]], "z": [[10.0, "y"]]},
        "P-extra-block-z-str": {"P": [[[1.0], [1.0]]] * 2, "z": [[10.0, "y"]]},
    }
    for name, change in instances.items():
        path = c.file(f"type-instance-{name}", _ti1_obj(**change))
        c.add(f"type-instance-{name}/solve", ["solve", "--instance", path])
    policy = str(INSTANCES / "ti1_policy.json")
    policies = {
        "state-list": [[[0], [0.5, 0.5]]],
        "row-dict": [[0, {"a": 1}]],
        "row-bool": {"policy": [[0, [True, False]]]},
        "row-str": {"policy": [[0, ["1.0", "0"]]]},
    }
    for name, rows in policies.items():
        path = c.file(f"type-policy-{name}", rows)
        c.add(f"type-policy-{name}/simulate", ["simulate", "--instance", ti1, "--policy", path])
    point = c.file("type-dist-point", {"support": [1.0], "probs": [1.0]})
    support_dict = c.file("type-support-dict", {"support": {"a": 1}, "probs": [1.0]})
    c.add(
        "type-support-dict/check-x",
        ["check-dominance", "--x", support_dict, "--benchmark", point],
    )
    c.add(
        "type-support-dict/check-benchmark",
        ["check-dominance", "--x", point, "--benchmark", support_dict],
    )
    bases = {"h-dict": {"h": {"a": 1}}, "str-bool": {"h": [["1.0"]], "u_lambdas": [[["4.0", True]]]}}
    for name, obj in bases.items():
        basis = c.file(f"type-basis-{name}", obj)
        c.add(
            f"type-basis-{name}/alp",
            ["alp", "--instance", ti1, "--epsilon", "0.25", "--delta", "0.1", "--basis", basis],
        )
    config = json.loads((INSTANCES / "portfolio_config.json").read_text())
    configs = {
        "levels-number": {**config, "price_levels": 3},
        "resolution-list": {**config, "resolution": [1]},
        "bare-list": [config],
        "str-bool": {**config, "discount": "0.9", "price_levels": [[1.0, True], [1.0, 0.8]]},
    }
    for name, obj in configs.items():
        path = c.file(f"type-config-{name}", obj)
        c.add_written(f"type-config-{name}/gen", ["gen-portfolio", "--config", path])
    deep = c.tmp / "deep-nesting.json"
    deep.write_text("[" * 100_000)   # past the recursion limit of the JSON decoder
    c.add("deep-nesting/solve", ["solve", "--instance", str(deep)])


def _long_simulation(c: _Corpus, rng: np.random.Generator) -> None:
    """One multi-state simulation long enough to drive the step loop at length."""
    inst = random_instance(rng, max_states=8, max_actions=4)
    while inst.num_states < 6:
        inst = random_instance(rng, max_states=8, max_actions=4)
    path = c.file("long", _instance_obj(inst, random_benchmark(rng, inst, max_support=4)))
    rows = []
    for s, acts in enumerate(inst.actions):
        row = rng.dirichlet(np.ones(len(acts))) * (rng.random(len(acts)) > 0.3)
        if row.sum() == 0.0:
            row[0] = 1.0
        rows.append([s, (row / row.sum()).tolist()])
    policy = c.file("long-policy", rows)
    c.add(
        "long/simulate",
        ["simulate", "--instance", path, "--policy", policy, "--paths", "4",
         "--horizon", "30000", "--seed", "11"],
    )


def _never_meeting_simulation(c: _Corpus) -> None:
    """A 5-cycle with two actions a state, both moving one state on: copies of
    the chain never meet, so a long run takes the one-step loop after probing."""
    rng = np.random.default_rng(9)
    S = 5
    inst = MdpInstance(
        num_states=S,
        actions=(("a", "b"),) * S,
        kernel=np.roll(np.eye(S), 1, axis=1).repeat(2, axis=0),
        reward_r=rng.normal(size=2 * S),
        reward_z=rng.uniform(-2.0, 2.0, size=2 * S),
        mode="average",
    )
    path = c.file("cycle5", _instance_obj(inst, random_benchmark(rng, inst, max_support=4)))
    policy = c.file("cycle5-policy", [[s, rng.dirichlet(np.ones(2)).tolist()] for s in range(S)])
    c.add(
        "cycle5/simulate",
        ["simulate", "--instance", path, "--policy", policy, "--paths", "4",
         "--horizon", "30000", "--seed", "11"],
    )


def _out_of_memory_cases(c: _Corpus) -> None:
    """Arrays past the 64-bit address space (6.94 EiB of simulate keys, 3.17 EiB
    of ALP samples), which NumPy refuses before allocating anything."""
    ti1 = str(INSTANCES / "ti1.json")
    c.add(
        "oom/simulate",
        ["simulate", "--instance", ti1, "--policy", str(INSTANCES / "ti1_policy.json"),
         "--paths", "1", "--horizon", "1000000000000000000"],
    )
    c.add(
        "oom/alp",
        ["alp", "--instance", ti1, "--basis", str(INSTANCES / "ti1_basis.json"),
         "--epsilon", "1e-15", "--delta", "0.1"],
    )


def _alp_block_cases(c: _Corpus) -> None:
    """One ALP per mode on perfbench's basis shape: five state blocks and a kink.

    Each h row spans a block of states, so every constraint row carries a
    dense h-term; the instances have more pairs than the sample, so the test
    sample's violation fraction is not 0.
    """
    rng = np.random.default_rng(6)  # both optimal, alpha > 0 and violations > 0
    for mode in ("average", "discounted"):
        inst = random_instance(rng, max_states=20, max_actions=40, mode=mode)
        while inst.num_states < 10:
            inst = random_instance(rng, max_states=20, max_actions=40, mode=mode)
        bench = random_benchmark(rng, inst, max_support=3)
        S = inst.num_states
        H = np.zeros((5, S))
        for j in range(5):
            H[j, j * S // 5 : (j + 1) * S // 5] = 1.0
        basis = {"h": H.tolist(), "u_lambdas": [[[float(np.median(bench.support)), 1.0]]]}
        path = c.file(f"block-{mode}", _instance_obj(inst, bench))
        c.add(
            f"block-{mode}/alp",
            ["alp", "--instance", path, "--epsilon", "0.3", "--delta", "0.1",
             "--basis", c.file(f"block-{mode}-basis", basis)],
        )


def _decode_cases(c: _Corpus) -> None:
    """Input text the reader must decode as ``json`` does, and blocks past the last state."""
    rng = np.random.default_rng(12)
    inst = random_instance(rng, max_states=6, max_actions=3)
    indented = c.tmp / "indent.json"
    indented.write_text(json.dumps(_instance_obj(inst, random_benchmark(rng, inst)), indent=2))
    rows = [[s, rng.dirichlet(np.ones(len(a))).tolist()] for s, a in enumerate(inst.actions)]
    policy = c.tmp / "indent-policy.json"
    policy.write_text(json.dumps({"policy": rows}, indent=2))
    c.add("indent/solve", ["solve", "--instance", str(indented)])
    c.add(
        "indent/simulate",
        ["simulate", "--instance", str(indented), "--policy", str(policy), "--paths", "2",
         "--horizon", "300"],
    )
    labels = _ti1_obj(actions=[['a]', 'b"[']], r=[[-0.0, 5.0]])
    c.add("labels-negative-zero/solve", ["solve", "--instance", c.file("labels", labels)])
    overflow = c.tmp / "labels-overflow.json"
    overflow.write_text(json.dumps({**labels, "r": [[-0.0, INF]]}).replace("Infinity", "1e400"))
    c.add("labels-overflow/solve", ["solve", "--instance", str(overflow)])
    basis = {"h": [[1.0]], "u_lambdas": [[[4, 12345678901234567890], [5, 98765432109876543210]]]}
    c.add(
        "basis-20-digit-ints/alp",
        ["alp", "--instance", str(INSTANCES / "ti1.json"), "--epsilon", "0.25", "--delta", "0.1",
         "--basis", c.file("basis-20-digit-ints", basis)],
    )
    ti1 = _ti1_obj()
    extra = {key: ti1[key] + ti1[key][:1] for key in ("P", "r", "z")}
    c.add("extra-blocks/solve", ["solve", "--instance", c.file("extra-blocks", _ti1_obj(**extra))])
    twice = c.file("policy-state-twice", [[0, [0.0, 1.0]], [0, [1.0, 0.0]]])
    c.add(
        "policy-state-twice/simulate",
        ["simulate", "--instance", str(INSTANCES / "ti1.json"), "--policy", twice],
    )


def _sparse_obj(inst, bench) -> dict:
    """``_instance_obj`` with every kernel row as {"to": [...], "p": [...]}."""
    obj = _instance_obj(inst, bench)
    obj["P"] = [
        [{"to": [j for j, v in enumerate(row) if v], "p": [v for v in row if v]} for row in block]
        for block in obj["P"]
    ]
    return obj


def _sparse_cases(c: _Corpus) -> None:
    """Instances with sparse kernel rows, solved in both modes, and malformed ones."""
    rng = np.random.default_rng(19)
    for mode in ("average", "discounted"):
        inst = random_instance(rng, max_states=9, max_actions=3, mode=mode)
        S = inst.num_states
        kernel = np.zeros((inst.num_pairs, S))
        for k, s in enumerate(inst.state_of_pair()):
            # Every row moves on to s + 1 (mod S), so every policy is unichain.
            to = np.union1d([(s + 1) % S], rng.choice(S, size=int(rng.integers(0, 3))))
            kernel[k, to] = rng.dirichlet(np.ones(to.size))
        inst = dataclasses.replace(inst, kernel=kernel)
        path = c.file(f"sparse-{mode}", _sparse_obj(inst, random_benchmark(rng, inst)))
        c.add(f"sparse-{mode}/solve", ["solve", "--instance", path])
        c.add(f"sparse-{mode}/oracle", ["oracle", "--instance", path])
    two = _ti1_obj(states=2, actions=[["a", "b"], ["a"]], r=[[1.0, 0.0], [0.5]],
                   z=[[1.0, 0.0], [2.0]], benchmark={"support": [0.5], "probs": [1.0]})

    def row(to, p, s=0, a=1):
        P = [[{"to": [0, 1], "p": [0.5, 0.5]}, {"to": [0], "p": [1.0]}], [{"to": [1], "p": [1.0]}]]
        P[s][a] = {"to": to, "p": p}
        return {**two, "P": P}

    discounted = {"mode": "discounted", "discount": 0.5, "initial": [1.0]}
    malformed = {
        "sparse-valid": row([0], [1.0]),
        "sparse-index-float": row([0.0], [1.0]),
        "sparse-index-str": row(["0"], [1.0]),
        "sparse-index-bool": row([False], [1.0]),
        "sparse-index-negative": row([-1], [1.0]),
        "sparse-index-out-of-range": row([2], [1.0]),
        "sparse-index-repeated": row([0, 0], [0.5, 0.5]),
        "sparse-index-unsorted": row([1, 0], [0.5, 0.5]),
        "sparse-lengths-differ": row([0, 1], [1.0]),
        "sparse-p-str": row([0], ["1.0"]),
        "sparse-p-bool": row([0], [True]),
        "sparse-to-number": row(0, [1.0]),
        "sparse-no-p": {**two, "P": [[{"to": [0]}, [1.0, 0.0]], [[0.0, 1.0]]]},
        "sparse-in-r": _ti1_obj(r=[[{"to": [0], "p": [1.0]}, 5.0]]),
        "sparse-as-block": _ti1_obj(P=[{"to": [0], "p": [1.0]}]),
        "sparse-fault-then-bad-r": {**row([0, 0], [0.5, 0.5]), "r": [[1.0, 0.0], ["y"]]},
        "r-str": _ti1_obj(r=[["2.0", 5.0]]),
        "r-bool": _ti1_obj(r=[[True, 5.0]]),
        "r-huge-int": _ti1_obj(r=[[10**400, 5.0]]),
        "z-str": _ti1_obj(z=[[10.0, "0"]]),
        "P-str": _ti1_obj(P=[[["1.0"], [1.0]]]),
        "P-bool": _ti1_obj(P=[[[True], [1.0]]]),
        "P-bool-second": _ti1_obj(P=[[[1.0], [True]]]),
        "P-bool-only": _ti1_obj(P=[[[True], [True]]]),
        "support-str": _ti1_obj(benchmark={"support": ["4.0"], "probs": [1.0]}),
        "probs-bool": _ti1_obj(benchmark={"support": [4.0], "probs": [True]}),
        "extra-grid-str": _ti1_obj(extra_grid=["2.0"]),
        "discount-str": _ti1_obj(**{**discounted, "discount": "0.5"}),
        "initial-bool": _ti1_obj(**{**discounted, "initial": [True]}),
    }
    for name, obj in malformed.items():
        c.add(f"type-{name}/solve", ["solve", "--instance", c.file(f"type-{name}", obj)])
    # An average-mode kernel 3.3 % nonzero, held as compressed rows through the solve.
    inst, bench = sparse_average_instance()
    path = c.file("sparse-average-120", _sparse_obj(inst, bench))
    c.add("sparse-average-120/solve", ["solve", "--instance", path])
    policy = c.file("sparse-average-120-policy",
                    [[s, rng.dirichlet(np.ones(3)).tolist()] for s in range(inst.num_states)])
    c.add(
        "sparse-average-120/simulate",
        ["simulate", "--instance", path, "--policy", policy, "--paths", "3",
         "--horizon", "5000", "--seed", "5"],
    )


def _closed_class_cases(c: _Corpus) -> None:
    """A discounted instance whose every policy splits into closed classes of
    3, 3 and 2 states, so the greedy start's inverse is taken block by block."""
    rng = np.random.default_rng(8)
    classes = np.repeat([0, 1, 2], [3, 3, 2])
    counts = rng.integers(1, 4, size=classes.size)
    kernel = np.zeros((counts.sum(), classes.size))
    for k, s in enumerate(np.repeat(classes, counts)):
        own = np.flatnonzero(classes == s)
        kernel[k, own] = rng.dirichlet(np.ones(own.size))
    inst = MdpInstance(
        num_states=classes.size,
        actions=tuple(tuple(f"a{i}" for i in range(n)) for n in counts),
        kernel=kernel,
        reward_r=rng.normal(size=kernel.shape[0]),
        reward_z=rng.uniform(-2.0, 2.0, size=kernel.shape[0]),
        mode="discounted",
        discount=0.9,
        initial=rng.dirichlet(np.ones(classes.size)),
    )
    path = c.file("closed-classes", _instance_obj(inst, random_benchmark(rng, inst)))
    c.add("closed-classes/solve", ["solve", "--instance", path])


def _run_case(argv: list[str], patch: dict, written: Path | None, tmp: Path) -> list:
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
    stdout = out.getvalue().replace(str(tmp), "<tmp>")
    first_err = err.getvalue().partition("\n")[0].replace(str(tmp), "<tmp>")
    digest = [code, hashlib.sha256(stdout.encode()).hexdigest(), first_err]
    if written is not None:
        exists = written.exists()
        digest.append(hashlib.sha256(written.read_bytes()).hexdigest() if exists else None)
    return digest


def _digests() -> dict:
    rng = np.random.default_rng(20260401)
    with tempfile.TemporaryDirectory() as tmp:
        c = _Corpus(Path(tmp))
        _random_cases(c, rng, 40)
        _dominance_cases(c, rng, 30)
        _shipped_cases(c)
        _edge_cases(c)
        _inexact_family_cases(c)
        _infeasible_family_cases(c)
        _long_simulation(c, rng)
        _alp_block_cases(c)
        _decode_cases(c)
        _sparse_cases(c)
        _closed_class_cases(c)
        _never_meeting_simulation(c)
        _out_of_memory_cases(c)
        return {
            name: _run_case(args, patch, written, c.tmp)
            for name, args, patch, written in c.cases
        }


def _difference(old: list | None, new: list | None) -> str:
    """Which parts of a case's digest differ: exit code, stdout, stderr line, written file."""
    if old is None or new is None:
        return "(only in new)" if old is None else "(only in old)"
    parts = ("exit code", "stdout", "stderr line", "written file")
    return ", ".join(part for part, a, b in zip(parts, old, new) if a != b)


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--compare":
        old = json.loads(Path(argv[1]).read_text())
        new = json.loads(json.dumps(_digests()))  # lists, as read back from a file
        names = old.keys() | new.keys()
        changed = sorted(name for name in names if old.get(name) != new.get(name))
        for name in changed:
            print(name, _difference(old.get(name), new.get(name)))
        print(f"{len(names) - len(changed)}/{len(names)} cases identical")
        return 1 if changed else 0
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: python tests/cli_digests.py OUT.json | --compare OLD.json", file=sys.stderr)
        return 1
    digests = _digests()
    Path(argv[0]).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} cases -> {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
