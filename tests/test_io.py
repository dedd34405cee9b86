"""The JSON writer against its element-at-a-time reference, the reader against
``json.loads``, and the instance and policy schemas' block counts."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from domdp.cli import _load_json, run
from domdp.io import dumps, instance_to_obj, loads, parse_instance
from domdp.lp import SPARSE_DENSITY
from domdp.mdp import MdpInstance
from helpers import reference_dumps

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

MAX = 1.7976931348623157e308
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, MAX, -MAX, 0.1, 1e-300]
FLOATS = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
)
INTS = st.integers(min_value=-(2**63), max_value=2**63 - 1)
SHAPES = st.one_of(
    st.just((0,)),
    hnp.array_shapes(min_dims=1, max_dims=1, min_side=1, max_side=8),
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
)


@settings(max_examples=300, deadline=None)
@given(a=hnp.arrays(np.float64, SHAPES, elements=FLOATS))
def test_float_arrays_match_reference(a):
    assert dumps(a) == reference_dumps(a)


@settings(max_examples=200, deadline=None)
@given(a=hnp.arrays(np.int64, SHAPES, elements=INTS))
def test_int_arrays_match_reference(a):
    assert dumps(a) == reference_dumps(a)


@st.composite
def _ragged_blocks(draw):
    """np.split blocks of a 1- or 2-D array, as instance_to_obj writes P, r and z."""
    a = draw(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=8),
                        elements=FLOATS))
    cuts = sorted(draw(st.lists(st.integers(0, a.shape[0]), max_size=4)))
    return np.split(a, cuts)


@settings(max_examples=200, deadline=None)
@given(blocks=_ragged_blocks())
def test_split_blocks_match_reference(blocks):
    assert dumps(blocks) == reference_dumps(blocks)
    assert dumps({"P": blocks}) == '{"P":' + reference_dumps(blocks) + "}"


@settings(max_examples=200, deadline=None)
@given(
    a=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=6),
                 elements=FLOATS),
    where=st.integers(min_value=0),
    bad=st.sampled_from([float("nan"), float("inf"), -float("inf")]),
)
def test_non_finite_anywhere_is_refused(a, where, bad):
    a.flat[where % a.size] = bad
    with pytest.raises(ValueError, match="cannot emit non-finite float"):
        dumps(a)
    with pytest.raises(ValueError, match="cannot emit non-finite float"):
        dumps([np.zeros(2), a])


def test_non_array_dtypes_keep_the_recursion():
    assert dumps(np.array(["a", 1.5], dtype=object)) == '["a",1.5]'
    assert dumps(np.array(7)) == "7"
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps(np.array([True]))


def _same(a, b) -> bool:
    """Equal in structure, in every value's type, and in every float's bits."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(map(_same, a.values(), b.values()))
    return a == b


EDGE_INTS = [2**63, -(2**63), 2**63 - 1, -(2**63) - 1, 2**64, 2**64 - 1, 10**30, -(10**30)]
LEAVES = st.one_of(
    st.integers(),
    st.sampled_from(EDGE_INTS),
    FLOATS,
    st.text(alphabet=st.sampled_from(list('[]{}"\\ ,:a\u00e9')), max_size=6),
    st.booleans(),
    st.none(),
)
DOCUMENTS = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(st.one_of(st.integers(), st.sampled_from(EDGE_INTS), FLOATS), max_size=8),
        st.dictionaries(st.text(alphabet="ab]\"", max_size=3), children, max_size=4),
    ),
    max_leaves=30,
)
WRITERS = [
    json.dumps,
    lambda doc: json.dumps(doc, separators=(",", ":")),
    lambda doc: json.dumps(doc, indent=2),
    lambda doc: json.dumps(doc, ensure_ascii=False),
    dumps,
]


@settings(max_examples=300, deadline=None)
@given(doc=DOCUMENTS)
@example(  # flat arrays at the integer range; the norm of [MAX, MAX] overflows to inf
    doc=[[1.5, 2**63 - 1], [2**63 - 1, 2**63 - 1], [0.5, -(2**63)], [2**63, 1.0],
         [-(2**63) - 1], [2**64 - 1, 0], [2**64], [MAX, MAX], [MAX, 1], []]
)
def test_loads_matches_json_loads(doc):
    for write in WRITERS:
        text = write(doc)
        assert _same(loads(text), json.loads(text)), text


def _plain_load_json(path: str):
    """``cli._load_json`` as it was on ``json.load``: the reference for the reader."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _outcome(load, path: str):
    try:
        return "ok", load(path)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


FIXED_TEXTS = {
    "nan": b'{"a": NaN, "b": [1.5, NaN]}',
    "infinity": b"[Infinity, 1.0]",
    "minus-infinity": b"[[-Infinity], [2]]",
    "overflow": b'{"r": [[1e400, 0.5]]}',
    "trailing-comma": b"[1,]",
    "empty": b"",
    "blank": b" \n",
    "bom": b"\xef\xbb\xbf[1.0]",
    "invalid-utf8": b'[1.0, "\xff"]',
    "deep": b"[" * 100_000,
    "nested-past-the-pure-python-scanner": b"[" * 400 + b"]" * 400,
    "int-below-int64": b"[-9223372036854775809, 0.5]",
    "int-at-uint64-end": b"[18446744073709551616]",
    "null-in-array": b"[1.0, null]",
    "bracket-in-string": b'[["]", 1], "["]',
    "extra-data": b"[1.0] [2.0]",
    "unclosed": b'{"a": [1, 2}',
    "leading-zero": b"[01]",
    "non-ascii-digit": '{"a": 1\u0661}'.encode(),
    "non-ascii-label": '{"actions": [["\u00e9"]], "P": [[0.25, 0.75]]}'.encode(),
}


@pytest.mark.parametrize("raw", FIXED_TEXTS.values(), ids=FIXED_TEXTS.keys())
def test_load_json_matches_plain_json_load(tmp_path, raw):
    path = tmp_path / "in.json"
    path.write_bytes(raw)
    new, old = _outcome(_load_json, str(path)), _outcome(_plain_load_json, str(path))
    assert new[0] == old[0] and _same(new[1], old[1]), (new, old)


def _ti1_obj(**changes) -> dict:
    return {**json.loads((INSTANCES / "ti1.json").read_text()), **changes}


def _one_more_block(key: str) -> dict:
    obj = _ti1_obj()
    return {**obj, key: obj[key] + obj[key][:1]}


EXTRA_ENTRIES = [
    *(
        pytest.param(
            "instance", _one_more_block(key),
            f"'{key}' must list one block per state (1), got 2", id=f"instance-extra-{key}-block",
        )
        for key in ("P", "r", "z")
    ),
    pytest.param(
        "instance",
        _ti1_obj(P=[[[1.0], [1.0]]] * 2, r=[[2.0, 5.0]] * 2, z=[[10.0, 0.0]] * 2),
        "'P' must list one block per state (1), got 2",
        id="instance-extra-block-everywhere",
    ),
    pytest.param(
        "policy", [[0, [0.0, 1.0]], [0, [1.0, 0.0]]], "policy lists state 0 twice",
        id="policy-state-twice",
    ),
]


@pytest.mark.parametrize("role, content, message", EXTRA_ENTRIES)
def test_extra_entries_are_rejected(tmp_path, capsys, role, content, message):
    """A block past the last state, or a state listed twice, is an input error."""
    files = {"instance": str(INSTANCES / "ti1.json"), "policy": str(INSTANCES / "ti1_policy.json")}
    files[role] = str(tmp_path / "bad.json")
    Path(files[role]).write_text(json.dumps(content))
    argv = ["simulate", "--instance", files["instance"], "--policy", files["policy"]]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


CONFIG = json.loads((INSTANCES / "portfolio_config.json").read_text())
NON_NUMBERS = [
    pytest.param(
        "policy", {"policy": [[0, [True, False]]]},
        "policy row for state 0: expected a number, got True", id="policy-bool",
    ),
    pytest.param(
        "policy", {"policy": [[0, ["1.0", "0"]]]},
        "policy row for state 0: expected a number, got '1.0'", id="policy-str",
    ),
    pytest.param(
        "basis", {"h": [["1.0"]], "u_lambdas": [[[4.0, 1.0]]]},
        "'h': expected a number, got '1.0'", id="basis-h-str",
    ),
    pytest.param(
        "basis", {"h": [[1.0]], "u_lambdas": [[["4.0", True]]]},
        "'u_lambdas' must hold lists of [eta, weight] pairs: eta: expected a number, got '4.0'",
        id="basis-eta-str",
    ),
    pytest.param(
        "config", {**CONFIG, "discount": "0.9"},
        "'discount': expected a number, got '0.9'", id="config-discount-str",
    ),
    pytest.param(
        "config", {**CONFIG, "price_levels": [[1.0, True], [1.0, 0.8]]},
        "'price_levels': expected a number, got True", id="config-level-bool",
    ),
]


@pytest.mark.parametrize("role, content, message", NON_NUMBERS)
def test_non_numbers_in_policy_basis_and_config_are_refused(tmp_path, capsys, role, content,
                                                            message):
    """A string or boolean where a policy, basis or portfolio config needs a
    number is an input error, as it is in an instance file."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    ti1 = str(INSTANCES / "ti1.json")
    argv = {
        "policy": ["simulate", "--instance", ti1, "--policy", str(bad)],
        "basis": ["alp", "--instance", ti1, "--epsilon", "0.25", "--delta", "0.1",
                  "--basis", str(bad)],
        "config": ["gen-portfolio", "--config", str(bad), "--out", str(tmp_path / "out.json")],
    }[role]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out.json").exists()


TWO_STATES = {
    "states": 2,
    "actions": [["a", "b"], ["c"]],
    "P": [[[0.5, 0.5], [1.0, 0.0]], [[0.0, 1.0]]],
    "r": [[1.0, 0.0], [0.5]],
    "z": [[1.0, 0.0], [2.0]],
    "mode": "average",
}
RAGGED = (
    "setting an array element with a sequence. The requested array has an inhomogeneous"
    " shape after 1 dimensions. The detected shape was (2,) + inhomogeneous part."
)
FIRST_FAULT = [
    pytest.param({"P": [[[[0.5], [0.5, 0.5]], [1.0, 0.0]], [[0.0, 1.0]]]}, RAGGED, id="ragged-row"),
    pytest.param(
        {"P": [["x", [1.0, 0.0]], [[0.0, 1.0]]], "r": [[1.0, 0.0], []]},
        "could not convert string to float: 'x'",
        id="bad-row-then-short-state",
    ),
    pytest.param(
        {"P": [[[0.5, 0.5], [1.0, 0.0, 0.0]], [[0.0, 1.0]]], "z": [[1.0, "y"], [2.0]]},
        "could not convert string to float: 'y'",
        id="wide-row-and-bad-z",
    ),
    pytest.param(
        {"P": TWO_STATES["P"] + [[[1.0, 0.0]]], "z": [[1.0, "y"], [2.0]]},
        "could not convert string to float: 'y'",
        id="extra-block-and-bad-z",
    ),
]


SPARSE_P = [[{"to": [0, 1], "p": [0.5, 0.5]}, {"to": [0], "p": [1.0]}], [{"to": [1], "p": [1.0]}]]
FIRST_FAULT += [
    pytest.param(
        {"P": [[SPARSE_P[0][0], {"to": [0, 0], "p": [0.5, 0.5]}], SPARSE_P[1]],
         "r": [[1.0, 0.0], ["y"]]},
        "P[0][1] 'to': indices must increase strictly, got 0 after 0",
        id="sparse-row-then-bad-r",
    ),
    pytest.param(
        {"P": [SPARSE_P[0], [{"to": [2], "p": [1.0]}]], "r": [[1.0, "y"], [0.5]]},
        "could not convert string to float: 'y'",
        id="bad-r-then-sparse-row",
    ),
    pytest.param(
        {"P": [SPARSE_P[0], [{"to": [1], "p": ["1.0"]}]], "z": [[1.0, "y"], [2.0]]},
        "P[1][0] 'p': expected a number, got '1.0'",
        id="sparse-row-and-bad-z",
    ),
    pytest.param(
        {"P": [[[0.5, 0.5], {"to": [0, 1], "p": [1.0]}], [[0.0, 1.0]]] + [SPARSE_P[1]]},
        "P[0][1]: 'to' and 'p' differ in length (2 and 1)",
        id="mixed-rows-sparse-fault-and-extra-block",
    ),
]


@pytest.mark.parametrize("changes, message", FIRST_FAULT)
def test_first_fault_in_file_order_is_reported(tmp_path, capsys, changes, message):
    """A malformed kernel row is named by its own shape, and of two faults the
    first in file order (kernel rows and r state by state, then z, then the
    block counts) is the one reported."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**TWO_STATES, **changes}))
    assert run(["solve", "--instance", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@st.composite
def _kernels(draw):
    """(actions, kernel): 1 to 12 states, ragged action counts, rows of 0 to S nonzeros."""
    S = draw(st.integers(1, 12))
    counts = draw(st.lists(st.integers(1, 4), min_size=S, max_size=S))
    most = draw(st.integers(1, S))  # at most this many nonzeros a row: both sides of the rule
    rows = []
    for _ in range(sum(counts)):
        nnz = draw(st.integers(0 if S > 1 else 1, most))
        row = np.zeros(S)
        where = draw(st.permutations(range(S)))[:nnz]
        row[list(where)] = draw(
            hnp.arrays(np.float64, nnz, elements=st.floats(5e-324, 1.0, exclude_min=False))
        )
        rows.append(row)
    actions = tuple(tuple(f"a{i}" for i in range(c)) for c in counts)
    return actions, np.array(rows)


def _read_back(obj) -> np.ndarray:
    return parse_instance(loads(dumps(obj))).instance.kernel


@settings(max_examples=200, deadline=None)
@given(drawn=_kernels())
def test_kernel_round_trips_bit_for_bit_in_either_form(drawn):
    """instance_to_obj -> dumps -> loads -> parse_instance gives the kernel's
    bits back; so do the rows written all dense or all sparse by hand."""
    actions, kernel = drawn
    K, S = kernel.shape
    inst = MdpInstance(num_states=S, actions=actions, kernel=kernel, reward_r=np.zeros(K),
                       reward_z=np.zeros(K), mode="average")
    obj = instance_to_obj(inst)
    sparse = np.count_nonzero(kernel) < SPARSE_DENSITY * kernel.size
    assert all(isinstance(row, dict) == sparse for block in obj["P"] for row in block)
    cuts = inst.pair_offsets[1:-1]
    sparse_rows = [{"to": np.flatnonzero(row), "p": row[row != 0]} for row in kernel]
    by_hand = [np.split(kernel, cuts), [sparse_rows[lo:hi] for lo, hi in
                                        zip(inst.pair_offsets[:-1], inst.pair_offsets[1:])]]
    for P in [obj["P"], *by_hand]:
        back = _read_back({**obj, "P": P})
        assert back.dtype == np.float64 and back.shape == kernel.shape
        assert back.tobytes() == kernel.tobytes()


def test_positive_kernels_are_written_dense():
    """A kernel with every entry positive, as every benchmark instance has, is
    written as np.split blocks of the dense rows."""
    rng = np.random.default_rng(0)
    kernel = 0.999 * rng.dirichlet(np.full(40, 0.4), size=80) + 0.001 / 40
    actions = tuple(("a", "b") for _ in range(40))
    inst = MdpInstance(num_states=40, actions=actions, kernel=kernel, reward_r=np.zeros(80),
                       reward_z=np.zeros(80), mode="average")
    P = instance_to_obj(inst)["P"]
    assert dumps(P) == reference_dumps(np.split(kernel, np.arange(2, 80, 2)))
