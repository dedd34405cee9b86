"""The JSON writer against its element-at-a-time reference, the reader against
``json.loads``, and the instance and policy schemas' block counts."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from domdp.cli import _load_json, run
from domdp.io import dumps, loads
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


@pytest.mark.parametrize("changes, message", FIRST_FAULT)
def test_first_fault_in_file_order_is_reported(tmp_path, capsys, changes, message):
    """A malformed kernel row is named by its own shape, and of two faults the
    first in file order (kernel rows and r state by state, then z, then the
    block counts) is the one reported."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**TWO_STATES, **changes}))
    assert run(["solve", "--instance", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
