"""The JSON writer's array path against the element-at-a-time reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from domdp.io import dumps
from helpers import reference_dumps

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
