import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domdp.io import parse_policy
from domdp.mdp import (
    EDGE_TOL,
    KERNEL_TOL,
    POLICY_TOL,
    Benchmark,
    MdpInstance,
    Policy,
    deterministic_policy,
    enumerate_pairs,
    is_unichain,
    policy_kernel,
    recurrent_classes,
    validate_instance,
)
from helpers import blocks_instance, held_dense, reference_deterministic_policy, reference_merge


def single_state(p_self=1.0, mode="average"):
    return MdpInstance(
        num_states=1,
        actions=(("a",),),
        kernel=np.array([[p_self]]),
        reward_r=np.array([1.0]),
        reward_z=np.array([0.0]),
        mode=mode,
        discount=0.5 if mode == "discounted" else None,
        initial=np.array([1.0]) if mode == "discounted" else None,
    )


def test_identity_kernel_is_valid():
    assert validate_instance(single_state()) == []


def test_row_sum_defect_is_reported():
    inst = single_state(p_self=0.9)
    violations = validate_instance(inst)
    assert len(violations) == 1
    v = violations[0]
    assert v.kind == "kernel_row_sum"
    assert v.state == 0 and v.action == "a"
    assert v.magnitude == pytest.approx(-0.1)


def test_empty_action_set_is_reported():
    inst = MdpInstance(
        num_states=2,
        actions=(("a",), ()),
        kernel=np.array([[1.0, 0.0]]),
        reward_r=np.array([0.0]),
        reward_z=np.array([0.0]),
        mode="average",
    )
    violations = validate_instance(inst)
    assert any(v.kind == "empty_action_set" and v.state == 1 for v in violations)


def test_discounted_mode_needs_discount_and_initial():
    inst = MdpInstance(
        num_states=1,
        actions=(("a",),),
        kernel=np.array([[1.0]]),
        reward_r=np.array([0.0]),
        reward_z=np.array([0.0]),
        mode="discounted",
    )
    kinds = {v.kind for v in validate_instance(inst)}
    assert "discount_range" in kinds and "missing_initial" in kinds


def test_enumerate_pairs_state_major():
    inst = MdpInstance(
        num_states=2,
        actions=(("a", "b"), ("c", "d")),
        kernel=np.tile([0.5, 0.5], (4, 1)),
        reward_r=np.zeros(4),
        reward_z=np.zeros(4),
        mode="average",
    )
    pairs = enumerate_pairs(inst)
    assert pairs == [(0, "a"), (0, "b"), (1, "c"), (1, "d")]
    assert pairs.index((1, "d")) == 3
    assert inst.pair_offsets[1] + 1 == 3


def test_enumerate_pairs_ragged_counting():
    inst = MdpInstance(
        num_states=2,
        actions=(("a",), ("p", "q", "r")),
        kernel=np.tile([1.0, 0.0], (4, 1)),
        reward_r=np.zeros(4),
        reward_z=np.zeros(4),
        mode="average",
    )
    pairs = enumerate_pairs(inst)
    assert len(pairs) == 4
    assert pairs.index((1, "r")) == 3


def test_enumerate_pairs_is_stable():
    inst = single_state()
    assert enumerate_pairs(inst) == enumerate_pairs(inst)


def test_benchmark_merges_duplicates_and_sorts():
    b = Benchmark(support=[3.0, 1.0, 3.0], probs=[0.25, 0.5, 0.25])
    assert b.support.tolist() == [1.0, 3.0]
    assert b.probs.tolist() == [0.5, 0.5]


@settings(max_examples=200, deadline=None)
@given(
    points=st.lists(
        st.tuples(
            st.sampled_from([-2.5, -0.0, 0.0, 0.1, 1.0 / 3.0, 7.0, 1e6]),
            st.floats(1e-6, 1.0),
        ),
        min_size=1,
        max_size=20,
    ),
)
def test_benchmark_merge_matches_loop_reference(points):
    """Repeated support points, in any order, merge bit for bit as the loop
    merges them: the first spelling of a point (-0.0 or 0.0) is kept, and its
    probabilities add in input order."""
    support = np.array([v for v, _ in points])
    probs = np.array([p for _, p in points])
    probs /= probs.sum()
    want_s, want_p = reference_merge(support, probs)
    bench = Benchmark(support=support, probs=probs)
    assert bench.support.tobytes() == want_s.tobytes()
    assert bench.probs.tobytes() == want_p.tobytes()


@st.composite
def _choices(draw):
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=10))
    return sizes, [draw(st.integers(0, n - 1)) for n in sizes]


@settings(max_examples=200, deadline=None)
@given(drawn=_choices())
def test_deterministic_policy_matches_loop_reference(drawn):
    sizes, choices = drawn
    inst = blocks_instance(sizes)
    got = deterministic_policy(inst, choices).rows
    want = reference_deterministic_policy(inst, choices).rows
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


@settings(max_examples=100, deadline=None)
@given(drawn=_choices(), state=st.integers(0, 9), past=st.booleans())
def test_deterministic_policy_refuses_a_choice_outside_the_action_set(drawn, state, past):
    """A choice past the last action or below 0 is refused: NumPy indexing
    would raise IndexError for the one and read -1 as the last action."""
    sizes, choices = drawn
    state %= len(sizes)
    choices[state] = sizes[state] if past else -1
    with pytest.raises(ValueError, match="one action index"):
        deterministic_policy(blocks_instance(sizes), choices)


def test_deterministic_policy_needs_one_choice_per_state():
    inst = blocks_instance([2, 3])
    for choices in ([0], [0, 1, 0]):
        with pytest.raises(ValueError, match="one action index"):
            deterministic_policy(inst, choices)


def test_benchmark_rejects_bad_probs():
    with pytest.raises(ValueError):
        Benchmark(support=[0.0, 1.0], probs=[0.7, 0.7])
    with pytest.raises(ValueError):
        Benchmark(support=[0.0, 1.0], probs=[-0.5, 1.5])


def test_policy_validation():
    Policy((np.array([0.5, 0.5]),))
    with pytest.raises(ValueError):
        Policy((np.array([0.6, 0.6]),))


def test_policy_kernel_and_recurrent_classes():
    swap = MdpInstance(
        num_states=2,
        actions=(("go",), ("go",)),
        kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
        reward_r=np.zeros(2),
        reward_z=np.zeros(2),
        mode="average",
    )
    pol = deterministic_policy(swap, [0, 0])
    P = policy_kernel(pol, swap)
    assert np.allclose(P, [[0.0, 1.0], [1.0, 0.0]])
    assert recurrent_classes(P) == [[0, 1]]


def test_recurrent_classes_multichain_and_transient():
    # Two absorbing states fed by a transient one.
    P = np.array([[0.5, 0.25, 0.25], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert recurrent_classes(P) == [[1], [2]]


def test_tolerated_negative_entries_are_stored_as_zero():
    # Entries down to -KERNEL_TOL / -POLICY_TOL pass validation and are kept
    # as 0; larger negatives are kept so that validation reports them.
    kernel = np.array([[1.0, -1e-13], [0.5, 0.5]])
    inst = MdpInstance(
        num_states=2,
        actions=(("a",), ("a",)),
        kernel=kernel,
        reward_r=np.zeros(2),
        reward_z=np.zeros(2),
        mode="average",
    )
    assert inst.kernel[0, 1] == 0.0
    assert kernel[0, 1] == -1e-13  # the caller's array is not written to
    assert validate_instance(inst) == []
    bad = MdpInstance(
        num_states=2,
        actions=(("a",), ("a",)),
        kernel=np.array([[1.0 + 1e-11, -1e-11], [0.5, 0.5]]),
        reward_r=np.zeros(2),
        reward_z=np.zeros(2),
        mode="average",
    )
    assert [v.kind for v in validate_instance(bad)] == ["negative_transition"]
    assert Policy((np.array([1.0, -1e-10]),)).rows[0].tolist() == [1.0, 0.0]
    with pytest.raises(ValueError, match="negative"):
        Policy((np.array([1.0 + 1e-8, -1e-8]),))


def _loop_kernel_violations(inst):
    """Reference: the per-pair loop the kernel checks used to run."""
    out = []
    state_of = inst.state_of_pair()
    for k in range(inst.num_pairs):
        s = int(state_of[k])
        label = inst.actions[s][k - int(inst.pair_offsets[s])]
        row = inst.kernel[k]
        for j in np.where(row < -KERNEL_TOL)[0]:
            out.append(("negative_transition", s, label, int(j), float(row[j])))
        defect = float(row.sum() - 1.0)
        if abs(defect) > KERNEL_TOL:
            out.append(("kernel_row_sum", s, label, None, defect))
    return out


def test_kernel_checks_match_loop_reference():
    rng = np.random.default_rng(5)
    for _ in range(100):
        S = int(rng.integers(1, 8))
        counts = rng.integers(1, 4, size=S)
        K = int(counts.sum())
        P = rng.dirichlet(np.ones(S), size=K)
        hit = rng.random(P.shape) < 0.05
        P[hit] = rng.choice([-1e-13, -1e-11, -0.1, np.nan, 0.3], size=hit.sum())
        inst = MdpInstance(
            num_states=S,
            actions=tuple(tuple(f"a{i}" for i in range(c)) for c in counts),
            kernel=P,
            reward_r=np.zeros(K),
            reward_z=np.zeros(K),
            mode="average",
        )
        got = [
            (v.kind, v.state, v.action, v.next_state, v.magnitude)
            for v in validate_instance(inst)
            if v.kind in ("negative_transition", "kernel_row_sum")
        ]
        assert got == _loop_kernel_violations(inst)


def test_messages_print_values_as_plain_floats():
    inst = MdpInstance(
        num_states=2,
        actions=(("hold",), ("hold",)),
        kernel=np.array([[-0.5, 1.5], [0.0, 1.0]]),
        reward_r=np.zeros(2),
        reward_z=np.zeros(2),
        mode="discounted",
        discount=0.5,
        initial=np.array([-1.0, 2.0]),
    )
    messages = [str(v) for v in validate_instance(inst)]
    assert "P(0|0,hold) = -0.5 < 0" in messages
    assert "initial(0) = -1.0 < 0" in messages
    with pytest.raises(ValueError) as exc:
        Benchmark(support=[1.0, 2.0], probs=[0.25, 0.25])
    assert str(exc.value) == "benchmark probabilities sum to 0.5, not 1"
    with pytest.raises(ValueError) as exc:
        Policy((np.array([0.6, 0.6]),))
    assert str(exc.value) == "policy row for state 0 sums to 1.2"


HALF = np.array([0.5, 0.5])
ROW_FAULTS = {
    "2-D": (np.array([[0.5, 0.5]]), "must be a nonempty vector"),
    "empty": (np.zeros(0), "must be a nonempty vector"),
    "nan": (np.array([np.nan, 1.0]), "must be finite"),
    "negative": (np.array([1.0 + 2 * POLICY_TOL, -2 * POLICY_TOL]), "has negative entries"),
    "sum": (np.array([0.5, 0.5 + 1e-6]), "sums to 1.0000010000000001"),
}


@pytest.mark.parametrize("fault", ROW_FAULTS)
def test_policy_fault_at_a_middle_state_is_named(fault):
    row, message = ROW_FAULTS[fault]
    with pytest.raises(ValueError) as exc:
        Policy((HALF, HALF, row, HALF, HALF))
    assert str(exc.value) == f"policy row for state 2 {message}"


@pytest.mark.parametrize("first", ROW_FAULTS)
@pytest.mark.parametrize("second", ROW_FAULTS)
def test_of_two_faulty_states_the_first_is_named(first, second):
    row, message = ROW_FAULTS[first]
    with pytest.raises(ValueError) as exc:
        Policy((HALF, row, HALF, ROW_FAULTS[second][0], HALF))
    assert str(exc.value) == f"policy row for state 1 {message}"


def test_policy_rows_are_read_only_views_of_one_array():
    """Entries in [-POLICY_TOL, 0) are stored as 0 there, as before."""
    tiny = -POLICY_TOL / 10
    rows = (HALF, np.array([1.0 - tiny, tiny]), [1.0], np.array([0.25, 0.25, 0.5]))
    policy = Policy(rows)
    assert policy.probs.tolist() == [0.5, 0.5, 1.0 - tiny, 0.0, 1.0, 0.25, 0.25, 0.5]
    assert policy.offsets.tolist() == [0, 2, 4, 5, 8]
    assert [r.tolist() for r in policy.rows] == [[0.5, 0.5], [1.0 - tiny, 0.0], [1.0],
                                                 [0.25, 0.25, 0.5]]
    for row in (*policy.rows, policy.probs, policy.offsets):
        assert not row.flags.writeable
    assert all(np.shares_memory(row, policy.probs) for row in policy.rows)
    with pytest.raises(ValueError, match="read-only"):
        policy.rows[0][0] = 1.0
    assert rows[0].flags.writeable  # the caller's rows are copied, not frozen


_INST3 = MdpInstance(num_states=3, actions=(("a", "b"), ("a",), ("a", "b")),
                     kernel=np.full((5, 3), 1 / 3), reward_r=np.zeros(5), reward_z=np.zeros(5),
                     mode="average")


@pytest.mark.parametrize(
    "text, message",
    [
        ("[[0,[0.5,0.5]],[1,[1.0]],[2,[0.5,0.6]]]", "policy row for state 2 sums to 1.1"),
        ("[[0,[0.5,0.5]],[1,[NaN]],[2,[0.5,0.6]]]", "policy row for state 1 must be finite"),
        ('{"policy":[[0,[0.5,0.5]],[1,[Infinity]],[2,[0.5,0.5]]]}',
         "policy row for state 1 must be finite"),
        ("[[0,[0.5,0.5]],[1,[1.0]],[2,[1.5,-0.5]]]", "policy row for state 2 has negative entries"),
        ("[[0,[0.5,0.5]],[1,[1.0,0.0]],[2,[0.5,0.5]]]", "policy row for state 1 has wrong length"),
        ("[[0,[0.5,0.5]],[2,[1.0,0.0]],[2,[0.5,0.5]]]", "policy lists state 2 twice"),
        ("[[0,[0.5,0.5]],[2,[1.0,0.0]]]", "policy missing states [1]"),
    ],
)
def test_parse_policy_error_lines(text, message):
    with pytest.raises(ValueError) as exc:
        parse_policy(json.loads(text), _INST3)
    assert str(exc.value) == message


@st.composite
def _chains(draw):
    """A small instance in either mode and a policy on it.

    Kernel rows have one to three successors, so single-successor rows make
    cycles (periodic chains) and absorbing states (multichain ones); some
    zeros are written -0.0. A state's row is one-hot (exactly 1.0), a
    randomized row, 1 - 2^-40 beside 2^-40, or 1 - 2^-32 alone (a row sum
    within POLICY_TOL of 1).
    """
    S = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 3), min_size=S, max_size=S))
    kernel = np.zeros((sum(sizes), S))
    for row in kernel:
        to = draw(st.lists(st.integers(0, S - 1), min_size=1, max_size=3, unique=True))
        weights = draw(st.lists(st.integers(1, 4), min_size=len(to), max_size=len(to)))
        row[to] = np.array(weights) / sum(weights)
    signs = draw(st.lists(st.booleans(), min_size=kernel.size, max_size=kernel.size))
    kernel[(kernel == 0.0) & np.reshape(signs, kernel.shape)] = -0.0
    mode = draw(st.sampled_from(["average", "discounted"]))
    inst = MdpInstance(num_states=S, actions=tuple(tuple(f"a{i}" for i in range(n)) for n in sizes),
                       kernel=kernel, reward_r=np.zeros(kernel.shape[0]),
                       reward_z=np.zeros(kernel.shape[0]), mode=mode,
                       discount=0.5 if mode == "discounted" else None,
                       initial=np.full(S, 1 / S) if mode == "discounted" else None)
    rows = []
    for n in sizes:
        row = np.zeros(n)
        a = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["one-hot", "randomized", "two entries", "short"]))
        if kind == "randomized":
            row[:] = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
            row[a] += 1.0
            row /= row.sum()
        elif kind == "two entries" and n > 1:
            row[a], row[a - 1] = 1.0 - 2.0**-40, 2.0**-40
        else:
            row[a] = 1.0 - 2.0**-32 if kind == "short" else 1.0
        rows.append(row)
    return inst, Policy(tuple(rows))


def _closed_classes_by_reachability(P):
    """Closed classes from the transitive closure: i is recurrent when every
    state it reaches reaches it back."""
    n = len(P)
    reach = (P > EDGE_TOL) | np.eye(n, dtype=bool)
    for k in range(n):
        reach |= reach[:, [k]] & reach[[k], :]
    classes = {
        tuple(np.flatnonzero(reach[i] & reach[:, i]).tolist())
        for i in range(n)
        if (reach[i] <= reach[:, i]).all()
    }
    return sorted(map(list, classes))


def _swap_and_absorbing():
    """A periodic swap chain beside two absorbing states, under the policy
    that swaps, and under the one that stays (two closed classes)."""
    inst = MdpInstance(num_states=2, actions=(("stay", "go"), ("stay", "go")),
                       kernel=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
                       reward_r=np.zeros(4), reward_z=np.zeros(4), mode="average")
    return inst


@settings(max_examples=300, deadline=None)
@given(drawn=_chains())
@example(drawn=(_swap_and_absorbing(), deterministic_policy(_swap_and_absorbing(), [1, 1])))
@example(drawn=(_swap_and_absorbing(), deterministic_policy(_swap_and_absorbing(), [0, 0])))
@example(drawn=(_swap_and_absorbing(), Policy((np.array([0.5, 0.5]), np.array([0.0, 1.0])))))
def test_policy_kernel_and_class_search_match_references(drawn):
    """The kernel's bits equal the per-state products; the class search and
    the unichain test agree with the transitive closure of those products."""
    inst, policy = drawn
    offsets = inst.pair_offsets
    want = np.array([policy.rows[s] @ inst.kernel[offsets[s] : offsets[s + 1]]
                     for s in range(inst.num_states)])
    got = policy_kernel(policy, inst)
    assert got.tobytes() == want.tobytes()
    classes = recurrent_classes(want)
    assert classes == _closed_classes_by_reachability(want)
    assert is_unichain(got) == (len(classes) == 1)


def test_policy_kernel_refuses_rows_that_do_not_match_the_action_sets():
    inst = _swap_and_absorbing()
    with pytest.raises(ValueError, match="one entry per action"):
        policy_kernel(Policy((np.array([1.0]), np.array([0.5, 0.5]), np.array([1.0]))), inst)


def _sparse_instance(rng, S=40, max_actions=3, max_successors=3, absorbing=()):
    """A random instance below sparse.SPARSE_DENSITY; the states in absorbing
    only loop on themselves."""
    sizes = rng.integers(1, max_actions + 1, size=S)
    kernel = np.zeros((sizes.sum(), S))
    for k, s in enumerate(np.repeat(np.arange(S), sizes)):
        to = [s] if s in absorbing else rng.choice(S, size=int(rng.integers(1, max_successors + 1)),
                                                   replace=False)
        kernel[k, to] = rng.dirichlet(np.ones(len(to)))
    return MdpInstance(num_states=S, actions=tuple(tuple(f"a{i}" for i in range(n)) for n in sizes),
                       kernel=kernel, reward_r=np.zeros(kernel.shape[0]),
                       reward_z=np.zeros(kernel.shape[0]), mode="average")


def test_sparse_kernel_reports_the_violations_of_the_dense_one(monkeypatch):
    """Non-finite entries, negative entries, row sums off 1 and an empty row
    give the same violations, in the same order, from the nonzeros alone."""
    S = 40
    kernel = np.zeros((S, S))
    kernel[np.arange(S), (np.arange(S) + 1) % S] = 1.0
    for k, to, p in [(3, [0, 1, 2], [0.5, np.nan, 0.5]), (7, [1, 9, 30], [-0.25, 0.75, 0.5]),
                     (11, [2, 5], [0.5, 0.375]), (12, [], []), (20, [0, 1], [np.inf, 0.25]),
                     (25, [4, 8], [-1e-13, 1.0])]:   # the last within KERNEL_TOL: stored as 0
        kernel[k] = 0.0
        kernel[k, to] = p
    inst = MdpInstance(num_states=S, actions=(("a",),) * S, kernel=kernel, reward_r=np.zeros(S),
                       reward_z=np.zeros(S), mode="average")
    dense = held_dense(inst, monkeypatch)
    assert inst.kernel_rows is not None and dense.kernel_rows is None
    got, want = validate_instance(inst), validate_instance(dense)
    assert [(v.kind, v.state) for v in got] == [
        ("non_finite", 3), ("non_finite", 20), ("negative_transition", 7),
        ("kernel_row_sum", 11), ("kernel_row_sum", 12), ("kernel_row_sum", 20)]
    assert got == want


def test_sparse_policy_kernel_matches_the_dense_one(monkeypatch):
    """Compressed policy kernels hold the dense one's entries (a pure row's
    bit for bit) and give the same classes, on unichain and multichain draws."""
    rng = np.random.default_rng(12)
    for draw in range(12):
        inst = _sparse_instance(rng, absorbing=(0, 1) if draw % 3 == 0 else ())
        dense = held_dense(inst, monkeypatch)
        assert inst.kernel_rows is not None and dense.kernel_rows is None
        rows = []
        for s, acts in enumerate(inst.actions):
            row = np.zeros(len(acts))
            if draw % 2 or s % 3:
                row[rng.integers(len(acts))] = 1.0
            else:
                row = rng.dirichlet(np.ones(len(acts)))
            rows.append(row)
        policy = Policy(tuple(rows))
        got, want = policy_kernel(policy, inst), policy_kernel(policy, dense)
        assert np.allclose(got.dense(), want, rtol=0.0, atol=1e-15)
        pure = np.array([np.count_nonzero(row) == 1 for row in rows])
        assert got.dense()[pure].tobytes() == want[pure].tobytes()
        assert recurrent_classes(got) == recurrent_classes(want)
        assert is_unichain(got) == is_unichain(want)
