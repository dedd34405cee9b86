import importlib
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domdp import io as jsonio
from domdp.average import solve_average
from domdp.discounted import solve_discounted
from domdp.dominance import shortfall_minus
from domdp.mdp import Benchmark, MdpInstance, Policy, deterministic_policy
from domdp.simulate import (
    brute_force_best_feasible,
    enumerate_deterministic_policies,
    estimate_average_shortfalls,
    estimate_discounted_shortfalls,
    simulate,
)
from helpers import (
    TI1_BENCH,
    VACUOUS_BENCH,
    all_rows_slack,
    feasible_pair,
    random_instance,
    ti1,
    ti2,
    uniform_policy,
)

# domdp/__init__.py rebinds the name "simulate" to the function.
SIM = importlib.import_module("domdp.simulate")
INSTANCES = Path(__file__).resolve().parent.parent / "instances"
BELOW_ONE = 1.0 - 2.0**-53   # the largest uniform Philox can return


def test_constant_chain_trajectory():
    inst = MdpInstance(
        num_states=1,
        actions=(("a",),),
        kernel=np.array([[1.0]]),
        reward_r=np.array([3.0]),
        reward_z=np.array([7.0]),
        mode="average",
    )
    trajs = simulate(inst, uniform_policy(inst), np.array([1.0]), T=50, num_paths=3, seed=1)
    assert trajs.states.shape == trajs.actions.shape == trajs.z.shape == (3, 50)
    rewards = inst.reward_r[inst.pair_offsets[:-1][trajs.states] + trajs.actions]
    assert np.all(trajs.states == 0)
    assert np.all(rewards == 3.0)
    assert np.all(trajs.z == 7.0)


def test_swap_chain_alternates():
    inst = ti2()
    trajs = simulate(
        inst, uniform_policy(inst), np.array([1.0, 0.0]), T=10, num_paths=1, seed=0
    )
    assert trajs.states.tolist() == [[0, 1, 0, 1, 0, 1, 0, 1, 0, 1]]


@pytest.mark.parametrize("T, num_paths", [(0, 2), (5, 0)])
def test_empty_simulation_is_rejected(T, num_paths):
    inst = ti2()
    nu = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="at least 1"):
        simulate(inst, uniform_policy(inst), nu, T=T, num_paths=num_paths, seed=0)


def test_same_seed_reproduces_trajectories():
    rng = np.random.default_rng(5)
    inst, _, report = feasible_pair(rng, max_states=5, max_actions=3)
    nu = np.full(inst.num_states, 1.0 / inst.num_states)
    a = simulate(inst, report.policy, nu, T=100, num_paths=4, seed=42)
    b = simulate(inst, report.policy, nu, T=100, num_paths=4, seed=42)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.actions, b.actions)
    c = simulate(inst, report.policy, nu, T=100, num_paths=4, seed=43)
    assert any(not np.array_equal(sa, sc) for sa, sc in zip(a.states, c.states))


def _philox(seed, path, count):
    """Path path's uniforms from a fresh Philox keyed by (seed, path)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, path], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(count)


def _per_path(draws):
    """A stand-in for SIM._uniforms: path p's uniforms are draws(seed, p, count)."""
    return lambda seed, num_paths, count: (draws(seed, p, count) for p in range(num_paths))


@pytest.mark.parametrize("seed", [0, 2**63, -1])
@pytest.mark.parametrize("count", [51, 137])   # 1 + T of the two discounted benchmark ops
def test_rekeyed_streams_equal_fresh_philox(seed, count):
    got = list(SIM._uniforms(seed, 7, count))
    assert len(got) == 7
    for p, u in enumerate(got):
        assert u.tobytes() == _philox(seed, p, count).tobytes()


def _reference_simulate(inst, policy, nu, T, num_paths, seed):
    """The per-step loop the simulator used to run, kept as a reference.

    Joint rows hold the full cumulative sums padded with ones; a draw past a
    sum that ends below 1 is clamped to the state's last real cell, the cell
    splits by divmod, and the start state is clipped to S - 1.
    """
    S = inst.num_states
    max_a = max(len(a) for a in inst.actions)
    joint = np.ones((S, max_a * S))
    for s, row in enumerate(policy.rows):
        block = inst.kernel[inst.pair_offsets[s] : inst.pair_offsets[s + 1]]
        probs = (row[:, None] * block).ravel()
        joint[s, : probs.size] = np.cumsum(probs)
    offsets = inst.pair_offsets[:-1]
    counts = np.diff(inst.pair_offsets)
    nu_cum = np.cumsum(np.asarray(nu, dtype=float))

    U = np.stack(list(SIM._uniforms(seed, num_paths, 1 + T)))
    state = np.searchsorted(nu_cum, U[:, 0], side="left")
    np.clip(state, 0, S - 1, out=state)
    states = np.empty((num_paths, T), dtype=np.int64)
    actions = np.empty((num_paths, T), dtype=np.int64)
    for t in range(T):
        idx = (joint[state] < U[:, 1 + t, None]).sum(axis=1)
        np.minimum(idx, counts[state] * S - 1, out=idx)
        a, nxt = np.divmod(idx, S)
        states[:, t] = state
        actions[:, t] = a
        state = nxt
    return states, actions, inst.reward_z[offsets[states] + actions]


def _values(inst, policy):
    """The distinct entries of the simulator's rank table, in increasing order.

    Those are every row's cumulative sums capped at 1.0, without the row's
    last cell, and the 1.0 of the last cell and the padding.
    """
    cums = [[1.0]]
    for s, row in enumerate(policy.rows):
        block = inst.kernel[inst.pair_offsets[s] : inst.pair_offsets[s + 1]]
        cums.append(np.minimum(np.cumsum(row[:, None] * block)[:-1], 1.0))
    return np.unique(np.concatenate(cums))


def _sparse_policy(rng, inst):
    """Random policy with about a third of its cells at probability zero."""
    rows = []
    for acts in inst.actions:
        row = rng.dirichlet(np.ones(len(acts))) * (rng.random(len(acts)) > 0.35)
        if row.sum() == 0.0:
            row[rng.integers(len(acts))] = 1.0
        rows.append(row / row.sum())
    return Policy(tuple(rows))


def _reference_cases():
    rng = np.random.default_rng(4242)
    for _ in range(6):
        inst = random_instance(rng, max_states=6, max_actions=4)
        nu = rng.dirichlet(np.ones(inst.num_states))
        nu[-1] = 0.0
        yield inst, _sparse_policy(rng, inst), nu / nu.sum()
    loaded = jsonio.parse_instance(json.loads((INSTANCES / "ms5.json").read_text()))
    inst = loaded.instance
    policy = jsonio.parse_policy(json.loads((INSTANCES / "ms5_policy.json").read_text()), inst)
    # Sums to 1 - 2^-52, below the largest uniform; the last state has weight 0.
    yield inst, policy, np.array([0.25, 0.25, 0.25, 0.25 - 2.0**-52, 0.0])
    # Wide rows: 64 states x 5 actions, 320 cells a row, about half of them
    # at probability zero.
    rng = np.random.default_rng(6405)
    S, A = 64, 5
    kernel = rng.dirichlet(np.full(S, 0.4), size=S * A)
    kernel[kernel < 1e-3] = 0.0
    inst = MdpInstance(
        num_states=S,
        actions=tuple(tuple(f"a{i}" for i in range(A)) for _ in range(S)),
        kernel=kernel / kernel.sum(axis=1, keepdims=True),
        reward_r=np.zeros(S * A),
        reward_z=rng.uniform(-2.0, 2.0, size=S * A),
        mode="average",
    )
    yield inst, _sparse_policy(rng, inst), rng.dirichlet(np.ones(S))


@pytest.mark.parametrize("uniforms", ["philox", "below-one"])
def test_step_loop_matches_reference(monkeypatch, uniforms):
    if uniforms == "below-one":
        def tail_heavy(seed, path, count):
            # Every start draw and every later draw above 0.7 is the largest uniform.
            u = _philox(seed, path, count)
            u[u > 0.7] = BELOW_ONE
            u[0] = BELOW_ONE
            return u

        monkeypatch.setattr(SIM, "_uniforms", _per_path(tail_heavy))
    cases = list(_reference_cases())
    # The cases must exercise padded rows, zero-probability cells, and start
    # and joint rows whose cumulative sum ends below the largest uniform.
    assert any(len({len(a) for a in inst.actions}) > 1 for inst, _, _ in cases)
    assert any(np.any(np.concatenate(pol.rows) == 0.0) for _, pol, _ in cases)
    assert min(np.cumsum(nu)[-1] for _, _, nu in cases) < BELOW_ONE
    ends = [
        np.cumsum(row[:, None] * inst.kernel[inst.pair_offsets[s] : inst.pair_offsets[s + 1]])[-1]
        for inst, pol, _ in cases
        for s, row in enumerate(pol.rows)
    ]
    assert min(ends) < BELOW_ONE
    # Both step loops run: the table step when S * span <= paths * T (the
    # small cases), the search step otherwise (the 64-state case).
    table_step = [
        inst.num_states * (_values(inst, pol).size + 1) <= 4 * 1500 for inst, pol, _ in cases
    ]
    assert any(table_step) and not all(table_step)
    for i, (inst, policy, nu) in enumerate(cases):
        got = simulate(inst, policy, nu, T=1500, num_paths=4, seed=i)
        states, actions, z = _reference_simulate(inst, policy, nu, T=1500, num_paths=4, seed=i)
        assert np.array_equal(got.states, states)
        assert np.array_equal(got.actions, actions)
        assert np.array_equal(got.z, z)


def _weights_to_distribution(weights, fuzz=0.0):
    """Integer weights scaled to sum 1, with fuzz added to the first nonzero entry."""
    p = np.asarray(weights, dtype=float) / sum(weights)
    p[np.flatnonzero(p)[0]] += fuzz
    return p


def _lookup_case(counts, kernel, policy, nu, key):
    S, K = len(counts), sum(counts)
    inst = MdpInstance(
        num_states=S,
        actions=tuple(tuple(f"a{i}" for i in range(c)) for c in counts),
        kernel=np.array(kernel, dtype=float).reshape(K, S),
        reward_r=np.zeros(K),
        reward_z=np.arange(K, dtype=float),
        mode="average",
    )
    return inst, Policy(tuple(np.asarray(r, dtype=float) for r in policy)), np.asarray(nu), key


@st.composite
def _lookup_cases(draw):
    """Small instances with repeated and zero cells and rows summing to 1 +- fuzz.

    Kernel rows sum to 1 within KERNEL_TOL and policy rows within POLICY_TOL;
    a positive fuzz before trailing zero cells makes the running sum pass 1
    before the row's last cell, a negative one ends the row below the largest
    uniform.
    """
    S = draw(st.integers(1, 4))
    counts = draw(st.lists(st.integers(1, 4), min_size=S, max_size=S))

    def row(size, fuzzes):
        weights = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size).filter(any))
        return _weights_to_distribution(weights, draw(st.sampled_from(fuzzes)))

    kernel = [row(S, (0.0, 5e-13, -5e-13)) for _ in range(sum(counts))]
    policy = [row(c, (0.0, 5e-10, -5e-10)) for c in counts]
    return _lookup_case(counts, kernel, policy, row(S, (0.0,)), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=300, deadline=None)
@given(case=_lookup_cases())
@example(  # one state: the running sum passes 1 at action b; action c has probability 0
    case=_lookup_case([3], [[1.0]] * 3, [[0.5, 0.5 + 5e-10, 0.0]], [1.0], 0)
)
@example(  # mixed action counts; a kernel row ends 5e-13 below 1
    case=_lookup_case(
        [1, 3], [[0.5, 0.5 - 5e-13], [0.0, 1.0], [0.25, 0.75], [1.0, 0.0]],
        [[1.0], [0.25, 0.0, 0.75]], [0.5, 0.5], 1,
    )
)
def test_lookup_matches_reference_at_ties_and_row_ends(case):
    inst, policy, nu, key = case
    # Most draws are set to a cumulative value of some row (a tie under the
    # strict <), to a start-CDF value, to 0 or to the largest uniform.
    pool = [0.0, BELOW_ONE, *np.cumsum(nu)]
    for s, row in enumerate(policy.rows):
        block = inst.kernel[inst.pair_offsets[s] : inst.pair_offsets[s + 1]]
        pool.extend(np.cumsum(row[:, None] * block))
    pool = np.array([u for u in pool if 0.0 <= u < 1.0])

    def draws(seed, path, count):
        rng = np.random.default_rng([key, path])
        u = rng.random(count)
        tie = rng.random(count) < 0.7
        u[tie] = rng.choice(pool, size=int(tie.sum()))
        return u

    with mock.patch.object(SIM, "_uniforms", _per_path(draws)):
        got = simulate(inst, policy, nu, T=40, num_paths=3, seed=0)
        states, actions, z = _reference_simulate(inst, policy, nu, T=40, num_paths=3, seed=0)
    assert np.array_equal(got.states, states)
    assert np.array_equal(got.actions, actions)
    assert np.array_equal(got.z, z)


def test_tolerated_negative_policy_entry_never_drawn(monkeypatch):
    # The entry -1e-10 is within POLICY_TOL and is stored as 0, so a draw just
    # below 1 cannot pick its action; the reference loop agrees.
    inst = MdpInstance(
        num_states=2,
        actions=(("a", "b"), ("a", "b")),
        kernel=np.full((4, 2), 0.5),
        reward_r=np.zeros(4),
        reward_z=np.array([1.0, 2.0, 3.0, 4.0]),
        mode="average",
    )
    policy = Policy((np.array([1.0, -1e-10]), np.array([1.0, -1e-10])))
    monkeypatch.setattr(SIM, "_uniforms", _per_path(lambda seed, path, n: np.full(n, 1 - 7.5e-11)))
    nu = np.array([0.5, 0.5])
    got = simulate(inst, policy, nu, T=20, num_paths=2, seed=0)
    states, actions, z = _reference_simulate(inst, policy, nu, T=20, num_paths=2, seed=0)
    assert np.all(got.actions == 0)
    assert np.array_equal(got.states, states)
    assert np.array_equal(got.actions, actions)
    assert np.array_equal(got.z, z)


def _simulate_spied(inst, policy, nu, T, num_paths, seed=0):
    """simulate() and whether it stepped by coupled runs, not by the one-step
    loop or the search step. The spy keeps no reference to the arguments,
    which would keep the step table alive."""
    calls = []
    run_steps = SIM._run_steps

    def spy(*args):
        calls.append(None)
        run_steps(*args)

    with mock.patch.object(SIM, "_run_steps", spy):
        got = simulate(inst, policy, nu, T=T, num_paths=num_paths, seed=seed)
    return got, bool(calls)


def _assert_matches_reference(inst, policy, nu, T, num_paths, seed=0):
    """Bit-for-bit equality with the reference loop; returns whether the
    coupled runs were taken."""
    got, coupled = _simulate_spied(inst, policy, nu, T, num_paths, seed)
    ref = _reference_simulate(inst, policy, nu, T=T, num_paths=num_paths, seed=seed)
    for a, b in zip((got.states, got.actions, got.z), ref):
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
    return coupled


def _regime(inst, policy, T, num_paths):
    """(table step, not search step: S * span <= paths * T; whether ranks go
    through a guide table)."""
    values = _values(inst, policy)
    size = T * num_paths
    table = inst.num_states * (values.size + 1) <= size
    return table, SIM._ranker(values, size) != values.searchsorted


def test_table_positions_by_counting_equal_the_binary_search():
    # Repeated keys, gaps, keys at both ends, and an empty table.
    rng = np.random.default_rng(8)
    for size, count in [(1, 0), (1, 3), (10, 4), (50, 200), (1000, 30)]:
        table = np.sort(rng.integers(0, size, count))
        got = SIM._positions(table, size)
        assert got.dtype == np.intp
        assert np.array_equal(got, table.searchsorted(np.arange(size)))


def test_guide_ranks_equal_the_binary_search():
    # Values on bucket edges, a cluster of 40 in one bucket, random ones, 0.0 and 1.0.
    rng = np.random.default_rng(3)
    edges, cluster = np.arange(0, 64, 3) / 64, 0.3 + 1e-13 * np.arange(40)
    values = np.unique(np.concatenate([edges, cluster, rng.random(50), [1.0]]))
    G = 1 << (16 * values.size - 1).bit_length()
    u = np.concatenate(
        [
            np.arange(G) / G,
            values[:-1],
            np.nextafter(values[:-1], 1.0),
            np.nextafter(values[1:], 0.0),
            rng.random(5000),
            [BELOW_ONE],
        ]
    )
    assert SIM._ranker(values, G) == values.searchsorted   # the table would not fit
    rank = SIM._ranker(values, G + 1)
    assert rank != values.searchsorted
    assert np.array_equal(rank(u), values.searchsorted(u))


def _dyadic_case():
    """Ragged actions, every probability a multiple of 1/8: the cumulative values
    are multiples of 1/32, so they sit on the guide table's bucket edges."""
    e = 1 / 8
    kernel = [[4 * e, 2 * e, 2 * e], [0, 3 * e, 5 * e], [e, 0, 7 * e], [2 * e, 2 * e, 4 * e],
              [5 * e, 3 * e, 0]]
    inst, policy, nu, _ = _lookup_case(
        [2, 1, 2], kernel, [[0.5, 0.5], [1.0], [0.25, 0.75]], [0.5, 0.25, 0.25], 0
    )
    return inst, policy, nu


def _one_state_case():
    inst, policy, nu, _ = _lookup_case([3], [[1.0]] * 3, [[0.25, 0.5, 0.25]], [1.0], 0)
    return inst, policy, nu


def _clustered_case():
    """Three states, four actions: actions b and c have probability 1e-13, so
    the cumulative values of state s just above p_s fall in one guide bucket."""
    e = 1 / 4
    kernel = [np.roll([2 * e, e, e], s + a) for s in range(3) for a in range(4)]
    policy = [[p, 1e-13, 1e-13, 1 - p - 2e-13] for p in (0.3, 0.7, 0.5)]
    inst, policy, nu, _ = _lookup_case([4] * 3, kernel, policy, [0.5, 0.25, 0.25], 0)
    return inst, policy, nu


def _two_state_case():
    """Two states, two actions each, five cumulative values."""
    kernel = [[0.5, 0.5], [0.25, 0.75], [1.0, 0.0], [0.25, 0.75]]
    inst, policy, nu, _ = _lookup_case([2, 2], kernel, [[0.5, 0.5], [0.25, 0.75]], [0.5, 0.5], 0)
    return inst, policy, nu


def _wide_dyadic_case():
    """40 states, 1 action, each row 3/8, 1/4, 1/4, 1/8 on four states ahead."""
    S = 40
    kernel = np.zeros((S, S))
    for s in range(S):
        kernel[s, [(s + 1) % S, (s + 5) % S, (s + 11) % S, (s + 17) % S]] = [3, 2, 2, 1]
    inst, policy, nu, _ = _lookup_case([1] * S, kernel / 8, [[1.0]] * S, np.full(S, 1 / S), 0)
    return inst, policy, nu


def _edge_uniforms(inst, policy, nu):
    """Bucket edges k / G, every cumulative value and the floats next to them."""
    values = _values(inst, policy)
    G = 1 << (16 * values.size - 1).bit_length()
    pool = np.concatenate(
        [
            np.arange(G) / G,
            values[:-1],
            np.nextafter(values[:-1], 1.0),
            np.nextafter(values[1:], 0.0),
            np.cumsum(nu)[:-1],
            [0.0, BELOW_ONE],
        ]
    )
    pool = pool[(pool >= 0.0) & (pool < 1.0)]

    def draws(seed, path, count):
        rng = np.random.default_rng([seed, path])
        u = rng.random(count)
        tie = rng.random(count) < 0.8
        u[tie] = rng.choice(pool, size=int(tie.sum()))
        return u

    return draws


def _cycle_case(S):
    """The deterministic cycle s -> s + 1 mod S: a permutation every step, so
    the copies of a probe never meet."""
    kernel = np.roll(np.eye(S), 1, axis=1)
    inst, policy, nu, _ = _lookup_case([1] * S, kernel, [[1.0]] * S, np.full(S, 1 / S), 0)
    return inst, policy, nu


def _two_class_case():
    """Two closed classes {0, 1} and {2, 3}: copies meet within a class, never
    across."""
    kernel = [[1, 3, 0, 0], [2, 2, 0, 0], [0, 0, 2, 2], [0, 0, 1, 7]]
    inst, policy, nu, _ = _lookup_case(
        [1] * 4, [_weights_to_distribution(r) for r in kernel], [[1.0]] * 4, [0.25] * 4, 0
    )
    return inst, policy, nu


STEP_CASES = [
    # case, T, paths, table step (S * span <= paths * T) or search step,
    # guide table built, uniforms at bucket edges and values, coupled runs
    # taken. L = ceil(sqrt(T * S)) is the segment length of the coupled runs.
    pytest.param(_dyadic_case, 1001, 4, True, True, False, True, id="j3-tail2"),
    pytest.param(_dyadic_case, 1001, 4, True, True, True, True, id="j3-tail2-edges"),
    # T = 20 L: the last segment is as long as the others.
    pytest.param(_dyadic_case, 1200, 4, True, True, True, True, id="T-multiple-of-L"),
    # T mod L = 1: the last segment has one step, so it is never probed.
    pytest.param(_dyadic_case, 991, 4, True, True, True, True, id="last-segment-one-step"),
    # T = L: one segment, nothing to probe, so the one-step loop runs.
    pytest.param(_two_state_case, 2, 216, True, True, True, False, id="T-below-j"),
    # With one state a rank is its own key and every probe meets at once.
    pytest.param(_one_state_case, 1001, 3, True, True, True, True, id="one-state-j5-tail1"),
    pytest.param(_dyadic_case, 2189, 1, True, True, True, True, id="one-path-j3-tail2"),
    pytest.param(_clustered_case, 1001, 4, True, True, True, True, id="clustered-j2-tail1"),
    pytest.param(_two_state_case, 21, 5, True, False, True, True, id="guide-capped-j2-tail1"),
    pytest.param(_wide_dyadic_case, 100, 3, False, True, True, False, id="search-step-guide"),
    # Chains whose copies never meet take the one-step loop. (A uniform of
    # 0.0 would take every state to cell 0, which has probability 0 here.)
    pytest.param(lambda: _cycle_case(2), 1001, 4, True, True, False, False, id="swap"),
    pytest.param(lambda: _cycle_case(5), 1001, 4, True, True, False, False, id="cycle5"),
    pytest.param(_two_class_case, 1001, 4, True, True, False, False, id="two-class"),
    # The discounted benchmark ops' shape, 200 short paths.
    pytest.param(_clustered_case, 50, 200, True, True, True, True, id="clustered-open-probe"),
    pytest.param(_two_state_case, 90, 200, True, True, True, True, id="two-state-open-probe"),
]


@pytest.mark.parametrize("case, T, num_paths, table, guide, edges, coupled", STEP_CASES)
def test_block_steps_and_guide_ranks_match_reference(
    monkeypatch, case, T, num_paths, table, guide, edges, coupled
):
    inst, policy, nu = case()
    assert _regime(inst, policy, T, num_paths) == (table, guide)
    if edges:
        monkeypatch.setattr(SIM, "_uniforms", _per_path(_edge_uniforms(inst, policy, nu)))
    for seed in range(3):
        assert _assert_matches_reference(inst, policy, nu, T, num_paths, seed=seed) == coupled
    # One segment as long as the run leaves nothing to probe: the one-step loop.
    monkeypatch.setattr(SIM, "_segment_length", lambda T, S: T)
    for seed in range(3):
        assert not _assert_matches_reference(inst, policy, nu, T, num_paths, seed=seed)


def _reset_case():
    """Three states on a cycle, 40 actions with the same kernel row: every
    step goes to state 0 with probability 1/32, else one state on. The copies
    of a probe meet only at such a reset."""
    e = 1 / 32
    row = [[e, 1 - e, 0], [e, 0, 1 - e], [1, 0, 0]]
    rng = np.random.default_rng(40)
    counts = [40] * 3
    kernel = [row[s] for s in range(3) for _ in range(40)]
    policy = [rng.dirichlet(np.ones(40)) for _ in range(3)]
    inst, policy, nu, _ = _lookup_case(counts, kernel, policy, [0.5, 0.25, 0.25], 0)
    return inst, policy, nu


def test_segments_whose_copies_never_meet_join_the_run_before():
    inst, policy, nu = _reset_case()
    T, num_paths = 5000, 4
    assert _regime(inst, policy, T, num_paths)[0]
    probe = SIM._meetings
    found = []

    def meetings(keys, nxt, S, L):
        out = probe(keys, nxt, S, L)
        found.append((out[0].size, len(range(L, T, L)) * num_paths))
        return out

    with mock.patch.object(SIM, "_meetings", meetings):
        for seed in range(3):
            assert _assert_matches_reference(inst, policy, nu, T, num_paths, seed=seed)
    # Some segments' copies met, and some did not within their segment.
    assert all(0 < met < probes for met, probes in found)


@pytest.mark.parametrize("S", [2, 50])
def test_never_meeting_chains_stop_probing_early(S):
    # A swap and a 50-cycle at the benchmark's run length: their segments are
    # 448 and 2237 steps long, but no copy of a permutation drops, so every
    # probe step steps all probes * S copies, and probing gives up after the
    # first i with i * probes * S > paths * T (225 and 46 steps). The
    # one-step loop then runs.
    inst, policy, nu = _cycle_case(S)
    T, num_paths = 100_000, 20
    probe = SIM._meetings
    stops = []

    def meetings(keys, nxt, S, L):
        out = probe(keys, nxt, S, L)
        probes = len(range(L, T, L)) * num_paths
        stops.append((out[2], num_paths * T // (probes * S) + 1))
        return out

    with mock.patch.object(SIM, "_meetings", meetings):
        _, coupled = _simulate_spied(inst, policy, nu, T=T, num_paths=num_paths)
    assert not coupled
    [(steps, bound)] = stops
    assert steps == bound == {2: 225, 50: 46}[S]


@pytest.mark.parametrize(
    "case, T", [(_clustered_case, 20), (_two_state_case, 16)], ids=["clustered", "two-state"]
)
def test_open_first_segment_probe_stops_probing_early(case, T):
    # 200 paths with T < 9 S, so (T - L) / 2 < L: probing stops at the first
    # i with L + 2 i >= T, as a segment-1 probe is still open there, before
    # the probes' own L steps. The runs would have been rejected anyway, and
    # the one-step loop gives the reference loop's trajectories.
    inst, policy, nu = case()
    probe = SIM._meetings
    stops = []

    def meetings(keys, nxt, S, L):
        out = probe(keys, nxt, S, L)
        stops.append((out[2], math.ceil((T - L) / 2), L + out[2] < T))
        return out

    with mock.patch.object(SIM, "_meetings", meetings):
        for seed in range(3):
            assert not _assert_matches_reference(inst, policy, nu, T, 200, seed=seed)
    assert all(steps == first and before for steps, first, before in stops)


def test_criterion7_runs_take_the_coupled_runs():
    # The first three criterion-7 average instances at the benchmark's run
    # length: every probe's copies meet, within 46 steps.
    rng = np.random.default_rng(2468)
    for i in range(3):
        inst, _, report = feasible_pair(rng, max_states=8, max_actions=4)
        nu = np.full(inst.num_states, 1.0 / inst.num_states)
        _, coupled = _simulate_spied(inst, report.policy, nu, T=100_000, num_paths=20,
                                     seed=1000 + i)
        assert coupled


def test_average_shortfall_constant_z():
    inst = MdpInstance(
        num_states=1,
        actions=(("a",),),
        kernel=np.array([[1.0]]),
        reward_r=np.array([0.0]),
        reward_z=np.array([2.0]),
        mode="average",
    )
    trajs = simulate(inst, uniform_policy(inst), np.array([1.0]), T=100, num_paths=5, seed=3)
    est = estimate_average_shortfalls(trajs, [5.0])[0]
    assert est.estimate == -3.0
    assert est.stderr == 0.0


def test_average_shortfall_ti1_optimal_policy():
    inst = ti1()
    policy = Policy((np.array([1.0, 0.0]),))  # always action a, z = 10
    trajs = simulate(inst, policy, np.array([1.0]), T=200, num_paths=2, seed=9)
    est = estimate_average_shortfalls(trajs, [4.0])[0]
    assert est.estimate == 0.0


def test_average_shortfall_swap_chain():
    inst = ti2(z=(0.0, 10.0))
    trajs = simulate(
        inst, uniform_policy(inst), np.array([0.5, 0.5]), T=2000, num_paths=8, seed=17
    )
    est = estimate_average_shortfalls(trajs, [5.0])[0]
    assert est.estimate == pytest.approx(-2.5, abs=max(4 * est.stderr, 5e-3))


def test_discounted_shortfall_constant_z():
    inst = MdpInstance(
        num_states=1,
        actions=(("a",),),
        kernel=np.array([[1.0]]),
        reward_r=np.array([0.0]),
        reward_z=np.array([2.0]),
        mode="discounted",
        discount=0.5,
        initial=np.array([1.0]),
    )
    T = 30
    trajs = simulate(inst, uniform_policy(inst), np.array([1.0]), T=T, num_paths=2, seed=3)
    est = estimate_discounted_shortfalls(trajs, [5.0])[0]
    assert est.estimate == pytest.approx(-3.0 * (1 - 0.5**T) / 0.5, rel=1e-12)
    assert est.truncation_bound <= 1e-6


def test_discounted_shortfall_alternating():
    inst = replace(
        ti2(z=(0.0, 10.0)), mode="discounted", discount=0.5, initial=np.array([1.0, 0.0])
    )
    T = 40
    trajs = simulate(inst, uniform_policy(inst), inst.initial, T=T, num_paths=1, seed=0)
    est = estimate_discounted_shortfalls(trajs, [5.0])[0]
    expected = -5.0 * (1 - 0.25 ** (T // 2)) / (1 - 0.25)
    assert est.estimate == pytest.approx(expected, rel=1e-12)


def _per_step_estimates(trajs, grid, delta=None):
    """The estimators' former per-step formula over trajs.z: per path, the mean
    after burn-in of min(z_t - eta, 0) (average), or its delta^t-weighted sum."""
    n, T = trajs.z.shape
    out = []
    for eta in grid:
        if delta is None:
            totals = shortfall_minus(trajs.z[:, T // 10 :], eta).mean(axis=1)
        else:
            totals = shortfall_minus(trajs.z, eta) @ delta ** np.arange(T)
        se = totals.std(ddof=1) / np.sqrt(n) if n > 1 else 0.0
        out.append((totals.mean(), se))
    return out


@settings(max_examples=60, deadline=None)
@given(
    key=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["average", "discounted"]),
    T=st.integers(1, 250),
    num_paths=st.integers(1, 6),
)
@example(key=0, mode="average", T=97, num_paths=1)
@example(key=1, mode="discounted", T=43, num_paths=1)
@example(key=2, mode="average", T=1, num_paths=3)
@example(key=216, mode="average", T=245, num_paths=6)   # equal paths: stderr 0 vs 1e-16
def test_count_estimators_match_per_step_formula(key, mode, T, num_paths):
    rng = np.random.default_rng(key)
    inst = random_instance(rng, max_states=5, max_actions=4, mode=mode)
    policy = _sparse_policy(rng, inst)
    nu = rng.dirichlet(np.ones(inst.num_states))
    trajs = simulate(inst, policy, nu, T=T, num_paths=num_paths, seed=key)
    states, actions = trajs.states, trajs.actions
    # A step's action lies within its own state's actions: no padding cell
    # maps into the next state's pairs.
    sizes = np.array([len(a) for a in inst.actions])
    assert np.all((actions >= 0) & (actions < sizes[states]))
    assert np.array_equal(inst.pair_offsets[states] + actions, trajs.pairs)
    grid = np.sort(rng.uniform(-2.5, 2.0, size=3))
    if mode == "average":
        got = estimate_average_shortfalls(trajs, grid)
        ref = _per_step_estimates(trajs, grid)
    else:
        got = estimate_discounted_shortfalls(trajs, grid)
        ref = _per_step_estimates(trajs, grid, inst.discount)
    for est, (mean, se) in zip(got, ref):
        assert abs(est.estimate - mean) <= 1e-12 * abs(mean)
        # Rounding in the path totals is relative to their size, not to their
        # spread: paths that visit the same pairs equally often can read a
        # stderr of 0 on one side and 1e-16 on the other.
        assert abs(est.stderr - se) <= 1e-12 * (se + abs(mean))
        if num_paths == 1:
            assert est.stderr == 0.0


def test_simulate_and_average_estimate_stay_small():
    # The first criterion-7 average instance, at the benchmark's run length:
    # the pairs are 16 MB; (paths, T) arrays of states, actions and z, or a
    # per-eta (paths, T) shortfall array, would pass the limit.
    inst, bench, report = feasible_pair(np.random.default_rng(2468), max_states=8, max_actions=4)
    nu = np.full(inst.num_states, 1.0 / inst.num_states)
    tracemalloc.start()
    try:
        trajs = simulate(inst, report.policy, nu, T=100_000, num_paths=20, seed=1000)
        estimate_average_shortfalls(trajs, bench.support)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2**20


def test_simulate_dense_100_states_stays_small():
    # The benchmark's 100-state shape: 5 actions, every kernel entry positive.
    # A deterministic policy gives about 9,900 distinct cumulative values, so
    # the one-step table has S * span = 1e6 keys and the coupled runs step it.
    # The pairs, the rank array and the key-to-pair table beside them are
    # 38 MiB; the step table or the key-to-position table kept alive into the
    # last gather would pass the limit.
    rng = np.random.default_rng(100)
    S, A = 100, 5
    inst = MdpInstance(
        num_states=S,
        actions=tuple(tuple(f"a{i}" for i in range(A)) for _ in range(S)),
        kernel=0.999 * rng.dirichlet(np.full(S, 0.4), size=S * A) + 0.001 / S,
        reward_r=np.zeros(S * A),
        reward_z=rng.uniform(-2.0, 2.0, size=S * A),
        mode="average",
    )
    policy = deterministic_policy(inst, rng.integers(0, A, size=S))
    assert _regime(inst, policy, 100_000, 20)[0]
    nu = np.full(S, 1.0 / S)
    tracemalloc.start()
    try:
        _, coupled = _simulate_spied(inst, policy, nu, T=100_000, num_paths=20, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coupled
    assert peak <= 40 * 2**20


def test_discounted_bound_uses_the_instance_z_range():
    # Only first actions are taken, so a pair with an extreme z goes
    # unvisited; the steps after T of a longer run may still visit it.
    rng = np.random.default_rng(77)
    inst = random_instance(rng, max_states=6, max_actions=4, mode="discounted")
    policy = deterministic_policy(inst, [0] * inst.num_states)
    T, delta, grid = 30, inst.discount, np.array([-1.0, 0.5])
    trajs = simulate(inst, policy, inst.initial, T=T, num_paths=3, seed=4)

    def bound(lo, hi, eta):
        return delta**T * max(abs(lo - eta), abs(hi - eta)) / (1.0 - delta)

    zmin, zmax = float(inst.reward_z.min()), float(inst.reward_z.max())
    seen = float(trajs.z.min()), float(trajs.z.max())
    ests = estimate_discounted_shortfalls(trajs, grid)
    assert [e.truncation_bound for e in ests] == [bound(zmin, zmax, eta) for eta in grid]
    assert any(e.truncation_bound > bound(*seen, e.eta) for e in ests)


def test_discounted_estimator_rejects_an_average_instance():
    inst = ti2()
    trajs = simulate(inst, uniform_policy(inst), np.array([1.0, 0.0]), T=10, num_paths=1, seed=0)
    with pytest.raises(ValueError, match="discounted instance"):
        estimate_discounted_shortfalls(trajs, [5.0])


def test_truncation_bound_construction():
    # Choosing T from the bound keeps the recorded bound below the request.
    delta, tol = 0.9, 1e-3
    zmax = 10.0
    T = int(np.ceil(np.log(tol * (1 - delta) / zmax) / np.log(delta)))
    bound = delta**T * zmax / (1 - delta)
    assert bound <= tol


def test_enumerate_policy_counts():
    inst = MdpInstance(
        num_states=2,
        actions=(("a", "b"), ("c", "d")),
        kernel=np.tile([0.5, 0.5], (4, 1)),
        reward_r=np.zeros(4),
        reward_z=np.zeros(4),
        mode="average",
    )
    assert len(list(enumerate_deterministic_policies(inst))) == 4
    one = MdpInstance(
        num_states=1,
        actions=(("a", "b", "c"),),
        kernel=np.ones((3, 1)),
        reward_r=np.zeros(3),
        reward_z=np.zeros(3),
        mode="average",
    )
    assert len(list(enumerate_deterministic_policies(one))) == 3
    ragged = MdpInstance(
        num_states=3,
        actions=(("a",), ("a", "b"), ("a", "b", "c")),
        kernel=np.tile([1.0, 0.0, 0.0], (6, 1)),
        reward_r=np.zeros(6),
        reward_z=np.zeros(6),
        mode="average",
    )
    assert len(list(enumerate_deterministic_policies(ragged))) == 6


def test_enumerate_policy_guard():
    inst = MdpInstance(
        num_states=25,
        actions=tuple(tuple(f"a{i}" for i in range(4)) for _ in range(25)),
        kernel=np.tile(np.eye(25)[0], (100, 1)),
        reward_r=np.zeros(100),
        reward_z=np.zeros(100),
        mode="average",
    )
    with pytest.raises(ValueError, match="too many"):
        list(enumerate_deterministic_policies(inst))


def test_oracle_ti1():
    res = brute_force_best_feasible(ti1(), TI1_BENCH)
    assert res is not None
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.policy.action_index(0) == 0
    res_vac = brute_force_best_feasible(ti1(), VACUOUS_BENCH)
    assert res_vac.value == pytest.approx(5.0, abs=1e-12)
    assert res_vac.policy.action_index(0) == 1


def test_oracle_returns_none_when_only_mixtures_feasible():
    # Two isolated self-loops: the only deterministic policy is multichain and
    # is skipped, while the LP mixes the classes (shortfall coefficients -4
    # and 0 at eta=4 against an rhs of -1 strictly between them).
    inst = MdpInstance(
        num_states=2,
        actions=(("stay",), ("stay",)),
        kernel=np.eye(2),
        reward_r=np.array([10.0, 0.0]),
        reward_z=np.array([0.0, 10.0]),
        mode="average",
    )
    bench = Benchmark(support=[0.0, 4.0], probs=[0.25, 0.75])  # E[(Y-4)_-] = -1
    res = brute_force_best_feasible(inst, bench)
    assert res is None
    report = solve_average(inst, bench)
    assert report.status == "optimal"
    assert report.multichain
    assert report.objective > 0.0


def test_lp_dominates_oracle_small_instances():
    rng = np.random.default_rng(606)
    found = slack_cases = 0
    for i in range(40):
        inst, bench, report = feasible_pair(rng, max_states=3, max_actions=3)
        if i % 2 == 0:
            # Force an all-slack case by dropping the benchmark below z.
            span = float(inst.reward_z.max() - inst.reward_z.min()) + 1.0
            bench = Benchmark(support=bench.support - span, probs=bench.probs)
            report = solve_average(inst, bench)
        oracle = brute_force_best_feasible(inst, bench)
        if oracle is None:
            continue
        found += 1
        assert report.objective >= oracle.value - 1e-7
        if all_rows_slack(report):
            slack_cases += 1
            assert report.objective == pytest.approx(oracle.value, abs=1e-7)
    assert found > 10 and slack_cases > 0


def test_simulated_average_shortfalls_match_lp_rows():
    rng = np.random.default_rng(2718)
    for _ in range(3):
        inst, bench, report = feasible_pair(rng, max_states=5, max_actions=3)
        nu = np.full(inst.num_states, 1.0 / inst.num_states)
        trajs = simulate(inst, report.policy, nu, T=20000, num_paths=10, seed=77)
        lp_rows = report.dominance_matrix @ report.occupation.weights
        for est, row_value in zip(
            estimate_average_shortfalls(trajs, bench.support), lp_rows
        ):
            tol = max(4 * est.stderr, 1e-3)
            assert est.estimate == pytest.approx(row_value, abs=tol)


def test_simulated_discounted_shortfalls_match_lp_rows():
    rng = np.random.default_rng(314)
    inst, bench, report = feasible_pair(rng, max_states=4, max_actions=3, mode="discounted")
    delta = inst.discount
    T = int(np.ceil(np.log(1e-6) / np.log(delta)))
    trajs = simulate(inst, report.policy, inst.initial, T=T, num_paths=400, seed=5)
    lp_rows = report.dominance_matrix @ report.occupation.weights
    for est, row_value in zip(estimate_discounted_shortfalls(trajs, bench.support), lp_rows):
        tol = max(4 * est.stderr, 1e-3) + est.truncation_bound
        assert est.estimate == pytest.approx(row_value, abs=tol)


def test_oracle_discounted_mode():
    inst = ti1(mode="discounted", discount=0.5)
    res = brute_force_best_feasible(inst, Benchmark(support=[8.0], probs=[1.0]))
    assert res is not None
    assert res.value == pytest.approx(4.0, abs=1e-12)  # r=2 forever at delta=0.5
    done = solve_discounted(inst, Benchmark(support=[8.0], probs=[1.0]))
    assert done.objective >= res.value - 1e-9
