import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from domdp.cli import run
from domdp.io import parse_portfolio_config
from domdp.discounted import solve_discounted
from domdp.mdp import Benchmark, validate_instance
from domdp.portfolio import PortfolioConfig, build_portfolio_instance
from domdp.simulate import estimate_discounted_shortfalls, simulate
from helpers import benchmark_portfolio, reference_build_portfolio_instance


def constant_price_config(d=2, delta=0.9):
    return PortfolioConfig(
        price_levels=((1.0,), (1.0,)),
        price_transitions=(np.array([[1.0]]), np.array([[1.0]])),
        resolution=d,
        discount=delta,
        benchmark=Benchmark(support=[0.0], probs=[1.0]),
    )


def two_level_config(d=2, delta=0.9):
    chain = np.array([[0.7, 0.3], [0.4, 0.6]])
    return PortfolioConfig(
        price_levels=((1.0, 1.2), (1.0, 0.8)),
        price_transitions=(chain, chain.T.copy() * 0 + chain),  # two independent copies
        resolution=d,
        discount=delta,
        benchmark=Benchmark(support=[-1.0], probs=[1.0]),
    )


def test_holdings_grid_counts():
    cfg = constant_price_config(d=2)
    grid = cfg.holdings_grid()
    assert len(grid) == 3  # (1,0), (1/2,1/2), (0,1)
    as_tuples = {tuple(x) for x in grid}
    assert as_tuples == {(1.0, 0.0), (0.5, 0.5), (0.0, 1.0)}


def test_base_state_count_example():
    cfg = two_level_config(d=2)
    assert cfg.base_state_count == 12  # 4 price profiles x 3 grid points


def test_hold_always_feasible_and_generated_instance_validates():
    cfg = two_level_config(d=2)
    inst = build_portfolio_instance(cfg)
    assert validate_instance(inst) == []
    for acts in inst.actions:
        assert "hold" in acts


def test_constant_prices_zero_return_and_hold_optimal():
    cfg = constant_price_config(d=2, delta=0.9)
    inst = build_portfolio_instance(cfg)
    assert validate_instance(inst) == []
    assert inst.num_states == 3
    # With constant prices the budget keeps every feasible move at z = 0.
    assert np.all(inst.reward_z == 0.0)
    report = solve_discounted(inst, cfg.benchmark)
    assert report.status == "optimal"
    assert report.objective == pytest.approx(0.0, abs=1e-8)
    marginal = report.occupation.state_marginal()
    visited = np.where(marginal > 1e-9)[0]
    assert visited.size > 0
    for s in visited:
        hold_idx = inst.actions[s].index("hold")
        assert report.policy.rows[s][hold_idx] == pytest.approx(1.0, abs=1e-8)


def test_transaction_costs_hold_free_moves_positive():
    cfg = constant_price_config(d=2)
    inst = build_portfolio_instance(cfg)
    k = 0
    for s, acts in enumerate(inst.actions):
        for a in acts:
            if a == "hold":
                assert inst.reward_r[k] == 0.0
            else:
                assert inst.reward_r[k] < 0.0
            k += 1


def test_unequal_prices_restrict_moves():
    # At prices (1, 2) no d=2 grid move keeps the budget balanced except hold.
    cfg = PortfolioConfig(
        price_levels=((1.0,), (2.0,)),
        price_transitions=(np.array([[1.0]]), np.array([[1.0]])),
        resolution=2,
        discount=0.9,
        benchmark=Benchmark(support=[0.0], probs=[1.0]),
    )
    inst = build_portfolio_instance(cfg)
    assert all(acts == ("hold",) for acts in inst.actions)


def test_state_count_guard():
    cfg = PortfolioConfig(
        price_levels=tuple((1.0, 2.0, 3.0, 4.0) for _ in range(3)),
        price_transitions=tuple(np.full((4, 4), 0.25) for _ in range(3)),
        resolution=12,
        discount=0.9,
        benchmark=Benchmark(support=[0.0], probs=[1.0]),
    )
    with pytest.raises(ValueError, match="exceeds guard"):
        build_portfolio_instance(cfg)


@pytest.mark.parametrize(
    "resolution, pairs, states", [(400, 648_016, 6_416), (1000, 4_020_016, 16_016)]
)
def test_kernel_entry_guard_names_the_pair_and_state_counts(resolution, pairs, states):
    # Both pass MAX_STATES, but a dense kernel would take 33 GB and 515 GB.
    with pytest.raises(ValueError, match=f"kernel of {pairs} pairs x {states} states exceeds"):
        build_portfolio_instance(two_level_config(d=resolution))


def test_kernel_entry_guard_refuses_before_enumerating_a_large_grid():
    # One price profile and 20001 grid points: every state can hold, so the
    # kernel has at least 20001 x 20001 entries, refused from the counts.
    cfg = constant_price_config(d=20_000)
    with pytest.raises(ValueError, match="kernel of at least 20001 pairs x 20001 states"):
        build_portfolio_instance(cfg)


def test_kernel_entry_guard_refuses_before_the_joint_chain():
    # 200 levels per asset: the joint chain alone would be 40000 x 40000
    # doubles (12.8 GB), and the 80000 base states already need 80000**2
    # kernel entries, refused from the counts.
    cfg = PortfolioConfig(
        price_levels=(tuple(np.linspace(1.0, 2.0, 200)),) * 2,
        price_transitions=(np.eye(200),) * 2,
        resolution=1,
        discount=0.9,
        benchmark=Benchmark(support=[0.0], probs=[1.0]),
    )
    with pytest.raises(ValueError, match="kernel of at least 80000 pairs x 80000 states"):
        build_portfolio_instance(cfg)


@pytest.mark.parametrize("n, d", [(1, 1), (1, 5), (2, 1), (2, 4), (3, 6), (4, 3)])
def test_holdings_grid_matches_the_filtered_product(n, d):
    cfg = PortfolioConfig(
        price_levels=((1.0,),) * n,
        price_transitions=(np.array([[1.0]]),) * n,
        resolution=d,
        discount=0.9,
        benchmark=Benchmark(support=[0.0], probs=[1.0]),
    )
    reference = [
        np.array(c, dtype=float) / d
        for c in itertools.product(range(d + 1), repeat=n)
        if sum(c) == d
    ]
    assert cfg.grid_size == len(reference)
    assert np.array_equal(cfg.holdings_grid(), np.array(reference))


def test_initial_holdings_validation():
    with pytest.raises(ValueError, match="grid fractions"):
        PortfolioConfig(
            price_levels=((1.0,), (1.0,)),
            price_transitions=(np.array([[1.0]]), np.array([[1.0]])),
            resolution=2,
            discount=0.9,
            benchmark=Benchmark(support=[0.0], probs=[1.0]),
            initial_holdings=np.array([0.3, 0.7]),
        )


def test_return_rate_matches_price_move():
    # Single asset, deterministic price doubling: return rate is 1 up then
    # -0.5 back down, independent of the action.
    cfg = PortfolioConfig(
        price_levels=((1.0, 2.0),),
        price_transitions=(np.array([[0.0, 1.0], [1.0, 0.0]]),),
        resolution=1,
        discount=0.5,
        benchmark=Benchmark(support=[-10.0], probs=[1.0]),
    )
    inst = build_portfolio_instance(cfg)
    assert validate_instance(inst) == []
    z_values = set(np.round(inst.reward_z, 12))
    assert z_values == {1.0, -0.5}


NAN, INF = float("nan"), float("inf")
SHIPPED_CONFIG = json.loads(
    (Path(__file__).parents[1] / "instances" / "portfolio_config.json").read_text()
)


def held_config():
    chain = np.array([[0.7, 0.3], [0.4, 0.6]])
    return PortfolioConfig(
        price_levels=((1.0, 1.2), (1.0, 0.8), (1.0, 1.1)),
        price_transitions=(chain,) * 3,
        resolution=2,
        discount=0.9,
        benchmark=Benchmark(support=[-1.0], probs=[1.0]),
        initial_holdings=np.array([0.5, 0.0, 0.5]),
    )


def assert_same_instance(inst, ref, z_ulps=0):
    assert inst.num_states == ref.num_states
    assert inst.actions == ref.actions
    for name in ("kernel", "reward_r", "initial"):
        got, want = getattr(inst, name), getattr(ref, name)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name
    if z_ulps == 0:
        assert np.array_equal(inst.reward_z.view(np.uint64), ref.reward_z.view(np.uint64))
    else:
        np.testing.assert_array_max_ulp(inst.reward_z, ref.reward_z, maxulp=z_ulps)


@pytest.mark.parametrize(
    "make",
    [
        lambda: parse_portfolio_config(SHIPPED_CONFIG),
        lambda: benchmark_portfolio(2),
        lambda: benchmark_portfolio(3),
        held_config,
    ],
    ids=["shipped", "benchmark-r2", "benchmark-r3", "initial-holdings"],
)
def test_builder_matches_the_loop_reference_bit_for_bit(make):
    cfg = make()
    assert_same_instance(build_portfolio_instance(cfg), reference_build_portfolio_instance(cfg))


@st.composite
def small_configs(draw):
    n = draw(st.integers(1, 3))
    price = st.one_of(st.sampled_from((0.5, 0.8, 1.0, 1.1, 1.2, 2.0)), st.floats(0.1, 10.0))
    weight = st.sampled_from((0.0, 0.0, 0.25, 1.0, 3.0))
    levels, chains = [], []
    for _ in range(n):
        L = draw(st.integers(1, 3))
        levels.append(tuple(draw(st.lists(price, min_size=L, max_size=L))))
        w = np.array(draw(st.lists(weight, min_size=L * L, max_size=L * L))).reshape(L, L)
        w[np.arange(L), draw(st.lists(st.integers(0, L - 1), min_size=L, max_size=L))] += 1.0
        chains.append(w / w.sum(axis=1, keepdims=True))
    cfg = PortfolioConfig(
        price_levels=tuple(levels),
        price_transitions=tuple(chains),
        resolution=draw(st.integers(1, 5)),
        discount=0.9,
        benchmark=Benchmark(support=[0.0], probs=[1.0]),
    )
    # Keep the reference's dense kernel small: at most 40 profiles x grid points.
    assume(cfg.base_state_count <= 40)
    if draw(st.booleans()):
        grid = cfg.holdings_grid()
        held = grid[draw(st.integers(0, len(grid) - 1))]
        cfg = dataclasses.replace(cfg, initial_holdings=held)
    return cfg


@settings(max_examples=300, deadline=None)
@given(small_configs())
def test_builder_matches_the_loop_reference_on_random_configs(cfg):
    # The reference takes z by a per-row dot, the builder from one wealth table.
    inst = build_portfolio_instance(cfg)
    assert_same_instance(inst, reference_build_portfolio_instance(cfg), z_ulps=1)
    assert validate_instance(inst) == []


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"initial_holdings": [NAN, 0.5]}, "initial_holdings must be finite"),
        ({"price_levels": [[1.0, NAN], [1.0, 0.8]]}, "asset 0 price_levels must be finite"),
        ({"price_levels": [[1.0, 1.2], [INF, 0.8]]}, "asset 1 price_levels must be finite"),
        (
            {"price_transitions": [[[0.7, 0.3], [0.4, 0.6]], [[0.7, NAN], [0.4, 0.6]]]},
            "asset 1 price_transitions must be finite",
        ),
        ({"initial_holdings": [1.5, -0.5]}, "initial_holdings must be grid fractions summing to 1"),
    ],
    ids=["nan-holdings", "nan-level", "inf-level", "nan-transition", "negative-holdings"],
)
def test_gen_portfolio_refuses_non_finite_config_values(tmp_path, capsys, edit, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SHIPPED_CONFIG, **edit}))  # NaN and Infinity literals
    out = tmp_path / "inst.json"
    assert run(["gen-portfolio", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("resolution", [2, 3])
def test_simulated_portfolio_policy_meets_its_dominance_rows(resolution):
    # The paper's portfolio example end to end: the solved policy, simulated
    # from the initial distribution, reads every row's discounted shortfall
    # within 4 standard errors plus the truncation bound (criterion 7's
    # rule). At eta = -0.4 no path falls short, so the stderr is 0 and the
    # bound alone, 8.9e-7 at delta = 0.9 and T = 150, is the tolerance.
    cfg = benchmark_portfolio(resolution)
    inst = build_portfolio_instance(cfg)
    report = solve_discounted(inst, cfg.benchmark)
    assert report.status == "optimal"
    trajs = simulate(inst, report.policy, inst.initial, T=150, num_paths=2000, seed=resolution)
    rows = report.dominance_margins + report.dominance_rhs
    ests = estimate_discounted_shortfalls(trajs, report.dominance_grid)
    assert [e.eta for e in ests] == [-0.4, 0.0]
    assert ests[0].stderr == 0.0 and ests[0].truncation_bound < 1e-6
    for est, row in zip(ests, rows):
        assert abs(est.estimate - row) <= 4 * est.stderr + est.truncation_bound
