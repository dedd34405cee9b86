import itertools

import numpy as np
import pytest

from domdp.discounted import solve_discounted
from domdp.mdp import Benchmark, validate_instance
from domdp.portfolio import PortfolioConfig, build_portfolio_instance


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
