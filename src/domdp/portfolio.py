"""Discretized portfolio MDP generator for the discounted solver.

Asset prices follow independent finite Markov chains; holdings live on the
simplex grid of share counts in multiples of 1/resolution. A state is a pair
of consecutive price snapshots plus the holdings carried across that move,

    state = (previous price profile, current price profile, holdings),

so the just-realized return rate is a function of the state alone: trades at
the current prices rebalance holdings for the next move without ever seeing
future prices. The budget constraint <p, a> = 0 is enforced by enumerating
grid moves and dropping violations; a = 0 (hold) is always feasible, and with
coarse grids and unequal prices it is often the only move.

Benchmark units follow the discounted solver: the dominance rows constrain
the discounted SUM of per-period return shortfalls, so a per-period return
benchmark must be scaled by 1/(1-discount) by the caller.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .mdp import Benchmark, MdpInstance

MAX_STATES = 10**5
# Kernel entries, state-action pairs times states: 2**27 doubles are 1 GiB.
MAX_KERNEL_ENTRIES = 2**27
BUDGET_TOL = 1e-9


@dataclass(frozen=True)
class PortfolioConfig:
    price_levels: tuple[tuple[float, ...], ...]     # per-asset price values
    price_transitions: tuple[np.ndarray, ...]       # per-asset row-stochastic chains
    resolution: int                                 # holdings in multiples of 1/resolution
    discount: float
    benchmark: Benchmark
    initial_holdings: np.ndarray | None = None

    def __post_init__(self) -> None:
        if len(self.price_levels) == 0 or len(self.price_levels) != len(self.price_transitions):
            raise ValueError("one price chain (levels + transition) per asset required")
        chains = tuple(np.asarray(T, dtype=float) for T in self.price_transitions)
        object.__setattr__(self, "price_transitions", chains)
        for i, (levels, T) in enumerate(zip(self.price_levels, chains)):
            L = len(levels)
            if L == 0 or any(p <= 0 for p in levels):
                raise ValueError(f"asset {i} needs positive price levels")
            if T.shape != (L, L):
                raise ValueError(f"asset {i} transition must be {L}x{L}")
            if np.any(T < 0) or np.any(np.abs(T.sum(axis=1) - 1.0) > 1e-12):
                raise ValueError(f"asset {i} transition rows must be distributions")
        if self.resolution < 1:
            raise ValueError("resolution must be >= 1")
        if not 0.0 < self.discount < 1.0:
            raise ValueError("discount must lie in (0,1)")
        if self.initial_holdings is not None:
            x0 = np.asarray(self.initial_holdings, dtype=float)
            object.__setattr__(self, "initial_holdings", x0)
            if x0.shape != (self.n_assets,):
                raise ValueError("initial_holdings must have one entry per asset")
            scaled = x0 * self.resolution
            if np.any(np.abs(scaled - np.round(scaled)) > 1e-9) or abs(x0.sum() - 1.0) > 1e-9:
                raise ValueError("initial_holdings must be grid fractions summing to 1")

    @property
    def n_assets(self) -> int:
        return len(self.price_levels)

    def profiles(self) -> list[tuple[int, ...]]:
        """Joint price profiles as per-asset level indices, lexicographic."""
        return list(itertools.product(*(range(len(lv)) for lv in self.price_levels)))

    def profile_prices(self, profile: tuple[int, ...]) -> np.ndarray:
        return np.array([self.price_levels[i][li] for i, li in enumerate(profile)])

    def profile_transition(self, a: tuple[int, ...], b: tuple[int, ...]) -> float:
        prob = 1.0
        for i, (la, lb) in enumerate(zip(a, b)):
            prob *= float(self.price_transitions[i][la, lb])
        return prob

    @property
    def grid_size(self) -> int:
        """Points of the holdings grid: share counts of n assets summing to resolution."""
        return math.comb(self.resolution + self.n_assets - 1, self.n_assets - 1)

    def holdings_grid(self) -> np.ndarray:
        """All share-count vectors in multiples of 1/resolution summing to 1,
        one per row, in lexicographic order of the counts."""
        d, n = self.resolution, self.n_assets
        # Stars and bars: the n - 1 bars' places among d + n - 1, in
        # lexicographic order, and the counts are the gaps between them.
        bars = list(itertools.combinations(range(d + n - 1), n - 1))
        places = np.full((len(bars), n + 1), -1)
        places[:, 1:n] = np.array(bars, dtype=int).reshape(len(bars), n - 1)
        places[:, n] = d + n - 1
        return (np.diff(places, axis=1) - 1) / d

    @property
    def base_state_count(self) -> int:
        """Price profiles times grid points; reported before building."""
        return math.prod(len(lv) for lv in self.price_levels) * self.grid_size

    def default_initial_holdings(self) -> np.ndarray:
        if self.initial_holdings is not None:
            return self.initial_holdings
        grid = self.holdings_grid()
        target = np.full(self.n_assets, 1.0 / self.n_assets)
        dists = [float(np.sum((x - target) ** 2)) for x in grid]
        return grid[int(np.argmin(dists))]


def build_portfolio_instance(cfg: PortfolioConfig) -> MdpInstance:
    """Assemble the discounted MdpInstance from the discretized model.

    r(s,a) = -sum_i a(i)^2 (negated transaction cost) and z(s,a) is the
    return rate realized across the state's price move. The initial
    distribution draws the previous profile uniformly and the current one
    from the chain, with fixed initial holdings.
    """
    profiles = cfg.profiles()
    pairs = [
        (ia, ib)
        for ia in range(len(profiles))
        for ib in range(len(profiles))
        if cfg.profile_transition(profiles[ia], profiles[ib]) > 0.0
    ]
    num_states = len(pairs) * cfg.grid_size
    if num_states > MAX_STATES:
        raise ValueError(f"state count {num_states} exceeds guard {MAX_STATES}")
    over = f"exceeds guard {MAX_KERNEL_ENTRIES} entries"
    # Every state can hold, so there are at least num_states pairs: the counts
    # alone refuse a kernel before the budget test's grid x grid array.
    if num_states * cfg.grid_size > MAX_KERNEL_ENTRIES:
        raise ValueError(f"kernel of at least {num_states} pairs x {num_states} states {over}")
    grid = cfg.holdings_grid()
    prices = [cfg.profile_prices(p) for p in profiles]
    # The budget test per current profile: budget[ib][g, g2] holds when the
    # move from grid point g to g2 keeps the wealth at prices[ib].
    wealth = {ib: grid @ prices[ib] for _, ib in pairs}
    budget = {ib: np.abs(w[None, :] - w[:, None]) <= BUDGET_TOL for ib, w in wealth.items()}
    num_pairs = sum(int(np.count_nonzero(budget[ib])) for _, ib in pairs)
    if num_pairs * num_states > MAX_KERNEL_ENTRIES:
        raise ValueError(f"kernel of {num_pairs} pairs x {num_states} states {over}")
    pair_index = {pair: pi for pi, pair in enumerate(pairs)}
    size = len(grid)

    actions: list[tuple[str, ...]] = []
    kernel = np.zeros((num_pairs, num_states))
    reward_r: list[float] = []
    reward_z: list[float] = []
    for ia, ib in pairs:
        p_prev, p_cur = prices[ia], prices[ib]
        next_probs = np.array([cfg.profile_transition(profiles[ib], pc) for pc in profiles])
        nxt = np.flatnonzero(next_probs > 0.0)
        # State (ib, ic, g2) is number pair_index[(ib, ic)] * size + g2.
        nxt_first = np.array([pair_index[(ib, ic)] for ic in nxt.tolist()]) * size
        for g, x in enumerate(grid):
            wealth_prev = float(p_prev @ x)
            z = (float(p_cur @ x) - wealth_prev) / wealth_prev
            labels = []
            for g2 in np.flatnonzero(budget[ib][g]).tolist():
                a = grid[g2] - x
                labels.append("hold" if g2 == g else f"to{g2}")
                kernel[len(reward_r), nxt_first + g2] = next_probs[nxt]
                reward_r.append(-float(np.sum(a * a)))
                reward_z.append(z)
            actions.append(tuple(labels))

    initial = np.zeros(num_states)
    x0 = cfg.default_initial_holdings()
    g0_candidates = [g for g, x in enumerate(grid) if np.allclose(x, x0)]
    g0 = g0_candidates[0]
    uniform = 1.0 / len(profiles)
    for pi, (ia, ib) in enumerate(pairs):
        initial[pi * size + g0] = uniform * cfg.profile_transition(profiles[ia], profiles[ib])

    return MdpInstance(
        num_states=num_states,
        actions=tuple(actions),
        kernel=kernel,
        reward_r=np.array(reward_r),
        reward_z=np.array(reward_z),
        mode="discounted",
        discount=cfg.discount,
        initial=initial,
    )
