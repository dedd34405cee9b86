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

The joint price chain is the Kronecker product of the asset chains, over
profiles in lexicographic order of the assets' level indices. States run
over the (previous, current profile) pairs with positive joint probability
in row-major order of the joint chain, then over the grid points, so state
pair * grid_size + g holds grid point g. One wealth table, grid point by
profile, serves both the budget test and the return rate z. The kernel is
built as compressed rows (``domdp.sparse``) from its (pair, next state,
probability) coordinates, which the instance holds as they are unless the
kernel is too dense for that (``domdp.mdp``).

Benchmark units follow the discounted solver: the dominance rows constrain
the discounted SUM of per-period return shortfalls, so a per-period return
benchmark must be scaled by 1/(1-discount) by the caller.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import sparse
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
            if not np.all(np.isfinite(levels)):
                raise ValueError(f"asset {i} price_levels must be finite")
            if L == 0 or any(p <= 0 for p in levels):
                raise ValueError(f"asset {i} needs positive price levels")
            if T.shape != (L, L):
                raise ValueError(f"asset {i} transition must be {L}x{L}")
            if not np.all(np.isfinite(T)):
                raise ValueError(f"asset {i} price_transitions must be finite")
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
            if not np.all(np.isfinite(x0)):
                raise ValueError("initial_holdings must be finite")
            scaled = x0 * self.resolution
            off_grid = np.any(np.abs(scaled - np.round(scaled)) > 1e-9) or np.any(x0 < 0)
            if off_grid or abs(x0.sum() - 1.0) > 1e-9:
                raise ValueError("initial_holdings must be grid fractions summing to 1")

    @property
    def n_assets(self) -> int:
        return len(self.price_levels)

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


def build_portfolio_instance(cfg: PortfolioConfig) -> MdpInstance:
    """Assemble the discounted MdpInstance from the discretized model.

    r(s,a) = -sum_i a(i)^2 (negated transaction cost) and z(s,a) is the
    return rate realized across the state's price move. The initial
    distribution draws the previous profile uniformly and the current one
    from the chain, with fixed initial holdings (by default the grid point
    nearest equal weights).
    """
    over = f"exceeds guard {MAX_KERNEL_ENTRIES} entries"
    # Every profile moves somewhere and every state can hold, so the kernel has
    # at least base_state_count**2 entries: refused before the joint chain.
    if (base := cfg.base_state_count) ** 2 > MAX_KERNEL_ENTRIES:
        raise ValueError(f"kernel of at least {base} pairs x {base} states {over}")
    joint = functools.reduce(np.kron, cfg.price_transitions)
    prev, cur = np.nonzero(joint > 0.0)
    prob = joint[prev, cur]
    size = cfg.grid_size
    num_states = prev.size * size
    if num_states > MAX_STATES:
        raise ValueError(f"state count {num_states} exceeds guard {MAX_STATES}")
    # Every state can hold, so there are at least num_states pairs: the counts
    # alone refuse a kernel before the budget test's grid x grid array.
    if num_states * size > MAX_KERNEL_ENTRIES:
        raise ValueError(f"kernel of at least {num_states} pairs x {num_states} states {over}")
    grid = cfg.holdings_grid()
    # wealth[g, q] is grid point g's wealth at price profile q; budget[q][g, g2]
    # holds when the move from g to g2 keeps that wealth.
    wealth = grid @ np.array(list(itertools.product(*cfg.price_levels))).T
    budget = np.array([np.abs(w[None, :] - w[:, None]) <= BUDGET_TOL for w in wealth.T])
    num_pairs = int(np.count_nonzero(budget, axis=(1, 2))[cur].sum())
    if num_pairs * num_states > MAX_KERNEL_ENTRIES:
        raise ValueError(f"kernel of {num_pairs} pairs x {num_states} states {over}")

    # Move k takes state pair[k] * size + g[k] to grid point g2[k], in state order.
    pair, g, g2 = np.nonzero(budget[cur])
    # Its next states are the pairs leaving its current profile, each at g2[k],
    # in increasing order: the kernel's compressed rows.
    rows, nxt = np.nonzero(prev == cur[pair][:, None])
    kernel = sparse.from_entries(rows, nxt * size + g2[rows], prob[nxt], num_pairs, num_states)
    trade = grid[g2] - grid[g]
    wealth_prev = wealth[g, prev[pair]]
    labels = "to" + g2.astype(str).astype(object)
    labels[g2 == g] = "hold"

    target = cfg.initial_holdings
    if target is None:
        target = np.full(cfg.n_assets, 1.0 / cfg.n_assets)
    g0 = np.argmin(np.sum((grid - target) ** 2, axis=1))
    initial = np.zeros((prev.size, size))
    initial[:, g0] = (1.0 / len(joint)) * prob

    return MdpInstance(
        num_states=num_states,
        actions=tuple(map(tuple, np.split(labels, np.flatnonzero(np.diff(pair * size + g)) + 1))),
        kernel=kernel,
        reward_r=-np.sum(trade * trade, axis=1),
        reward_z=(wealth[g, cur[pair]] - wealth_prev) / wealth_prev,
        mode="discounted",
        discount=cfg.discount,
        initial=initial.ravel(),
    )
