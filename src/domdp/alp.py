"""Approximate linear programming with randomized constraint sampling.

The exact dual searches over all cost-to-go functions h and utility-cone
elements u; the ALP restricts h to the span of tabular basis vectors and u to
nonnegative combinations of utility bases, then enforces only a sampled
subset of the per-pair constraints. The sample count implements the
(4/eps)(k ln(12/eps) + ln(2/delta)) bound, with k the number of ALP
variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dominance import UtilityFunction
from .lp import LE, LpProblem, solve_lp
from .mdp import AVERAGE, Benchmark, MdpInstance, require_valid

RANK_TOL = 1e-10
VIOLATION_TOL = 1e-9


@dataclass(frozen=True)
class BasisSet:
    """Tabular bases for h plus utility-cone bases for the dominance multiplier."""

    h_bases: np.ndarray                      # (m, num_states)
    u_bases: tuple[UtilityFunction, ...]

    def __post_init__(self) -> None:
        H = np.asarray(self.h_bases, dtype=float)
        if H.ndim != 2 or H.shape[0] == 0:
            raise ValueError("h_bases must be a nonempty (m, num_states) matrix")
        if not np.all(np.isfinite(H)):
            raise ValueError("h bases must be finite")
        object.__setattr__(self, "h_bases", H)
        scale = max(np.abs(H).max(initial=0.0), 1.0)
        if np.linalg.matrix_rank(H, tol=RANK_TOL * scale) < H.shape[0]:
            raise ValueError("h bases are linearly dependent")

    @property
    def num_h(self) -> int:
        return self.h_bases.shape[0]

    @property
    def num_u(self) -> int:
        return len(self.u_bases)


def complete_basis(inst: MdpInstance, bench: Benchmark) -> BasisSet:
    """Indicator basis per state plus one kink per benchmark support point.

    With every constraint enforced this reproduces the exact dual.
    """
    u_bases = tuple(
        UtilityFunction(breakpoints=np.array([eta]), weights=np.array([1.0]))
        for eta in bench.support
    )
    return BasisSet(h_bases=np.eye(inst.num_states), u_bases=u_bases)


def sample_count(epsilon: float, delta: float, k: int) -> int:
    """Samples sufficient for an epsilon violation measure with confidence 1-delta."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon!r}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0,1), got {delta!r}")
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return math.ceil((4.0 / epsilon) * (k * math.log(12.0 / epsilon) + math.log(2.0 / delta)))


def sample_constraints(
    inst: MdpInstance,
    psi: np.ndarray | None,
    m: int,
    seed: int,
    stream: int = 0,
) -> np.ndarray:
    """m i.i.d. pair indices drawn from psi (uniform when None); duplicates kept.

    Reproducible: draws come from Philox keyed by (seed, stream), so training
    (stream 0) and test (stream 1) samples never overlap streams.
    """
    K = inst.num_pairs
    if psi is None:
        psi = np.full(K, 1.0 / K)
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (K,) or np.any(psi < 0) or abs(psi.sum() - 1.0) > 1e-9:
        raise ValueError("psi must be a probability vector over feasible pairs")
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, (1 << 32) + stream], dtype=np.uint64)
    u = np.random.Generator(np.random.Philox(key=key)).random(m)
    cum = np.cumsum(psi)
    idx = np.searchsorted(cum, u, side="left")
    return np.minimum(idx, K - 1)


def _alp_rows(
    inst: MdpInstance, bases: BasisSet, pairs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The constraints of the given pairs as A x <= b over (gamma, beta, alpha).

    Row (s, a) reads -(gamma.H)(s) + delta sum_j P(j|s,a)(gamma.H)(j) - beta
    + sum_i alpha_i u_i(z) <= -r; beta's column exists in average mode only.
    """
    H = bases.h_bases
    mh = bases.num_h
    beta = int(inst.mode == AVERAGE)
    # (gamma.H)(s) - delta sum_j P(j|s,a) (gamma.H)(j), per pair and h-basis.
    h_term = H.T[inst.state_of_pair()] - inst.delta * (inst.kernel @ H.T)
    A = np.empty((pairs.size, mh + beta + bases.num_u))
    A[:, :mh] = -h_term[pairs]
    A[:, mh : mh + beta] = -1.0
    for i, u in enumerate(bases.u_bases):
        A[:, mh + beta + i] = u(inst.reward_z)[pairs]
    return A, -inst.reward_r[pairs]


def build_alp(
    inst: MdpInstance,
    bench: Benchmark,
    bases: BasisSet,
    samples: np.ndarray,
) -> LpProblem:
    """Restricted dual over (gamma, beta, alpha), one row per sampled pair.

    Each row constrains r + sum_i alpha_i u_i(z) <= beta + (gamma.H)(s)
    - delta sum_j P(j|s,a)(gamma.H)(j), with delta = 1 in average mode; the
    rows come from ``_alp_rows``, which also checks the test sample.
    Discounted mode has no beta and prices gamma by the initial distribution
    instead. alpha >= 0 keeps the recovered multiplier inside the utility
    cone even though the unrestricted dual would allow any sign.
    """
    require_valid(inst)
    samples = np.asarray(samples, dtype=int)
    if samples.size == 0:
        raise ValueError("at least one sampled constraint required")
    if inst.reward_z.ndim != 1:
        raise ValueError("ALP requires scalar z")
    H = bases.h_bases
    if H.shape[1] != inst.num_states:
        raise ValueError(f"h bases have {H.shape[1]} columns for {inst.num_states} states")
    A, b = _alp_rows(inst, bases, samples)
    mh, k_vars = bases.num_h, A.shape[1]
    alpha = slice(k_vars - bases.num_u, k_vars)
    c = np.zeros(k_vars)
    c[alpha] = [-u.expectation(bench) for u in bases.u_bases]
    col_labels = [f"gamma[{j}]" for j in range(mh)]
    if inst.mode == AVERAGE:
        c[mh] = 1.0
        col_labels.append("beta")
    else:
        c[:mh] = inst.initial @ H.T
    col_labels += [f"alpha[{i}]" for i in range(bases.num_u)]
    lower = np.full(k_vars, -np.inf)
    lower[alpha] = 0.0
    return LpProblem(
        sense="min",
        c=c,
        A=A,
        row_senses=[LE] * samples.size,
        b=b,
        lower=lower,
        row_labels=[f"sample[{i}]@pair[{pair}]" for i, pair in enumerate(samples)],
        col_labels=col_labels,
    )


@dataclass
class AlpReport:
    status: str
    num_samples: int
    num_variables: int
    epsilon: float
    delta: float
    seed: int
    objective: float | None = None
    gamma: np.ndarray | None = None
    beta: float | None = None
    alpha: np.ndarray | None = None
    h_approx: np.ndarray | None = None        # gamma . H per state
    violation_fraction: float | None = None

    def to_obj(self) -> dict:
        out = {
            "status": self.status,
            "num_samples": self.num_samples,
            "num_variables": self.num_variables,
        }
        if self.status == "optimal":
            out["objective"] = self.objective
            out["gamma"] = self.gamma
            if self.beta is not None:
                out["beta"] = self.beta
            out["alpha"] = self.alpha
            out["h_approx"] = self.h_approx
            if self.violation_fraction is not None:
                out["violation_fraction"] = self.violation_fraction
        out["epsilon"] = self.epsilon
        out["delta"] = self.delta
        out["seed"] = self.seed
        out["alpha_nonnegative"] = True  # cone restriction vs the free-sign dual
        return out


def solve_alp(
    inst: MdpInstance,
    bench: Benchmark,
    bases: BasisSet,
    epsilon: float,
    delta: float,
    psi: np.ndarray | None = None,
    seed: int = 0,
) -> AlpReport:
    """Sampled ALP: draw the bound's worth of constraints, solve, measure violations.

    The violation fraction is estimated on a fresh test sample of 10m pairs
    drawn from the same psi on a separate stream.
    """
    k = bases.num_h + (inst.mode == AVERAGE) + bases.num_u
    m = sample_count(epsilon, delta, k)
    samples = sample_constraints(inst, psi, m, seed, stream=0)
    sol = solve_lp(build_alp(inst, bench, bases, samples))
    if sol.status != "optimal":
        return AlpReport(
            status=sol.status,
            num_samples=m,
            num_variables=k,
            epsilon=epsilon,
            delta=delta,
            seed=seed,
        )
    # Columns: gamma, then beta in average mode, then alpha from column a.
    x, a = sol.x, k - bases.num_u
    gamma, alpha = x[: bases.num_h], x[a:]
    # A test row is violated when its u-side, r + sum_i alpha_i u_i(z),
    # exceeds its h-side by more than VIOLATION_TOL relative to the h-side.
    A, b = _alp_rows(inst, bases, sample_constraints(inst, psi, 10 * m, seed, stream=1))
    h_side = -(A[:, :a] @ x[:a])
    violated = A[:, a:] @ alpha - b > h_side + VIOLATION_TOL * (1.0 + np.abs(h_side))
    return AlpReport(
        status="optimal",
        objective=sol.objective,
        gamma=gamma,
        beta=float(x[bases.num_h]) if a > bases.num_h else None,
        alpha=alpha,
        h_approx=gamma @ bases.h_bases,
        num_samples=m,
        num_variables=k,
        violation_fraction=float(np.mean(violated)),
        epsilon=epsilon,
        delta=delta,
        seed=seed,
    )
