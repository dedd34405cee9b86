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


def build_alp(
    inst: MdpInstance,
    bench: Benchmark,
    bases: BasisSet,
    samples: np.ndarray,
) -> LpProblem:
    """Restricted dual over (gamma, beta, alpha), one row per sampled pair.

    Average mode constrains r + sum_i alpha_i u_i(z) <= beta + (gamma.H)(s)
    - sum_j P(j|s,a)(gamma.H)(j); discounted mode drops beta and discounts the
    expectation term. alpha >= 0 keeps the recovered multiplier inside the
    utility cone even though the unrestricted dual would allow any sign.
    """
    require_valid(inst)
    samples = np.asarray(samples, dtype=int)
    if samples.size == 0:
        raise ValueError("at least one sampled constraint required")
    if inst.reward_z.ndim != 1:
        raise ValueError("ALP requires scalar z")
    average = inst.mode == AVERAGE
    H = bases.h_bases
    if H.shape[1] != inst.num_states:
        raise ValueError(f"h bases have {H.shape[1]} columns for {inst.num_states} states")
    mh, nu = bases.num_h, bases.num_u
    u_of_z = np.zeros((nu, inst.num_pairs))
    for i, u in enumerate(bases.u_bases):
        u_of_z[i] = u(inst.reward_z)
    exp_u = np.array([u.expectation(bench) for u in bases.u_bases])
    state_of = inst.state_of_pair()
    # (gamma.H)(s) - [delta] sum_j P(j|s,a) (gamma.H)(j), per pair and h-basis.
    h_term = H.T[state_of] - inst.delta * (inst.kernel @ H.T)
    k_vars = mh + (1 if average else 0) + nu
    A = np.zeros((samples.size, k_vars))
    A[:, :mh] = -h_term[samples]
    if average:
        A[:, mh] = -1.0
    A[:, k_vars - nu :] = u_of_z[:, samples].T
    b = -inst.reward_r[samples]
    labels = [f"sample[{i}]@pair[{pair}]" for i, pair in enumerate(samples)]
    c = np.zeros(k_vars)
    lower = np.full(k_vars, -np.inf)
    col_labels = [f"gamma[{j}]" for j in range(mh)]
    if average:
        c[mh] = 1.0
        col_labels.append("beta")
        c[mh + 1 :] = -exp_u
    else:
        nu_weights = inst.initial @ H.T
        c[:mh] = nu_weights
        c[mh:] = -exp_u
    col_labels += [f"alpha[{i}]" for i in range(nu)]
    lower[k_vars - nu :] = 0.0
    return LpProblem(
        sense="min",
        c=c,
        A=A,
        row_senses=[LE] * samples.size,
        b=b,
        lower=lower,
        row_labels=labels,
        col_labels=col_labels,
    )


@dataclass
class AlpReport:
    status: str
    objective: float | None
    gamma: np.ndarray | None
    beta: float | None
    alpha: np.ndarray | None
    utility: UtilityFunction | None
    h_approx: np.ndarray | None        # gamma . H per state
    num_samples: int
    num_variables: int
    violation_fraction: float | None
    epsilon: float | None = None
    delta: float | None = None
    seed: int | None = None

    def to_obj(self) -> dict:
        out = {
            "status": self.status,
            "num_samples": self.num_samples,
            "num_variables": self.num_variables,
        }
        if self.status == "optimal":
            out["objective"] = self.objective
            out["gamma"] = [float(g) for g in self.gamma]
            if self.beta is not None:
                out["beta"] = float(self.beta)
            out["alpha"] = [float(a) for a in self.alpha]
            out["h_approx"] = [float(v) for v in self.h_approx]
            if self.violation_fraction is not None:
                out["violation_fraction"] = self.violation_fraction
        if self.epsilon is not None:
            out["epsilon"] = self.epsilon
            out["delta"] = self.delta
            out["seed"] = self.seed
        out["alpha_nonnegative"] = True  # cone restriction vs the free-sign dual
        return out


def _constraint_violations(
    inst: MdpInstance,
    bases: BasisSet,
    gamma: np.ndarray,
    beta: float,
    alpha: np.ndarray,
    pairs: np.ndarray,
    tol: float = 1e-9,
) -> float:
    average = inst.mode == AVERAGE
    H = bases.h_bases
    state_of = inst.state_of_pair()
    h_of = gamma @ H
    h_term = h_of[state_of[pairs]] - inst.delta * (inst.kernel[pairs] @ h_of)
    u_val = np.zeros(pairs.size)
    for a_i, u in zip(alpha, bases.u_bases):
        u_val += a_i * u(inst.reward_z[pairs])
    lhs = inst.reward_r[pairs] + u_val
    rhs = (beta if average else 0.0) + h_term
    scale = 1.0 + np.abs(rhs)
    return float(np.mean(lhs > rhs + tol * scale))


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
    average = inst.mode == AVERAGE
    k = bases.num_h + (1 if average else 0) + bases.num_u
    m = sample_count(epsilon, delta, k)
    samples = sample_constraints(inst, psi, m, seed, stream=0)
    lp = build_alp(inst, bench, bases, samples)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        return AlpReport(
            status=sol.status,
            objective=None,
            gamma=None,
            beta=None,
            alpha=None,
            utility=None,
            h_approx=None,
            num_samples=m,
            num_variables=k,
            violation_fraction=None,
            epsilon=epsilon,
            delta=delta,
            seed=seed,
        )
    gamma, beta, alpha = split_alp_solution(inst, bases, sol.x)
    test = sample_constraints(inst, psi, 10 * m, seed, stream=1)
    frac = _constraint_violations(
        inst, bases, gamma, beta if beta is not None else 0.0, alpha, test
    )
    return AlpReport(
        status="optimal",
        objective=sol.objective,
        gamma=gamma,
        beta=beta,
        alpha=alpha,
        utility=combine_utility(bases, alpha),
        h_approx=gamma @ bases.h_bases,
        num_samples=m,
        num_variables=k,
        violation_fraction=frac,
        epsilon=epsilon,
        delta=delta,
        seed=seed,
    )


def split_alp_solution(
    inst: MdpInstance, bases: BasisSet, x: np.ndarray
) -> tuple[np.ndarray, float | None, np.ndarray]:
    mh = bases.num_h
    if inst.mode == AVERAGE:
        return x[:mh], float(x[mh]), np.maximum(x[mh + 1 :], 0.0)
    return x[:mh], None, np.maximum(x[mh:], 0.0)


def combine_utility(bases: BasisSet, alpha: np.ndarray) -> UtilityFunction | None:
    """Sum of weighted u-bases, merged onto a common breakpoint grid."""
    if bases.num_u == 0:
        return None
    merged: dict[float, float] = {}
    for a_i, u in zip(alpha, bases.u_bases):
        for eta, w in zip(u.breakpoints, u.weights):
            merged[float(eta)] = merged.get(float(eta), 0.0) + float(a_i * w)
    etas = np.array(sorted(merged))
    return UtilityFunction(breakpoints=etas, weights=np.array([merged[e] for e in etas]))
