"""Approximate linear programming with randomized constraint sampling.

The exact dual searches over all cost-to-go functions h and utility-cone
elements u; the ALP restricts h to the span of tabular basis vectors and u to
nonnegative combinations of utility bases, then enforces only a sampled
subset of the per-pair constraints. The sample count implements the
(4/eps)(k ln(12/eps) + ln(2/delta)) bound, with k the number of ALP
variables. The ALP is solved through its LP dual, the occupation LP of
``domdp.average`` over the sampled pairs; ``build_alp`` states how that
LP's status maps to the ALP's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .average import occupation_lp
from .dominance import UtilityFunction
from .lp import LpProblem, solve_lp
from .mdp import AVERAGE, Benchmark, MdpInstance, require_valid
from .results import DualSolution
from .simulate import _ranker, _uniforms

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
        tol = RANK_TOL * np.abs(H).max(initial=0.0)
        if np.linalg.matrix_rank(H, tol=tol) < H.shape[0]:
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

    Reproducible: the uniforms come from Philox keyed by (seed, 2**32 + stream),
    so training (stream 0) and test (stream 1) samples never overlap streams.
    Only pairs of positive psi are drawn, as the simulator draws its cells: a
    uniform u draws the first whose cumulative psi reaches u, the last with
    its cumulative psi set to 1.0, through the simulator's guide-table ranker.
    """
    K = inst.num_pairs
    if psi is None:
        psi = np.full(K, 1.0 / K)
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (K,) or not np.all(psi >= 0) or abs(psi.sum() - 1.0) > 1e-9:
        raise ValueError("psi must be a probability vector over feasible pairs")
    (u,) = _uniforms(seed, [(1 << 32) + stream], m)
    pairs = np.flatnonzero(psi > 0.0)
    cum = np.cumsum(psi[pairs])
    cum[-1] = 1.0
    return pairs.take(_ranker(cum, m)(u))


@dataclass
class AlpLp(LpProblem):
    """The sampled ALP's LP; row i was multiplied by row_scale[i], a power of two."""

    row_scale: np.ndarray


def _utility_rows(inst: MdpInstance, bases: BasisSet) -> np.ndarray:
    """u_i(z(s,a)), one row per utility basis and one column per pair."""
    return np.array([u(inst.reward_z) for u in bases.u_bases]).reshape(-1, inst.num_pairs)


def build_alp(
    inst: MdpInstance,
    bench: Benchmark,
    bases: BasisSet,
    samples: np.ndarray,
) -> AlpLp:
    """LP dual of the sampled ALP: the occupation LP over the sampled pairs.

    One column x per draw (duplicates kept); the balance rows projected on
    the h bases, H B x = H b, with duals gamma; sum x = 1 in average mode,
    with dual beta; sum x u_i(z) >= E u_i(Y), with dual alpha_i. A power of
    two brings the largest entry of each row, or of a basis row's h basis,
    into [1, 2). Its optimum is the ALP's. Statuses map exactly: an optimal
    LP means an optimal ALP and an unbounded LP an infeasible ALP; when the
    LP is infeasible, the ALP is infeasible if the LP with b = 0 is
    unbounded and unbounded otherwise (Farkas's lemma).
    """
    require_valid(inst)
    samples = np.asarray(samples, dtype=int)
    if samples.size == 0:
        raise ValueError("at least one sampled constraint required")
    if inst.reward_z.ndim != 1:
        raise ValueError("ALP requires scalar z")
    if bench.is_vector:
        raise ValueError("a vector benchmark requires a generator family")
    H = bases.h_bases
    if H.shape[1] != inst.num_states:
        raise ValueError(f"h bases have {H.shape[1]} columns for {inst.num_states} states")
    lp = occupation_lp(
        inst,
        _utility_rows(inst, bases),
        np.array([u.expectation(bench) for u in bases.u_bases]),
        pairs=samples,
        project=H,
    )
    # A basis row's entries can cancel to rounding noise (a constant h in
    # average mode), so its h basis sets its scale.
    largest = np.abs(lp.A).max(axis=1)
    largest[: bases.num_h] = np.abs(H).max(axis=1)
    scale = np.ldexp(1.0, 1 - np.frexp(largest)[1])
    return AlpLp(
        lp.sense, lp.c, lp.A * scale[:, None], lp.row_senses, lp.b * scale, row_scale=scale
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
    lp = build_alp(inst, bench, bases, samples)
    sol = solve_lp(lp)
    status = "infeasible" if sol.status == "unbounded" else sol.status
    if sol.status == "infeasible":  # see build_alp
        homogeneous = solve_lp(replace(lp, b=np.zeros(lp.num_rows)))
        status = "infeasible" if homogeneous.status == "unbounded" else "unbounded"
    report = AlpReport(status, m, k, epsilon, delta, seed)
    if status != "optimal":
        return report
    # The unscaled rows' duals, -0.0 made 0.0: gamma, beta in average mode, alpha.
    y = sol.y * lp.row_scale + 0.0
    gamma, alpha = y[: bases.num_h], np.maximum(y[k - bases.num_u :], 0.0)
    beta = float(y[bases.num_h]) if inst.mode == AVERAGE else None
    u_of_z = alpha @ _utility_rows(inst, bases)
    dual = DualSolution(beta or 0.0, gamma @ bases.h_bases, alpha, None, u_of_z)
    # A pair is violated when r + sum_i alpha_i u_i(z) exceeds the dual's
    # right-hand side by more than VIOLATION_TOL relative to that side. Every
    # pair is tested once, and the test sample gathers the outcomes.
    rhs = dual.pair_rhs(inst)
    violated = inst.reward_r + u_of_z > rhs + VIOLATION_TOL * (1.0 + np.abs(rhs))
    test = sample_constraints(inst, psi, 10 * m, seed, stream=1)
    return replace(
        report, objective=sol.objective, gamma=gamma, beta=beta, alpha=alpha,
        h_approx=dual.h, violation_fraction=float(np.mean(violated[test])),
    )
