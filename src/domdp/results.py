"""Solution containers shared by the average and discounted solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dominance import UtilityFunction
from .mdp import AVERAGE, MdpInstance, Policy

MASS_TOL = 1e-8


@dataclass(frozen=True)
class PairTable:
    """Values in dense pair order, as a report table that ``io.dumps`` writes.

    With labels (one tuple of action labels per state, as
    ``MdpInstance.actions``), one row [s, label, value] per pair; without,
    one row [s, [values of s's pairs]] per state. State s's values are
    values[offsets[s]:offsets[s + 1]].
    """

    values: np.ndarray
    offsets: np.ndarray
    labels: tuple[tuple[str, ...], ...] | None = None


@dataclass(frozen=True)
class OccupationMeasure:
    """Nonnegative pair weights x(s,a); the primal LP variable.

    Average mode: a probability measure whose state marginal is invariant
    under the induced kernel. Discounted mode: total mass 1/(1-discount),
    balance rows anchored at the initial distribution. The mode is inst's.
    """

    inst: MdpInstance
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.ascontiguousarray(self.weights, dtype=float)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        if w.shape != (self.inst.num_pairs,):
            raise ValueError("one weight per feasible pair required")

    def state_marginal(self) -> np.ndarray:
        out = np.zeros(self.inst.num_states)
        np.add.at(out, self.inst.state_of_pair(), self.weights)
        return out

    def residuals(self) -> dict[str, float]:
        """Invariant residuals: mass defect and flow-balance sup norm."""
        delta = self.inst.delta
        average = self.inst.mode == AVERAGE
        inflow = self.weights @ self.inst.P
        b = 0.0 if average else self.inst.initial
        mass = abs(float(self.weights.sum()) - (1.0 if average else 1.0 / (1.0 - delta)))
        balance = float(np.abs(self.state_marginal() - delta * inflow - b).max())
        return {"mass": mass, "balance": balance}

    def is_valid(self) -> bool:
        r = self.residuals()
        return (
            r["mass"] <= MASS_TOL
            and r["balance"] <= MASS_TOL
            and float(self.weights.min(initial=0.0)) >= -MASS_TOL
        )


@dataclass(frozen=True)
class DualSolution:
    """Dual of the occupation LP: gain g, cost-to-go h, dominance multipliers lambda.

    In discounted mode g is 0.0 and h is the value function, also read as v.
    """

    g: float
    h: np.ndarray
    lam: np.ndarray
    utility: UtilityFunction | None
    u_of_z: np.ndarray   # utility evaluated at z(s,a), one entry per pair

    @property
    def v(self) -> np.ndarray:
        return self.h

    def pair_rhs(self, inst: MdpInstance) -> np.ndarray:
        """Bound g + h(s) - delta sum_j P(j|s,a) h(j) on r + u(z), one entry per pair."""
        h = self.h
        return self.g + h[inst.state_of_pair()] - inst.delta * (inst.P @ h)

    def feasibility_residual(self, inst: MdpInstance) -> float:
        """Max violation of r(s,a) + u(z(s,a)) <= g + h(s) - delta sum_j P(j|s,a) h(j)."""
        lhs = inst.reward_r + self.u_of_z
        return float(np.maximum(lhs - self.pair_rhs(inst), 0.0).max(initial=0.0))


@dataclass(frozen=True)
class SlacknessSummary:
    dominance: np.ndarray    # |lam_q * (row value - rhs)| per dominance row
    pairs: np.ndarray        # |x(s,a) * dual slack| per pair

    @property
    def max_dominance(self) -> float:
        return float(self.dominance.max(initial=0.0))

    @property
    def max_pair(self) -> float:
        return float(self.pairs.max(initial=0.0))


@dataclass
class SolveReport:
    """Primal plus dual solution, with every verification residual filled in."""

    status: str
    mode: str
    objective: float | None = None
    dual_objective: float | None = None
    gap: float | None = None
    occupation: OccupationMeasure | None = None
    dual: DualSolution | None = None
    policy: Policy | None = None
    dominance_grid: np.ndarray | None = None       # etas, or param indices for families
    dominance_matrix: np.ndarray | None = None     # LP dominance block, rows x pairs
    dominance_rhs: np.ndarray | None = None
    dominance_margins: np.ndarray | None = None
    slackness: SlacknessSummary | None = None
    optimality_residuals: np.ndarray | None = None
    visited_states: np.ndarray | None = None       # marginal above threshold
    multichain: bool | None = None
    family_mode: bool = False
    binding_etas: list[float] = field(default_factory=list)
    certificate: list[tuple[str, float]] = field(default_factory=list)

    def to_obj(self) -> dict:
        """JSON-ready dictionary in the documented report schema."""
        if self.status != "optimal":
            out = {"status": self.status, "mode": self.mode}
            if self.certificate:
                out["certificate"] = [[label, w] for label, w in self.certificate]
            if self.binding_etas:
                out["binding_etas"] = list(self.binding_etas)
            return out
        inst = self.occupation.inst
        out = {
            "status": self.status,
            "mode": self.mode,
            "objective": self.objective,
            "dual_objective": self.dual_objective,
            "gap": self.gap,
            "x": PairTable(self.occupation.weights, inst.pair_offsets, inst.actions),
            "policy": PairTable(self.policy.probs, self.policy.offsets),
        }
        if self.mode == AVERAGE:
            out["g"] = self.dual.g
            out["h"] = self.dual.h
        else:
            out["initial_weighted_value"] = inst.initial @ self.dual.v
            out["v"] = self.dual.v
        out["lambda"] = np.column_stack([self.dominance_grid, self.dual.lam])
        out["slackness"] = {
            "max_dominance": self.slackness.max_dominance,
            "max_pair": self.slackness.max_pair,
            "dominance": self.slackness.dominance,
            "pairs": self.slackness.pairs,
        }
        out["optimality_residuals"] = self.optimality_residuals
        out["dominance_margins"] = np.column_stack([self.dominance_grid, self.dominance_margins])
        out["multichain"] = bool(self.multichain)
        if self.family_mode:
            out["family"] = True
        return out
