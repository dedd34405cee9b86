"""Finite MDP data model shared by all solvers.

States are dense integers 0..num_states-1. Actions are opaque string labels
per state; all numeric work uses dense pair indices in state-major order
(state 0's actions first, in the order listed, then state 1's, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

KERNEL_TOL = 1e-12
BENCH_TOL = 1e-12
POLICY_TOL = 1e-9

AVERAGE = "average"
DISCOUNTED = "discounted"


@dataclass(frozen=True)
class Violation:
    """One invariant violation, located as precisely as the defect allows."""

    kind: str
    state: int | None = None
    action: str | None = None
    next_state: int | None = None
    magnitude: float = 0.0
    message: str = ""

    def __str__(self) -> str:
        return self.message or self.kind


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class MdpInstance:
    """Finite MDP with a primary reward r and a secondary reward z.

    kernel, reward_r and reward_z are indexed by dense pair index; kernel row
    k is P(. | s,a) for the k-th feasible pair. reward_z is (K,) for scalar z
    or (K, n) for vector z.
    """

    num_states: int
    actions: tuple[tuple[str, ...], ...]
    kernel: np.ndarray
    reward_r: np.ndarray
    reward_z: np.ndarray
    mode: str
    discount: float | None = None
    initial: np.ndarray | None = None
    pair_offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_states <= 0:
            raise ValueError("num_states must be positive")
        if len(self.actions) != self.num_states:
            raise ValueError("actions must list one action set per state")
        if self.mode not in (AVERAGE, DISCOUNTED):
            raise ValueError(f"unknown mode {self.mode!r}")
        counts = np.array([len(a) for a in self.actions], dtype=int)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        num_pairs = int(offsets[-1])
        object.__setattr__(self, "pair_offsets", offsets)
        object.__setattr__(self, "kernel", _freeze(self.kernel))
        object.__setattr__(self, "reward_r", _freeze(self.reward_r))
        object.__setattr__(self, "reward_z", _freeze(self.reward_z))
        if self.kernel.shape != (num_pairs, self.num_states):
            raise ValueError(
                f"kernel shape {self.kernel.shape} != ({num_pairs}, {self.num_states})"
            )
        if self.reward_r.shape != (num_pairs,):
            raise ValueError("reward_r must have one entry per feasible pair")
        if self.reward_z.ndim not in (1, 2) or self.reward_z.shape[0] != num_pairs:
            raise ValueError("reward_z must have one (scalar or vector) entry per pair")
        if self.initial is not None:
            object.__setattr__(self, "initial", _freeze(self.initial))
            if self.initial.shape != (self.num_states,):
                raise ValueError("initial must be a distribution over states")

    @property
    def num_pairs(self) -> int:
        return int(self.pair_offsets[-1])

    @property
    def delta(self) -> float:
        """Discount on the balance rows' inflow: 1.0 in average mode."""
        return 1.0 if self.mode == AVERAGE else float(self.discount)

    def pair_index(self, state: int, action_pos: int) -> int:
        return int(self.pair_offsets[state]) + action_pos

    def state_of_pair(self) -> np.ndarray:
        """Dense pair index -> state, as an int array of length num_pairs."""
        return np.repeat(
            np.arange(self.num_states), np.diff(self.pair_offsets).astype(int)
        )


@dataclass(frozen=True)
class Benchmark:
    """Finitely supported reference distribution, support strictly increasing.

    Duplicate support points are merged at construction by summing their
    probabilities, so the support always forms a usable eta grid.
    """

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        support = np.asarray(self.support, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if not (np.all(np.isfinite(support)) and np.all(np.isfinite(probs))):
            raise ValueError("benchmark support and probs must be finite")
        if support.ndim == 1:
            if support.shape != probs.shape or support.size == 0:
                raise ValueError("support and probs must be equal-length and nonempty")
            order = np.argsort(support, kind="stable")
            support, probs = support[order], probs[order]
            keep_s, keep_p = [support[0]], [probs[0]]
            for v, p in zip(support[1:], probs[1:]):
                if v == keep_s[-1]:
                    keep_p[-1] += p
                else:
                    keep_s.append(v)
                    keep_p.append(p)
            support = np.array(keep_s)
            probs = np.array(keep_p)
        elif support.ndim == 2:
            # Vector-valued benchmark for generator families; no merge/order.
            if support.shape[0] != probs.shape[0] or support.size == 0:
                raise ValueError("support and probs must be equal-length and nonempty")
        else:
            raise ValueError("support must be 1-d (scalar) or 2-d (vector)")
        if np.any(probs < -BENCH_TOL):
            raise ValueError("benchmark probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > BENCH_TOL:
            raise ValueError(f"benchmark probabilities sum to {probs.sum()!r}, not 1")
        object.__setattr__(self, "support", _freeze(support))
        object.__setattr__(self, "probs", _freeze(np.maximum(probs, 0.0)))

    @property
    def is_vector(self) -> bool:
        return self.support.ndim == 2


@dataclass(frozen=True)
class Policy:
    """Stationary randomized policy: one probability vector over A(s) per state."""

    rows: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        rows = tuple(_freeze(np.asarray(r, dtype=float)) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        for s, row in enumerate(rows):
            if row.ndim != 1 or row.size == 0:
                raise ValueError(f"policy row for state {s} must be a nonempty vector")
            if np.any(row < -POLICY_TOL):
                raise ValueError(f"policy row for state {s} has negative entries")
            if abs(row.sum() - 1.0) > POLICY_TOL:
                raise ValueError(f"policy row for state {s} sums to {row.sum()!r}")

    def action_index(self, state: int) -> int:
        """Most likely action, for deterministic policies."""
        return int(np.argmax(self.rows[state]))


def validate_instance(inst: MdpInstance) -> list[Violation]:
    """Check every MdpInstance invariant; violations are data, not failures."""
    out: list[Violation] = []
    state_of = inst.state_of_pair()
    for name, values in (("P", inst.kernel), ("r", inst.reward_r), ("z", inst.reward_z)):
        finite = np.isfinite(values).all(axis=tuple(range(1, values.ndim)))
        for k in np.flatnonzero(~finite):
            s = int(state_of[k])
            label = inst.actions[s][k - int(inst.pair_offsets[s])]
            at = f"(.|{s},{label})" if name == "P" else f"({s},{label})"
            message = f"{name}{at} must be finite"
            out.append(Violation(kind="non_finite", state=s, action=label, message=message))
    for name, value in (("discount", inst.discount), ("initial", inst.initial)):
        if value is not None and not np.all(np.isfinite(value)):
            out.append(Violation(kind="non_finite", message=f"{name} must be finite"))
    for s, acts in enumerate(inst.actions):
        if len(acts) == 0:
            out.append(
                Violation(
                    kind="empty_action_set",
                    state=s,
                    message=f"state {s} has no feasible action",
                )
            )
        if len(set(acts)) != len(acts):
            out.append(
                Violation(
                    kind="duplicate_action_label",
                    state=s,
                    message=f"state {s} repeats an action label",
                )
            )
    for k in range(inst.num_pairs):
        s = int(state_of[k])
        label = inst.actions[s][k - int(inst.pair_offsets[s])]
        row = inst.kernel[k]
        neg = np.where(row < -KERNEL_TOL)[0]
        for j in neg:
            out.append(
                Violation(
                    kind="negative_transition",
                    state=s,
                    action=label,
                    next_state=int(j),
                    magnitude=float(row[j]),
                    message=f"P({int(j)}|{s},{label}) = {row[j]!r} < 0",
                )
            )
        defect = float(row.sum() - 1.0)
        if abs(defect) > KERNEL_TOL:
            out.append(
                Violation(
                    kind="kernel_row_sum",
                    state=s,
                    action=label,
                    magnitude=defect,
                    message=f"P(.|{s},{label}) sums to 1{defect:+.3e}",
                )
            )
    if inst.reward_z.ndim == 2 and inst.reward_z.shape[1] < 1:
        out.append(Violation(kind="z_dimension", message="z has dimension 0"))
    if inst.mode == DISCOUNTED:
        if inst.discount is None or not (0.0 < inst.discount < 1.0):
            out.append(
                Violation(
                    kind="discount_range",
                    magnitude=float(inst.discount or 0.0),
                    message=f"discounted mode needs discount in (0,1), got {inst.discount!r}",
                )
            )
        if inst.initial is None:
            out.append(
                Violation(kind="missing_initial", message="discounted mode needs initial")
            )
    if inst.initial is not None:
        neg = np.where(inst.initial < -KERNEL_TOL)[0]
        for j in neg:
            out.append(
                Violation(
                    kind="negative_initial",
                    next_state=int(j),
                    magnitude=float(inst.initial[j]),
                    message=f"initial({int(j)}) = {inst.initial[j]!r} < 0",
                )
            )
        defect = float(inst.initial.sum() - 1.0)
        if abs(defect) > KERNEL_TOL:
            out.append(
                Violation(
                    kind="initial_sum",
                    magnitude=defect,
                    message=f"initial sums to 1{defect:+.3e}",
                )
            )
    return out


def require_valid(inst: MdpInstance) -> None:
    violations = validate_instance(inst)
    if violations:
        lines = "; ".join(str(v) for v in violations[:5])
        raise ValueError(f"invalid instance ({len(violations)} violations): {lines}")


def enumerate_pairs(inst: MdpInstance) -> list[tuple[int, str]]:
    """Feasible (state, action label) pairs, state-major; position = dense index."""
    return [(s, a) for s, acts in enumerate(inst.actions) for a in acts]


def uniform_policy(inst: MdpInstance) -> Policy:
    return Policy(tuple(np.full(len(a), 1.0 / len(a)) for a in inst.actions))


def deterministic_policy(inst: MdpInstance, choices: Sequence[int]) -> Policy:
    rows = []
    for s, a in enumerate(choices):
        row = np.zeros(len(inst.actions[s]))
        row[a] = 1.0
        rows.append(row)
    return Policy(tuple(rows))


def policy_kernel(policy: Policy, inst: MdpInstance) -> np.ndarray:
    """State-to-state kernel induced by a policy: P_phi(j|s) = sum_a phi(a|s) P(j|s,a)."""
    P = np.zeros((inst.num_states, inst.num_states))
    for s in range(inst.num_states):
        rows = inst.kernel[inst.pair_offsets[s] : inst.pair_offsets[s + 1]]
        P[s] = policy.rows[s] @ rows
    return P


def recurrent_classes(P: np.ndarray) -> list[list[int]]:
    """Closed communicating classes of a row-stochastic matrix (edges P > 1e-15)."""
    n = P.shape[0]
    adj = [np.where(P[i] > 1e-15)[0] for i in range(n)]
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    comp = [-1] * n
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        # Iterative Tarjan; recursion depth is unbounded on chains otherwise.
        work: list[tuple[int, Iterator[int]]] = [(root, iter(adj[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                w = int(w)
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = len(sccs)
                    scc.append(w)
                    if w == v:
                        break
                sccs.append(sorted(scc))
    closed = []
    for ci, scc in enumerate(sccs):
        if all(comp[int(j)] == ci for i in scc for j in adj[i]):
            closed.append(scc)
    return sorted(closed)
