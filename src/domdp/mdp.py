"""Finite MDP data model shared by all solvers.

States are dense integers 0..num_states-1. Actions are opaque string labels
per state; all numeric work uses dense pair indices in state-major order
(state 0's actions first, in the order listed, then state 1's, ...).

Kernel. An instance holds its kernel as compressed pair rows
(``sparse.Rows``, one row per pair) when fewer than ``sparse.SPARSE_DENSITY``
of its entries are nonzero, and as a dense (pairs, states) array otherwise,
whichever form it was given in: one nonzero count decides. ``MdpInstance.P``
is the kernel as held, and the solvers read it through the products P @ v
and x @ P and the row subsets P[pairs], which both forms take. A dense
kernel thus keeps its BLAS products; a sparse one is never held dense on
the way through ``solve``. ``MdpInstance.kernel`` is always the dense
array, built from the rows on its first read for a sparse kernel, for
readers outside the solve path (the oracle, the ALP, tests).
``validate_instance`` reads a sparse kernel's nonzeros only, and
``policy_kernel`` gives a sparse instance's policy kernel as compressed
rows too, from the rows of the pairs the policy uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import sparse
from .sparse import Rows

KERNEL_TOL = 1e-12
EDGE_TOL = 1e-15  # a transition counts as an edge of the chain above this
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


def _freeze(a: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Read-only contiguous float array; with tol, entries in [-tol, 0) become 0.

    Entries below -tol are kept for validation to report.
    """
    a = np.ascontiguousarray(a, dtype=float)
    if tol is not None and a.size and a.min() < 0.0:
        a = np.where((a < 0.0) & (a >= -tol), 0.0, a)
    a.flags.writeable = False
    return a


def _freeze_rows(rows: Rows) -> Rows:
    """``_freeze`` with KERNEL_TOL on a kernel's compressed rows; the zeros it makes are dropped."""
    row, to, p = rows.entries()
    p = _freeze(p, KERNEL_TOL)
    frozen = sparse.from_entries(row, to, p, rows.shape[0], rows.width)
    for a in (frozen.ptr, frozen.to, frozen.p):
        a.flags.writeable = False
    return frozen


@dataclass(frozen=True)
class MdpInstance:
    """Finite MDP with a primary reward r and a secondary reward z.

    kernel, reward_r and reward_z are indexed by dense pair index; kernel row
    k is P(. | s,a) for the k-th feasible pair. reward_z is (K,) for scalar z
    or (K, n) for vector z. kernel is given as a dense array or as
    ``sparse.Rows``; see the module docstring for how it is held.
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
    kernel_rows: Rows | None = field(init=False, repr=False, compare=False)

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
        given_rows = isinstance(self.kernel, Rows)
        kernel = _freeze_rows(self.kernel) if given_rows else _freeze(self.kernel, KERNEL_TOL)
        object.__setattr__(self, "reward_r", _freeze(self.reward_r))
        object.__setattr__(self, "reward_z", _freeze(self.reward_z))
        if kernel.shape != (num_pairs, self.num_states):
            raise ValueError(f"kernel shape {kernel.shape} != ({num_pairs}, {self.num_states})")
        # One nonzero count decides the form, whichever form was given.
        nonzeros = np.count_nonzero(kernel.p if given_rows else kernel)
        rows = None
        if sparse.is_sparse(nonzeros, num_pairs * self.num_states):
            rows = kernel if given_rows else _freeze_rows(sparse.from_dense(kernel))
        elif given_rows:
            kernel = _freeze(kernel.dense())
        object.__setattr__(self, "kernel_rows", rows)
        if given_rows and rows is not None:
            object.__delattr__(self, "kernel")  # the dense copy is built when read
        else:
            object.__setattr__(self, "kernel", kernel)
        if self.reward_r.shape != (num_pairs,):
            raise ValueError("reward_r must have one entry per feasible pair")
        if self.reward_z.ndim not in (1, 2) or self.reward_z.shape[0] != num_pairs:
            raise ValueError("reward_z must have one (scalar or vector) entry per pair")
        if self.initial is not None:
            object.__setattr__(self, "initial", _freeze(self.initial))
            if self.initial.shape != (self.num_states,):
                raise ValueError("initial must be a distribution over states")

    def __getattr__(self, name: str):
        # Reached only for the dense kernel of an instance given sparse rows.
        rows = self.__dict__.get("kernel_rows")
        if name != "kernel" or rows is None:
            raise AttributeError(name)
        kernel = _freeze(rows.dense())
        object.__setattr__(self, "kernel", kernel)
        return kernel

    @property
    def P(self) -> np.ndarray | Rows:
        """The kernel as held: compressed rows when sparse, else the dense array."""
        return self.kernel if self.kernel_rows is None else self.kernel_rows

    @property
    def num_pairs(self) -> int:
        return int(self.pair_offsets[-1])

    @property
    def delta(self) -> float:
        """Discount on the balance rows' inflow: 1.0 in average mode."""
        return 1.0 if self.mode == AVERAGE else float(self.discount)

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
            # return_index makes the sort stable, so a point keeps its first
            # spelling (0.0 or -0.0) and its probabilities add in input order.
            support, _, inverse = np.unique(support, return_index=True, return_inverse=True)
            probs = np.bincount(inverse, weights=probs)
        elif support.ndim == 2:
            # Vector-valued benchmark for generator families; no merge/order.
            if support.shape[0] != probs.shape[0] or support.size == 0:
                raise ValueError("support and probs must be equal-length and nonempty")
        else:
            raise ValueError("support must be 1-d (scalar) or 2-d (vector)")
        if np.any(probs < -BENCH_TOL):
            raise ValueError("benchmark probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > BENCH_TOL:
            raise ValueError(f"benchmark probabilities sum to {float(probs.sum())!r}, not 1")
        object.__setattr__(self, "support", _freeze(support))
        object.__setattr__(self, "probs", _freeze(np.maximum(probs, 0.0)))

    @property
    def is_vector(self) -> bool:
        return self.support.ndim == 2


def split_rows(values, offsets: np.ndarray) -> list:
    """values[offsets[s]:offsets[s + 1]] for every s (views, when values is an array)."""
    bounds = offsets.tolist()
    return [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _check_policy_row(s: int, row: np.ndarray) -> None:
    if row.ndim != 1 or row.size == 0:
        raise ValueError(f"policy row for state {s} must be a nonempty vector")
    if not np.all(np.isfinite(row)):
        raise ValueError(f"policy row for state {s} must be finite")
    if np.any(row < -POLICY_TOL):
        raise ValueError(f"policy row for state {s} has negative entries")
    if abs(row.sum() - 1.0) > POLICY_TOL:
        raise ValueError(f"policy row for state {s} sums to {float(row.sum())!r}")


@dataclass(frozen=True)
class Policy:
    """Stationary randomized policy: one probability vector over A(s) per state.

    The rows are read-only views of one frozen array, ``probs``, which holds
    them in state order: row s is probs[offsets[s]:offsets[s + 1]]. When the
    row lengths are the action counts, probs is in dense pair order and
    offsets is the instance's pair_offsets. Entries in [-POLICY_TOL, 0) are
    stored as 0.
    """

    rows: tuple[np.ndarray, ...]
    probs: np.ndarray = field(init=False, repr=False, compare=False)
    offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows = [np.asarray(r, dtype=float) for r in self.rows]
        sizes = [r.size if r.ndim == 1 else 0 for r in rows]
        offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))
        whole = 0 not in sizes  # every row a nonempty vector
        probs = _freeze(np.concatenate(rows) if whole and rows else np.zeros(0), POLICY_TOL)
        if not (
            whole
            and np.isfinite(probs).all()
            and not (probs < -POLICY_TOL).any()
            and not (np.abs(np.add.reduceat(probs, offsets[:-1]) - 1.0) > POLICY_TOL).any()
        ):
            # Name the first faulty state. reduceat adds in another order
            # than ndarray.sum, so a sum within a few ulps of the tolerance
            # is settled here, by the row's own sum.
            for s, row in enumerate(rows):
                _check_policy_row(s, _freeze(row.copy(), POLICY_TOL))
        offsets.flags.writeable = False
        object.__setattr__(self, "rows", tuple(split_rows(probs, offsets)))
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "offsets", offsets)

    def action_index(self, state: int) -> int:
        """Most likely action, for deterministic policies."""
        return int(np.argmax(self.rows[state]))


def validate_instance(inst: MdpInstance) -> list[Violation]:
    """Check every MdpInstance invariant; violations are data, not failures.

    A sparse kernel is checked over its nonzeros; the violations and their
    order are those of the same kernel held dense.
    """
    out: list[Violation] = []
    state_of = inst.state_of_pair()
    P = inst.P
    if isinstance(P, Rows):
        kernel_finite = P.reduce(np.logical_and, np.isfinite(P.p))
        sums = P.reduce(np.add, P.p)
        negative = P.reduce(np.logical_or, P.p < -KERNEL_TOL)
    else:
        kernel_finite = np.isfinite(P).all(axis=1)
        sums = P.sum(axis=1)
        negative = (P < -KERNEL_TOL).any(axis=1)
    z_finite = np.isfinite(inst.reward_z).all(axis=tuple(range(1, inst.reward_z.ndim)))
    for name, finite in (("P", kernel_finite), ("r", np.isfinite(inst.reward_r)), ("z", z_finite)):
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
    defects = sums - 1.0
    suspect = negative | (np.abs(defects) > KERNEL_TOL)
    for k in np.flatnonzero(suspect):
        s = int(state_of[k])
        label = inst.actions[s][k - int(inst.pair_offsets[s])]
        to, row = P.row(k) if isinstance(P, Rows) else (np.arange(inst.num_states), P[k])
        for i in np.flatnonzero(row < -KERNEL_TOL):
            j, value = int(to[i]), float(row[i])
            out.append(
                Violation(
                    kind="negative_transition",
                    state=s,
                    action=label,
                    next_state=j,
                    magnitude=value,
                    message=f"P({j}|{s},{label}) = {value!r} < 0",
                )
            )
        defect = float(defects[k])
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
                    message=f"initial({int(j)}) = {float(inst.initial[j])!r} < 0",
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


def deterministic_policy(inst: MdpInstance, choices: Sequence[int]) -> Policy:
    """The policy that takes action index choices[s] at every state s."""
    choices = np.asarray(choices, dtype=np.intp)
    sizes = np.diff(inst.pair_offsets)
    if choices.shape != sizes.shape or np.any((choices < 0) | (choices >= sizes)):
        raise ValueError("choices must give one action index in [0, |A(s)|) per state")
    probs = np.zeros(inst.num_pairs)
    probs[inst.pair_offsets[:-1] + choices] = 1.0
    return Policy(tuple(split_rows(probs, inst.pair_offsets)))


def policy_kernel(policy: Policy, inst: MdpInstance) -> np.ndarray | Rows:
    """State-to-state kernel induced by a policy: P_phi(j|s) = sum_a phi(a|s) P(j|s,a).

    Held as inst's kernel is. Dense: a row that puts probability exactly 1
    on one action copies that pair's kernel row (1 p + 0 q = p, the bits of
    the product), and other rows take the product row @ block, one state at
    a time. Sparse: compressed rows summed from the rows of the pairs the
    policy uses; a pure row's entries are its pair's.
    """
    offsets = inst.pair_offsets
    if not np.array_equal(policy.offsets, offsets):
        raise ValueError("policy rows must have one entry per action of each state")
    if inst.kernel_rows is not None:
        S = inst.num_states
        used = np.flatnonzero(policy.probs != 0.0)
        pair, to, p = inst.kernel_rows[used].entries()
        keys, at = np.unique(inst.state_of_pair()[used][pair] * S + to, return_inverse=True)
        weights = np.bincount(at, weights=policy.probs[used][pair] * p)
        return sparse.from_entries(keys // S, keys % S, weights, S, S)
    probs, starts = policy.probs, offsets[:-1]
    ones = probs == 1.0
    pure = (np.add.reduceat(ones, starts) == 1) & (np.add.reduceat(probs != 0.0, starts) == 1)
    P = np.zeros((inst.num_states, inst.num_states))
    picked = inst.kernel[np.flatnonzero(ones & np.repeat(pure, np.diff(offsets)))]
    picked += 0.0  # -0.0 becomes 0.0, as in the product's sum
    P[pure] = picked
    for s in np.flatnonzero(~pure).tolist():
        P[s] = policy.rows[s] @ inst.kernel[offsets[s] : offsets[s + 1]]
    return P


def recurrent_classes(P: np.ndarray | Rows) -> list[list[int]]:
    """Closed communicating classes of a row-stochastic matrix (edges P > EDGE_TOL),
    dense or compressed rows."""
    n = P.shape[0]
    if isinstance(P, Rows):
        tails, heads, p = P.entries()
        edge = p > EDGE_TOL
        tails, heads = tails[edge], heads[edge]
    else:
        tails, heads = np.nonzero(P > EDGE_TOL)
    adj = split_rows(heads.tolist(), np.searchsorted(tails, np.arange(n + 1)))
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
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
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
    # A class is closed when no edge leaves it.
    comp = np.array(comp)
    leaving = set(comp[tails[comp[tails] != comp[heads]]].tolist())
    return sorted(scc for ci, scc in enumerate(sccs) if ci not in leaving)


def is_unichain(P: np.ndarray | Rows) -> bool:
    """Whether P (dense or compressed rows) has exactly one closed class.

    A state entered from every state lies in every closed class, which
    settles dense kernels without the class search.
    """
    if not isinstance(P, Rows) and (P > EDGE_TOL).all(axis=0).any():
        return True
    return len(recurrent_classes(P)) == 1
