"""Shortfall algebra, benchmark curves, dominance checks and utility recovery.

The increasing concave order is checked through the kink family
(x - eta)_- = min{x - eta, 0}: X dominates Y iff E[(X-eta)_-] >= E[(Y-eta)_-]
for every eta, and for finitely supported Y it suffices to check
eta in supp Y. The increasing convex variant uses (x - eta)_+ instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .mdp import Benchmark

CHECK_TOL = 1e-10
WEIGHT_TOL = 1e-12


def shortfall_minus(x, eta):
    """(x - eta)_- = min{x - eta, 0}; scalar or elementwise on arrays."""
    return np.minimum(np.asarray(x, dtype=float) - eta, 0.0)[()]


def shortfall_plus(x, eta):
    """(x - eta)_+ = max{x - eta, 0}; scalar or elementwise on arrays."""
    return np.maximum(np.asarray(x, dtype=float) - eta, 0.0)[()]


@dataclass(frozen=True)
class ShortfallGrid:
    """Benchmark shortfall curve y(eta) = E[(Y-eta)_-] on an eta grid."""

    grid: np.ndarray
    curve: np.ndarray

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        curve = np.asarray(self.curve, dtype=float)
        if grid.size == 0:
            raise ValueError("grid must be nonempty")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if grid.shape != curve.shape:
            raise ValueError("grid and curve must have equal length")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "curve", curve)


def benchmark_curve(bench: Benchmark, grid: Sequence[float]) -> ShortfallGrid:
    """Evaluate E[(Y-eta)_-] at every grid point."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    curve = np.array(
        [float(bench.probs @ shortfall_minus(bench.support, eta)) for eta in grid]
    )
    return ShortfallGrid(grid=grid, curve=curve)


def benchmark_plus_curve(bench: Benchmark, grid: Sequence[float]) -> np.ndarray:
    """E[(Y-eta)_+] at every grid point, for the increasing convex variant."""
    grid = np.asarray(grid, dtype=float)
    return np.array(
        [float(bench.probs @ shortfall_plus(bench.support, eta)) for eta in grid]
    )


@dataclass(frozen=True)
class DominanceCheck:
    satisfied: bool
    worst_eta: float
    margin: float                 # most negative per-eta margin
    etas: np.ndarray
    margins: np.ndarray           # E[f(X-eta)] - E[f(Y-eta)] per eta


def _distribution(values, probs) -> tuple[np.ndarray, np.ndarray]:
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if values.shape != probs.shape or values.size == 0:
        raise ValueError("distribution needs matching nonempty values and probs")
    return values, probs


def _check(values, probs, bench: Benchmark, kink, tol: float) -> DominanceCheck:
    """Margins E[kink(X-eta)] - E[kink(Y-eta)] at every eta in supp Y."""
    values, probs = _distribution(values, probs)
    etas = bench.support
    margins = np.array(
        [
            float(probs @ kink(values, eta)) - float(bench.probs @ kink(bench.support, eta))
            for eta in etas
        ]
    )
    worst = int(np.argmin(margins))
    return DominanceCheck(
        satisfied=bool(np.all(margins >= -tol)),
        worst_eta=float(etas[worst]),
        margin=float(margins[worst]),
        etas=etas,
        margins=margins,
    )


def check_icv(values, probs, bench: Benchmark, tol: float = CHECK_TOL) -> DominanceCheck:
    """Does the given distribution dominate the benchmark in increasing concave order?

    Checks E[(X-eta)_-] >= E[(Y-eta)_-] - tol at every eta in supp Y, which is
    sufficient for finitely supported benchmarks.
    """
    return _check(values, probs, bench, shortfall_minus, tol)


def check_icx(values, probs, bench: Benchmark, tol: float = CHECK_TOL) -> DominanceCheck:
    """Increasing convex analog; reports E[(X-eta)_+] - E[(Y-eta)_+] per eta.

    satisfied refers to X >=_icx Y. The cost variant constrains the opposite
    direction (shortfalls at most the benchmark's) and reads the per-eta
    margins directly.
    """
    return _check(values, probs, bench, shortfall_plus, tol)


@dataclass(frozen=True)
class UtilityFunction:
    """Piecewise linear increasing concave u(x) = sum_k weights[k] * (x - breakpoints[k])_-.

    Nonnegative weights keep u nondecreasing and concave; u vanishes at and
    above the largest breakpoint.
    """

    breakpoints: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        bp = np.asarray(self.breakpoints, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if bp.shape != w.shape or bp.ndim != 1 or bp.size == 0:
            raise ValueError("breakpoints and weights must be equal-length vectors")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "weights", w)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        vals = np.minimum(x[..., None] - self.breakpoints, 0.0) @ self.weights
        return vals[()]

    def expectation(self, bench: Benchmark) -> float:
        return float(bench.probs @ self(bench.support))


def reconstruct_utility(etas: Sequence[float], weights: Sequence[float]) -> UtilityFunction:
    """Build the multiplier utility from nonnegative weights per eta.

    Weights in [-1e-12, 0) are clipped to zero; anything more negative is an
    invalid multiplier and is rejected with the offending eta.
    """
    etas = np.asarray(etas, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if etas.shape != weights.shape:
        raise ValueError("one weight per eta required")
    bad = np.where(weights < -WEIGHT_TOL)[0]
    if bad.size:
        raise ValueError(
            f"negative multiplier weight {float(weights[bad[0]])!r} at eta={float(etas[bad[0]])!r}"
        )
    return UtilityFunction(breakpoints=etas, weights=np.maximum(weights, 0.0))


@dataclass(frozen=True)
class GeneratorFamily:
    """Finite family of increasing concave test functions for vector-valued z.

    params holds the finite parameter set; evaluator(x, param) must be
    nondecreasing and concave in x for every param. benchmark_values holds
    E[g(Y; param)] in the same order.
    """

    params: tuple
    evaluator: Callable[[np.ndarray, object], float]
    benchmark_values: np.ndarray
    n_dim: int

    def __post_init__(self) -> None:
        vals = np.asarray(self.benchmark_values, dtype=float)
        if len(self.params) == 0 or vals.shape != (len(self.params),):
            raise ValueError("one benchmark value per parameter required")
        object.__setattr__(self, "benchmark_values", vals)


def weighted_kink_family(
    weight_vectors: Sequence[Sequence[float]],
    etas: Sequence[float],
    bench: Benchmark,
) -> GeneratorFamily:
    """Built-in family g(x; (w, eta)) = (<w, x> - eta)_- over all (w, eta) pairs.

    Weight vectors must be nonnegative so each member is nondecreasing and
    concave. At n = 1 with w = 1 this reduces to the scalar kink family.
    """
    ws = [np.asarray(w, dtype=float) for w in weight_vectors]
    if not ws:
        raise ValueError("at least one weight vector required")
    n = ws[0].size
    for w in ws:
        if w.shape != (n,):
            raise ValueError("weight vectors must share one dimension")
        if np.any(w < 0):
            raise ValueError("weight vectors must be nonnegative")
    etas = np.asarray(etas, dtype=float)
    support = bench.support if bench.is_vector else bench.support[:, None]
    if support.shape[1] != n:
        raise ValueError(f"benchmark dimension {support.shape[1]} != family dimension {n}")
    params = tuple((w, float(eta)) for w in ws for eta in etas)

    def evaluate(x: np.ndarray, param) -> float:
        w, eta = param
        return float(min(float(np.dot(w, x)) - eta, 0.0))

    bvals = np.array(
        [float(bench.probs @ np.minimum(support @ w - eta, 0.0)) for (w, eta) in params]
    )
    return GeneratorFamily(params=params, evaluator=evaluate, benchmark_values=bvals, n_dim=n)


def family_rows(fam: GeneratorFamily, z_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One dominance row per family parameter: matrix of g(z(s,a); xi) and rhs E[g(Y; xi)]."""
    z = np.asarray(z_values, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    if z.shape[1] != fam.n_dim:
        raise ValueError(f"z dimension {z.shape[1]} != family dimension {fam.n_dim}")
    rows = np.empty((len(fam.params), z.shape[0]))
    for i, param in enumerate(fam.params):
        rows[i] = [fam.evaluator(z[k], param) for k in range(z.shape[0])]
    return rows, fam.benchmark_values.copy()


def validate_family(
    fam: GeneratorFamily,
    rng: np.random.Generator,
    samples: int = 64,
    box: float = 10.0,
    step: float = 1e-4,
    tol: float = 1e-9,
) -> list[str]:
    """Finite-difference spot check that every member is nondecreasing and concave."""
    problems: list[str] = []
    for i, param in enumerate(fam.params):
        for _ in range(samples):
            x = rng.uniform(-box, box, size=fam.n_dim)
            axis = int(rng.integers(fam.n_dim))
            e = np.zeros(fam.n_dim)
            e[axis] = step
            f0 = fam.evaluator(x, param)
            f1 = fam.evaluator(x + e, param)
            f2 = fam.evaluator(x + 2 * e, param)
            if f1 - f0 < -tol:
                problems.append(f"param {i} decreasing along axis {axis} at {x!r}")
            if f2 - 2 * f1 + f0 > tol:
                problems.append(f"param {i} convex kink along axis {axis} at {x!r}")
    return problems
