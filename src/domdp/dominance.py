"""Shortfall algebra, benchmark curves, dominance checks and utility recovery.

The increasing concave order is checked through the kink family
(x - eta)_- = min{x - eta, 0}: X dominates Y iff E[(X-eta)_-] >= E[(Y-eta)_-]
for every eta, and for finitely supported Y it suffices to check
eta in supp Y. The increasing convex variant uses (x - eta)_+ instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


def _expected_kink(values, probs, kink, grid) -> np.ndarray:
    """sum_k probs[k] kink(values[k] - eta) per eta; probs may be an occupation measure."""
    return np.array([float(probs @ kink(values, eta)) for eta in grid])


def benchmark_curve(bench: Benchmark, grid: Sequence[float]) -> np.ndarray:
    """E[(Y-eta)_-] at every point of a nonempty, strictly increasing eta grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    return _expected_kink(bench.support, bench.probs, shortfall_minus, grid)


def benchmark_plus_curve(bench: Benchmark, grid: Sequence[float]) -> np.ndarray:
    """E[(Y-eta)_+] at every grid point, for the increasing convex variant."""
    return _expected_kink(bench.support, bench.probs, shortfall_plus, grid)


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


def _check(values, probs, bench: Benchmark, kink) -> DominanceCheck:
    """Margins E[kink(X-eta)] - E[kink(Y-eta)] at every eta in supp Y."""
    if bench.is_vector:
        raise ValueError("vector benchmark requires a generator family")
    values, probs = _distribution(values, probs)
    etas = bench.support
    bench_side = _expected_kink(bench.support, bench.probs, kink, etas)
    margins = _expected_kink(values, probs, kink, etas) - bench_side
    worst = int(np.argmin(margins))
    return DominanceCheck(
        satisfied=bool(np.all(margins >= -CHECK_TOL)),
        worst_eta=float(etas[worst]),
        margin=float(margins[worst]),
        etas=etas,
        margins=margins,
    )


def check_icv(values, probs, bench: Benchmark) -> DominanceCheck:
    """Does the given distribution dominate the benchmark in increasing concave order?

    Checks E[(X-eta)_-] >= E[(Y-eta)_-] - CHECK_TOL at every eta in supp Y, which is
    sufficient for finitely supported benchmarks.
    """
    return _check(values, probs, bench, shortfall_minus)


def check_icx(values, probs, bench: Benchmark) -> DominanceCheck:
    """Increasing convex analog; reports E[(X-eta)_+] - E[(Y-eta)_+] per eta.

    satisfied refers to X >=_icx Y. The cost variant constrains the opposite
    direction (shortfalls at most the benchmark's) and reads the per-eta
    margins directly.
    """
    return _check(values, probs, bench, shortfall_plus)


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
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(w))):
            raise ValueError("breakpoints and weights must be finite")
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
    """The weighted-kink family g(x; w, eta) = (<w, x> - eta)_- for vector-valued z.

    Its members are every pair of a row w of weights (m x n, nonnegative, so
    each member is nondecreasing and concave: positive-linear multivariate
    dominance, Dentcheva & Ruszczynski, Math. Program. 117, 2009) and an eta
    in etas (p,), weight vector first: member i * p + j is (weights[i],
    etas[j]). benchmark_values holds E[g(Y; w, eta)] in member order.
    """

    weights: np.ndarray
    etas: np.ndarray
    benchmark_values: np.ndarray


def weighted_kink_family(
    weight_vectors: Sequence[Sequence[float]],
    etas: Sequence[float],
    bench: Benchmark,
) -> GeneratorFamily:
    """The family of every (w, eta) pair, for nonnegative weight vectors w.

    At n = 1 with w = 1 this reduces to the scalar kink family.
    """
    ws = [np.asarray(w, dtype=float) for w in weight_vectors]
    if not ws:
        raise ValueError("at least one weight vector required")
    n = ws[0].size
    for w in ws:
        if w.shape != (n,):
            raise ValueError("weight vectors must share one dimension")
        if not np.all(np.isfinite(w)):
            raise ValueError("weight vectors must be finite")
        if np.any(w < 0):
            raise ValueError("weight vectors must be nonnegative")
    etas = np.asarray(etas, dtype=float)
    if not np.all(np.isfinite(etas)):
        raise ValueError("family etas must be finite")
    support = bench.support if bench.is_vector else bench.support[:, None]
    if support.shape[1] != n:
        raise ValueError(f"benchmark dimension {support.shape[1]} != family dimension {n}")
    bvals = [float(bench.probs @ np.minimum(support @ w - eta, 0.0)) for w in ws for eta in etas]
    if etas.ndim != 1 or not bvals:
        raise ValueError("one benchmark value per parameter required")
    return GeneratorFamily(weights=np.array(ws), etas=etas, benchmark_values=np.array(bvals))


def family_rows(fam: GeneratorFamily, z_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One dominance row per member, in member order: min(<w, z(s,a)> - eta, 0), and its rhs.

    The rhs is benchmark_values, E[g(Y; w, eta)] per member.
    """
    z = np.asarray(z_values, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    n = fam.weights.shape[1]
    if z.shape[1] != n:
        raise ValueError(f"z dimension {z.shape[1]} != family dimension {n}")
    rows = np.minimum((fam.weights @ z.T)[:, None, :] - fam.etas[:, None], 0.0)
    return rows.reshape(-1, z.shape[0]), fam.benchmark_values.copy()
