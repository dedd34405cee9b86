"""A fixed reference loop that gauges how fast the host runs at the moment.

On a shared host the speed of the same code drifts by up to 1.8x within
seconds as neighbours come and go, so raw times of identical inputs spread
by up to a third between runs, and the median of a run follows the mix of fast
and slow seconds it happened to get.

The worker runs this loop right before and right after every timed
operation, and an operation's time counts divided by the mean of the two
loop times, times ``REF_SECONDS``: its time on a host where the loop takes
``REF_SECONDS``. The loop has a compute part (plain Python, small-array
NumPy, a LAPACK solve) and a memory part (matrix-vector products and
strided writes over ~24 MB) of about equal length, because contention slows
the program's operations through both, the portfolio LP solves more
through memory than through compute. It never calls ``domdp``, so no change to the program can
move it. The correction is partial: an operation that contention slows more
or less than this loop keeps part of the drift.

Set-up time is not normalised: it is mostly interpreter start-up, imports
and file writes, whose time does not follow this loop's.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# About what the loop takes on the machine the bounds were set on (an Intel
# Xeon vCPU, one BLAS thread); any fixed value would do.
REF_SECONDS = 0.020


class ReferenceLoop:
    """The loop and its fixed inputs, made from a fixed seed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.random((160, 160)) + 160.0 * np.eye(160)
        self._b = rng.random(160)
        self._cum = rng.random((8, 40)).cumsum(axis=1)
        self._u = rng.random((540, 20)) * self._cum[0, -1]
        self._start = rng.integers(0, 8, size=20)
        # The memory part works on ~24 MB, more than the caches a vCPU gets.
        self._m = rng.random((700, 2000))
        self._v = rng.random(2000)
        self._inv = rng.random((700, 700))
        self._cols = np.zeros((20, 60_000), dtype=np.int64)
        arrays = (self._a, self._b, self._cum, self._u, self._start,
                  self._m, self._v, self._inv, self._cols)
        # The worker reports its peak resident set less these bytes.
        self.footprint_bytes = sum(a.nbytes for a in arrays)

    def _compute(self) -> None:
        counts: dict[int, int] = {}
        for i in range(27_000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        state = self._start
        for u in self._u:
            state = (self._cum[state] < u[:, None]).sum(axis=1) % 8
        for _ in range(11):
            np.linalg.solve(self._a, self._b)

    def _memory(self) -> None:
        # In place only: a temporary could set the worker's peak resident set.
        for _ in range(4):
            self._m @ self._v
            np.add(self._inv, 1e-12, out=self._inv)
        for t in range(0, self._cols.shape[1], 20):
            self._cols[:, t] = self._start

    def parts(self) -> tuple[float, float]:
        """Seconds the compute part and the memory part of the loop take now."""
        start = perf_counter()
        self._compute()
        mid = perf_counter()
        self._memory()
        return mid - start, perf_counter() - mid


def normalised(seconds: float, ref_before, ref_after) -> float:
    """``seconds`` scaled to a host on which the loop takes ``REF_SECONDS``.

    ``ref_before`` and ``ref_after`` are ``ReferenceLoop.parts()`` taken right
    before and right after the timed work.
    """
    return seconds * REF_SECONDS / (0.5 * (sum(ref_before) + sum(ref_after)))
