"""Sparse matrices as compressed rows: the one compressed layout of the package.

``Rows`` holds a (num_rows, width) matrix as the triplet (ptr, to, p): row
k's nonzeros sit at positions ptr[k] ... ptr[k + 1] - 1, with their column
indices in ``to`` (int32, strictly increasing within the row) and their
values in ``p``. A row without a nonzero keeps one explicit zero at column
0, so every row owns a segment of ``np.add.reduceat``.

Three holders share it:
- an instance's kernel, one row per pair, when fewer than SPARSE_DENSITY of
  its entries are nonzero (``domdp.mdp``), as parsed from sparse kernel rows
  (``domdp.io``) or built by ``domdp.portfolio``;
- an LP's constraint matrix, whose columns are the rows of its transpose
  (``domdp.lp``), as ``domdp.average`` builds the occupation LP of such an
  instance;
- a sparse instance's policy kernel, one row per state.

The operations are the products M @ v (one ``np.add.reduceat`` over the
rows, adding each row's terms in column order) and x @ M (one
``np.bincount`` over the column indices), a reduction per row of one value
per entry, the rows of given indices, one row's columns and values, and the
entries as (row, column, value) triplets. ``__array_ufunc__ = None``
sends ``ndarray @ Rows`` to ``Rows.__rmatmul__``, so code written for a
dense matrix M reads a ``Rows`` unchanged where it only takes these
products and row subsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A matrix with fewer than this share of nonzeros is held as compressed rows:
# on one core the compressed product takes 0.4-0.7 of the dense product's
# time at 4-6 % nonzero and breaks even at 12-14 % (see ``domdp.lp``).
SPARSE_DENSITY = 0.12


def is_sparse(nonzeros: int, size: int) -> bool:
    """Whether a matrix with this many nonzeros among size entries is held compressed."""
    return nonzeros < SPARSE_DENSITY * size


@dataclass(frozen=True)
class Rows:
    """A matrix as compressed rows; see the module docstring."""

    ptr: np.ndarray   # row k is ptr[k] ... ptr[k + 1] - 1; one entry per row plus the end
    to: np.ndarray    # int32 column indices, strictly increasing within a row
    p: np.ndarray     # the values
    width: int        # the number of columns

    __array_ufunc__ = None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ptr.size - 1, self.width)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """M @ v."""
        return self.reduce(np.add, self.p * v.take(self.to))

    def __rmatmul__(self, x: np.ndarray) -> np.ndarray:
        """x @ M."""
        weights = np.repeat(x, np.diff(self.ptr)) * self.p
        return np.bincount(self.to, weights=weights, minlength=self.width)

    def reduce(self, ufunc: np.ufunc, values: np.ndarray) -> np.ndarray:
        """ufunc over each row's entries of values, which holds one value per entry."""
        return ufunc.reduceat(values, self.ptr[:-1])

    def row(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Row k's column indices and values (views)."""
        lo, hi = self.ptr[k], self.ptr[k + 1]
        return self.to[lo:hi], self.p[lo:hi]

    def __getitem__(self, idx: np.ndarray) -> Rows:
        """The rows idx (an integer array, repeats allowed), in that order."""
        counts = np.diff(self.ptr)[idx]
        ptr = np.concatenate(([0], np.cumsum(counts)))
        at = np.arange(ptr[-1]) + np.repeat(self.ptr[idx] - ptr[:-1], counts)
        return Rows(ptr, self.to[at], self.p[at], self.width)

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, column, value) of every stored entry, row by row."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.ptr)), self.to, self.p

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        row, to, p = self.entries()
        out[row, to] = p
        return out


def from_entries(row, to, p, num_rows: int, width: int) -> Rows:
    """Rows from entries ordered by row, and within a row by column.

    Zero values are dropped, and a row left without an entry gets the
    explicit zero at column 0.
    """
    keep = p != 0.0
    if not keep.all():
        row, to, p = row[keep], to[keep], p[keep]
    counts = np.bincount(row, minlength=num_rows)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        at = np.searchsorted(row, empty)
        to, p = np.insert(to, at, 0), np.insert(p, at, 0.0)
        counts[empty] = 1
    ptr = np.concatenate(([0], np.cumsum(counts)))
    return Rows(ptr, np.asarray(to, dtype=np.int32), np.asarray(p, dtype=float), width)


def from_dense(M: np.ndarray) -> Rows:
    """The rows of a dense matrix, keeping its nonzeros."""
    nz = M != 0.0
    nz[~nz.any(axis=1), 0] = True
    row, to = np.nonzero(nz)
    ptr = np.searchsorted(row, np.arange(M.shape[0] + 1))
    return Rows(ptr, to.astype(np.int32), M[row, to], M.shape[1])
