"""The displacement operator and Toeplitz detection through its support.

The displacement of an n x m matrix is the matrix minus its own copy
shifted one step down the main diagonal.  It vanishes outside the first
row and column exactly when the matrix is Toeplitz, and the original
matrix can be rebuilt from it by accumulating diagonal shifts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CDTYPE,
    DEFAULT_TOL,
    AsymToeplitz,
    Tolerance,
    _first_break,
    as_dense,
    tensor,
    unit_vector,
)

__all__ = [
    "DisplacementPair",
    "displacement_dense",
    "displacement_structured",
    "is_toeplitz_by_displacement",
    "reconstruct",
]


@dataclass(frozen=True)
class DisplacementPair:
    """Displacement of a compact Toeplitz matrix as u (x) e0 + e0 (x) v.

    The corner contribution is carried entirely by ``u`` (``v[0] = 0``),
    which makes the split unique.
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if len(self.v) and self.v[0] != 0:
            raise ValueError("the corner belongs to u: v[0] must be 0")

    def assemble(self) -> np.ndarray:
        """Realize the displacement densely."""
        return (tensor(self.u, unit_vector(0, len(self.v)))
                + tensor(unit_vector(0, len(self.u)), self.v))


def displacement_dense(M) -> np.ndarray:
    """M minus its copy shifted one step down-and-right.

    The first row and column pass through unchanged; interior entry (i, j)
    becomes M[i, j] - M[i-1, j-1].  Computed by index remapping, never by
    materializing shift matrices.
    """
    M = as_dense(M)
    out = M.copy()
    out[1:, 1:] -= M[:-1, :-1]
    return out


def displacement_structured(A: AsymToeplitz) -> DisplacementPair:
    """Displacement of a compact Toeplitz matrix, read off its parameters."""
    u = A.a.copy()
    u[0] = A.a0
    u.setflags(write=False)
    return DisplacementPair(u, A.alpha)


def reconstruct(D) -> np.ndarray:
    """Accumulate diagonal shifts of D: the inverse of ``displacement_dense``.

    Sums D shifted down-and-right by 0, 1, ..., min(n, m) - 1 steps
    (entries shifted past the edge are dropped).  For every matrix M,
    ``reconstruct(displacement_dense(M))`` returns M.
    """
    D = as_dense(D)
    n, m = D.shape
    out = np.zeros((n, m), dtype=CDTYPE)
    for i in range(min(n, m)):
        out[i:, i:] += D[:n - i, :m - i]
    return out


def is_toeplitz_by_displacement(M, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Toeplitz test via displacement support.

    True exactly when the displacement vanishes (within ``tol``) outside
    the first row and column.  Interior displacement entry (i, j) is the
    diagonal difference M[i, j] - M[i-1, j-1], so this is the package's
    one diagonal-constancy scan and agrees with ``dense_is_toeplitz``.
    """
    return _first_break(as_dense(M), tol, hankel=False) is None
