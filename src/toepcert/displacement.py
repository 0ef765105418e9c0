"""The displacement operator and Toeplitz detection through its support.

The displacement of an n x m matrix is the matrix minus its own copy
shifted one step down the main diagonal.  It vanishes outside the first
row and column exactly when the matrix is Toeplitz.
"""

from __future__ import annotations

import numpy as np

from .core import DEFAULT_TOL, Tolerance, _first_break, as_dense

__all__ = [
    "displacement_dense",
    "is_toeplitz_by_displacement",
]


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


def is_toeplitz_by_displacement(M, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Toeplitz test via displacement support.

    True exactly when the displacement vanishes (within ``tol``) outside
    the first row and column.  Interior displacement entry (i, j) is the
    diagonal difference M[i, j] - M[i-1, j-1], so this is the package's
    one diagonal-constancy scan and agrees with ``dense_is_toeplitz``.
    """
    return _first_break(as_dense(M), tol, hankel=False) is None
