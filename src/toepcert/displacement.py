"""The displacement operator and Toeplitz detection through its support.

The displacement of an n x m matrix is the matrix minus its own copy
shifted one step down the main diagonal.  It vanishes outside the first
row and column exactly when the matrix is Toeplitz.  The package detects
Toeplitz matrices with ``dense_is_toeplitz`` alone;
:func:`is_toeplitz_by_displacement` is that scan at the default tolerance,
kept only for the benchmark's tracer (``bench/spans.py``), which resolves it.
"""

from __future__ import annotations

import numpy as np

from .core import as_dense, dense_is_toeplitz

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


def is_toeplitz_by_displacement(M) -> bool:
    """Whether the displacement vanishes outside the first row and column,
    within the default tolerance: its interior entries are the diagonal
    differences M[i, j] - M[i-1, j-1], so this is ``dense_is_toeplitz(M)``."""
    return dense_is_toeplitz(M)
