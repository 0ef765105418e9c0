"""Isometry certification for compact Toeplitz and Hankel matrices.

An n x m matrix is an isometry when its conjugate transpose times itself
is the m x m identity (orthonormal columns).  For a compact Toeplitz
matrix this reduces to a rank-one self-match of the row parameters
against a comparison vector (with unimodular scalar) plus one residual
vector equation.  Neither A* A nor A itself is formed: the residual's one
matrix-vector product is a convolution of the adjoint's diagonal values,
computed by FFT in O((n + m) log(n + m)) time and O(n + m) memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, AsymHankel, AsymToeplitz, Tolerance
from .product import RankOneOutcome, _hat, rank_one_equal, sharp

__all__ = [
    "IsometryCertificate",
    "a_hat",
    "hankel_is_isometry",
    "is_isometry",
    "isometry_residual",
    "unit_column_check",
]


def a_hat(A: AsymToeplitz) -> np.ndarray:
    """Self-comparison vector in C^m built from A's column tail.

    Reads the column tail backwards, conjugated; when the matrix is wide
    (n < m) the read-out continues into the row parameters after a
    structural zero.  Equals the shifted last column of the corner-free
    adjoint.
    """
    return _hat(A.a, A.alpha, A.m)


def isometry_residual(A: AsymToeplitz) -> np.ndarray:
    """First-row defect vector of A* A - I_m.

    Zero (along with the rank-one self-match) exactly when A is an
    isometry.  The term A0* a, with A0 = A - a0 I_{n,m} the corner-free
    part, is a Toeplitz matrix-vector product, computed by FFT as a
    convolution of A0*'s diagonal values with ``a``.
    """
    n, m = A.n, A.m
    # (A0* a)[j] = sum_i h[j - i + n - 1] a[i] = (h conv a)[j + n - 1], with h
    # the diagonal values of the m x n adjoint, corner zeroed.  The linear
    # convolution has length 2n + m - 2, so an FFT length of at least
    # n + m - 1 wraps only onto indices below n - 1, which are dropped; a
    # power of two keeps the FFT fast.
    h = A.adjoint().diagonals()
    h[n - 1] = 0.0
    size = 1 << int(n + m - 2).bit_length()
    conv = np.fft.ifft(np.fft.fft(h, size) * np.fft.fft(A.a, size))
    tail_norm_sq = float(np.sum(np.abs(A.a) ** 2))
    r = (conv[n - 1:n + m - 1]
         + np.conj(A.a0) * sharp(A.a, m)
         + A.a0 * A.alpha)
    r[0] += (abs(A.a0) ** 2 - tail_norm_sq - 1.0) / 2.0
    return r


def unit_column_check(A: AsymToeplitz) -> float:
    """Squared norm of the full first column (corner plus tail).

    Every accepted isometry has value 1: a necessary condition.
    """
    return float(abs(A.a0) ** 2 + np.sum(np.abs(A.a) ** 2))


@dataclass(frozen=True)
class IsometryCertificate:
    """Outcome of the structured check A* A == I_m.

    ``wide`` records which comparison branch applied (n < m adds the
    conjugated corner to ``w`` at index n).  ``match`` is the rank-one
    self-match of the row parameters against ``w``, or ``None`` when it
    fails.  Acceptance requires the match to be degenerate or unimodular
    and the residual to vanish.  ``residual_norm`` is ``None`` when the
    match failed, since the residual can no longer change the verdict.
    """

    accepted: bool
    wide: bool
    w: np.ndarray
    match: RankOneOutcome | None
    residual_norm: float | None
    column_norm_sq: float

    @property
    def lam(self) -> complex | None:
        return None if self.match is None else self.match.lam


def is_isometry(A: AsymToeplitz, tol: Tolerance = DEFAULT_TOL) -> IsometryCertificate:
    """Certify whether A* A equals the identity, without forming A* A.

    Accepts iff the rank-one self-match of the row parameters against the
    comparison vector holds with |lam| = 1 (or degenerates to zero on both
    sides) and the residual vector vanishes, all within ``tol``; the
    residual is computed only when the match holds.  Agrees with the dense
    oracle on A* A - I_m.
    """
    n, m = A.n, A.m
    w = a_hat(A)
    if n < m:
        w[n] += np.conj(A.a0)
    match = rank_one_equal(A.alpha, A.alpha, w, w, tol)
    if match is None:
        return IsometryCertificate(False, n < m, w, None, None, unit_column_check(A))
    residual_norm = float(np.max(np.abs(isometry_residual(A))))
    accepted = ((match.is_both_zero or abs(abs(match.lam) - 1.0) <= tol.atol)
                and residual_norm <= tol.atol)
    return IsometryCertificate(accepted, n < m, w, match,
                               residual_norm, unit_column_check(A))


def hankel_is_isometry(H: AsymHankel, tol: Tolerance = DEFAULT_TOL) -> IsometryCertificate:
    """Certify whether a compact Hankel matrix has orthonormal columns.

    Row-flipping is unitary, so H is an isometry exactly when its
    row-flipped Toeplitz form is.
    """
    return is_isometry(H.row_flip_core(), tol)
