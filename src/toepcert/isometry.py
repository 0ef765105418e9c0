"""Isometry certification for compact Toeplitz and Hankel matrices.

An n x m matrix is an isometry when its conjugate transpose times itself
is the m x m identity (orthonormal columns).  For a compact Toeplitz
matrix this reduces to a rank-one self-match of the row parameters
against a comparison vector (with unimodular scalar) plus one residual
vector equation.  A* A = I needs A* A to be Toeplitz, so the self-match
is the product identity of the pair (A*, A).  Its two comparison vectors
coincide, so half its buffer, A*'s column tail and comparison vector, is
written by the product layer's one factor writer and decided by its
rank-one match.  The conditions are tested in order of cost:
the self-match, the unit modulus of its scalar and the unit norm of the
first column (the residual's first entry) in O(n + m), then the rest of
the residual, which a wide matrix (n < m, so of rank below m) never
reaches.  Neither A* A nor A is formed.  The residual's one
matrix-vector product is a convolution of the adjoint's diagonal values,
computed by FFT in O((n + m) log(n + m)) time and O(n + m) memory.  Once
the self-match alpha = lam w holds, with w[k] = conj(a[n - k]), every
column of an n x m matrix with n >= m is a twisted cyclic shift of the
first column (Davis, *Circulant Matrices*, 1979), and the product is the
autocorrelation of the first column's tail.  That depends only on the
tail's nonzero support [lo, hi), between its first and last nonzero entry:
one complex and one real FFT of about 2 (hi - lo) points instead of three
complex ones of about n + m, taken where that is cheaper (hi - lo < 4m).
A tail with at most one nonzero entry, as every shift's, needs no FFT, so
its residual is exact; a longer support's is rounded.  FFT lengths are the
smallest 2**i * 3**j * 5**k that hold the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CDTYPE, DEFAULT_TOL, AsymHankel, AsymToeplitz, Tolerance
from .product import RankOneOutcome, _match, _write_factor

__all__ = [
    "IsometryCertificate",
    "hankel_is_isometry",
    "is_isometry",
    "isometry_residual",
]


def _fft_length(target: int) -> int:
    """The smallest 2**i * 3**j * 5**k at or above ``target`` (>= 1).

    numpy.fft handles radices 2, 3 and 5 natively, so such a length is
    fast, and it pads far less than the next power of two can.  Each
    3**j * 5**k below the power-of-two bound is lifted by the smallest
    power of two that reaches ``target``.
    """
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times ceil(target / p35) rounded up to a power of two
            length = p35 << ((target - 1) // p35).bit_length()
            if length < best:
                best = length
            p35 *= 3
        p5 *= 5
    return best


def isometry_residual(A: AsymToeplitz,
                      _column: tuple[float, np.ndarray] | None = None,
                      _self_match: tuple[complex, np.ndarray] | None = None) -> np.ndarray:
    """First-row defect vector of A* A - I_m.

    Zero (along with the rank-one self-match) exactly when A is an
    isometry.  The term A0* a, with A0 = A - a0 I_{n,m} the corner-free
    part, is a Toeplitz matrix-vector product, computed by FFT as a
    convolution of A0*'s diagonal values with ``a``.  Entry 0 is
    (c - 1) / 2 for c the squared norm of A's first column, set from that
    expression rather than read off the FFT; the corner's terms are added
    outside the FFT, so a scaled identity's residual is exact.

    :func:`is_isometry` passes c with the moduli of ``a`` from the same pass
    (``_column``), and the self-match's scalar and comparison vector (lam, w),
    with lam = 0 when both sides vanish.  Then A0* a is read off the
    autocorrelation of ``a``'s nonzero support [lo, hi) when that is cheaper
    (m <= n and hi - lo < 4m) and A lies within rounding of the matrix whose
    row parameters are exactly lam w: c**(1/2) ||alpha - lam w||, which must
    not exceed 16 eps (c + 1), bounds by Cauchy-Schwarz how far the two
    residuals differ.  A tail with at most one nonzero entry, as a shift's,
    has no FFT to round, so its residual is exact.
    """
    n, m = A.n, A.m
    column_norm_sq, modulus = _column_modulus(A) if _column is None else _column
    lo, hi = _support(modulus)
    if _self_match is not None and _autocorrelation_fits(A, column_norm_sq, hi - lo,
                                                         *_self_match):
        r = _autocorrelation_term(A.a[lo:hi], _self_match[0], n, m)
    else:
        r = _convolution_term(A)
    # conj(a0) a, cut or padded to m entries, is added before a0 alpha
    k = min(n, m)
    r[1:k] += np.conj(A.a0) * A.a[1:k]
    r += A.a0 * A.alpha
    # the FFT's entry 0 is sum |a|**2; half the column's defect replaces it
    r[0] = (column_norm_sq - 1.0) / 2.0
    return r


def _convolution_term(A: AsymToeplitz) -> np.ndarray:
    """A0* a for any A, by one FFT convolution (three complex FFTs)."""
    n, m = A.n, A.m
    # (A0* a)[j] = sum_i h[j - i + n - 1] a[i] = (h conv a)[j + n - 1], with h
    # the diagonal values of the m x n adjoint, corner zeroed:
    # conj(a[n-1]), ..., conj(a[1]), 0, alpha[1], ..., alpha[m-1].  The
    # linear convolution has length 2n + m - 2, so an FFT length of at least
    # n + m - 1 wraps only onto indices below n - 1, which are dropped; the
    # smallest 5-smooth one keeps the FFT fast without padding far beyond.
    size = _fft_length(n + m - 1)
    h = np.zeros(size, dtype=CDTYPE)
    np.conj(A.a[:0:-1], out=h[:n - 1])
    h[n:n + m - 1] = A.alpha[1:]
    conv = np.fft.ifft(np.fft.fft(h) * np.fft.fft(A.a, size))
    return conv[n - 1:n + m - 1]


_EPS = float(np.finfo(float).eps)


def _autocorrelation_fits(A: AsymToeplitz, column_norm_sq: float, width: int,
                          lam: complex, w: np.ndarray) -> bool:
    """Whether :func:`_autocorrelation_term` may stand in for A0* a.

    ``width`` = hi - lo is the length of ``a``'s nonzero support [lo, hi).
    The autocorrelation costs one complex and one real FFT of about
    2 width points against three complex ones of about n + m, and pays for
    width < 4m (measured on dense columns, where width = n - 1, so that is
    n <= 4m).  A width of at most 1, as a shift's, needs no FFT, so the
    term is exactly 0; a dense column's is rounded, and ROADMAP.md item 1
    is the band for that.  The route is exact for alpha = lam w, and A0* a
    is linear in alpha with ||a|| <= c**(1/2), so the drift bound keeps the
    two within rounding.
    """
    if not (A.m <= A.n and width < 4 * A.m):
        return False
    drift = float(np.linalg.norm(A.alpha - lam * w))
    return math.sqrt(column_norm_sq) * drift <= 16 * _EPS * (column_norm_sq + 1.0)


def _autocorrelation_term(support: np.ndarray, lam: complex, n: int, m: int) -> np.ndarray:
    """A0* a for n >= m and alpha = lam w, from the autocorrelation of ``a``.

    With R[k] = sum_i conj(a[i + k]) a[i], the entries of A0* a below the
    diagonal sum to conj(R[j]) and those above it, alpha[j - i] =
    lam conj(a[n - j + i]), to lam R[n - j].  R depends only on ``support``
    = a[lo:hi], the stretch between a's first and last nonzero entry, and
    R[k] = 0 exactly for every lag k >= hi - lo.  The lower lags are the
    real FFT of the power spectrum |fft(support)|**2 at a length of at least
    2 (hi - lo) - 1, which does not wrap them.  With hi - lo <= 1 every lag
    from 1 on is zero and no FFT runs, so a shift's term is exactly 0; a
    longer support's is rounded.  Entry 0 is left at 0.
    """
    r = np.zeros(m, dtype=CDTYPE)
    width = len(support)
    if width <= 1:
        return r
    size = _fft_length(2 * width - 1)
    spectrum = np.fft.fft(support, size)
    power = spectrum.real * spectrum.real
    power += spectrum.imag * spectrum.imag
    # lags 0 .. size // 2, of which only those below width are read; the
    # inverse transform's 1 / size is a real factor inside the FFT
    R = np.fft.rfft(power, norm="forward")
    low = min(m, width)
    np.conjugate(R[1:low], out=r[1:low])
    if lam:
        # r[j] takes lam R[n - j], which is zero unless n - j < width
        j = max(1, n - width + 1)
        r[j:] += lam * R[n - j:n - m:-1]
    return r


def _column_modulus(A: AsymToeplitz) -> tuple[float, np.ndarray]:
    """|a0|**2 + sum |a|**2, the squared norm of A's first column, and the
    moduli |a| it is summed from, which locate ``a``'s nonzero support."""
    modulus = np.abs(A.a)
    return abs(A.a0) ** 2 + float(np.sum(modulus ** 2)), modulus


def _support(modulus: np.ndarray) -> tuple[int, int]:
    """[lo, hi), the stretch from the first to the last nonzero modulus.

    ``a[0]`` is a structural zero, so a tail whose entries 1 and n - 1 are
    nonzero, as every dense one, spans [1, n) without a scan.  An all-zero
    tail gives (0, 0).
    """
    n = len(modulus)
    if n > 1 and modulus[1] and modulus[-1]:
        return 1, n
    nonzero = modulus != 0
    lo = int(nonzero.argmax())
    if not nonzero[lo]:
        return 0, 0
    return lo, n - int(nonzero[::-1].argmax())


@dataclass(frozen=True)
class IsometryCertificate:
    """Outcome of the structured check A* A == I_m.

    ``w`` is the comparison vector of the pair (A*, A), with the conjugated
    corner at index n when the matrix is ``wide`` (n < m).  ``match`` is
    the rank-one self-match of the row parameters against ``w``, or ``None``
    when it fails.  ``column_norm_sq`` is the squared norm of the first
    column.  Acceptance requires the match to be degenerate or unimodular
    and the residual to vanish.  ``residual_norm`` is ``None`` when the
    verdict was decided without it: when the match failed, when its scalar's
    modulus is off 1 by more than ``tol.atol``, when
    |column_norm_sq - 1| / 2, the residual's entry 0, exceeds ``tol.atol``,
    or when the matrix is wide, since A* A then has rank at most n < m.
    For a Hankel matrix H = C P_m it describes the stored core C, since
    H* H = P_m C* C P_m.
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
    comparison vector ``w`` holds with |lam| = 1 (or degenerates to zero on
    both sides) and the residual vector vanishes, all within ``tol``.  The
    tests run in order of cost, each only when the ones before it pass: the
    self-match, then |abs(lam) - 1| and the residual's entry 0,
    |column_norm_sq - 1| / 2, then the FFT for the rest of the residual,
    which reads the matched scalar and the first column's nonzero support
    [lo, hi) to take the shorter route where it can: the autocorrelation of
    that support when hi - lo < 4m.  A wide matrix (n < m) is rejected
    before the FFT: A* A has rank at most n < m, so it is never the identity.
    Agrees with the dense oracle on A* A - I_m.  A first column with at most
    one nonzero entry below the corner, as every shift's, runs no FFT, so an
    exact shift c S with |c|**2 = 1 in floating point (c = +-1, +-i) gets
    a residual of exactly 0 and is accepted under ``Tolerance(0, 0)``.  A
    longer support's residual is an FFT result and carries rounding, so
    under ``Tolerance(0, 0)`` most dense exact isometries are rejected; give
    it an ``atol`` above the rounding (the default 1e-9 is), until
    ROADMAP.md item 1 settles a tolerance band.
    """
    # the product identity of the pair (A*, A), matched on the half
    # (alpha, w) of its buffer (alpha, w, w, alpha): A*'s column tail and
    # comparison vector, from the writer of every product buffer
    n, m = A.n, A.m
    cat = np.empty(2 * m, dtype=CDTYPE)
    _write_factor(m, n, A.a0.conjugate(), A.alpha, A.a, cat[:m], cat[m:])
    match = _match(cat, m, m, tol)
    w = cat[m:].copy()
    wide = n < m
    # the moduli of the column's tail locate its support if the residual runs
    column_norm_sq, modulus = _column_modulus(A)
    if match is None:
        return IsometryCertificate(False, wide, w, None, None, column_norm_sq)
    # a scalar off the unit circle rejects whatever the residual, whose norm
    # is at least its entry 0, |column_norm_sq - 1| / 2; a wide matrix has
    # rank at most n < m, so its A* A is never the identity
    if ((match.is_proportional and abs(abs(match.lam) - 1.0) > tol.atol)
            or abs(column_norm_sq - 1.0) / 2.0 > tol.atol or wide):
        return IsometryCertificate(False, wide, w, match, None, column_norm_sq)
    lam = match.lam if match.is_proportional else 0.0
    residual = isometry_residual(A, (column_norm_sq, modulus), (lam, w))
    residual_norm = float(np.max(np.abs(residual)))
    return IsometryCertificate(residual_norm <= tol.atol, wide, w, match,
                               residual_norm, column_norm_sq)


def hankel_is_isometry(H: AsymHankel, tol: Tolerance = DEFAULT_TOL) -> IsometryCertificate:
    """Certify whether a compact Hankel matrix has orthonormal columns.

    H = C P_m for its stored core C, so H* H = P_m C* C P_m, which is the
    identity exactly when C* C is; the certificate describes C.
    """
    return is_isometry(H.core, tol)
