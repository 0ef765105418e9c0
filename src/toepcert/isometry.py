"""Isometry certification for compact Toeplitz and Hankel matrices.

An n x m matrix is an isometry when its conjugate transpose times itself
is the m x m identity (orthonormal columns).  A compact Hankel matrix
H = C P_m is decided on its stored core C, since H* H = P_m C* C P_m is
the identity exactly when C* C is.  For a compact Toeplitz matrix A,
A* A = I needs A* A to be Toeplitz, so the product identity of the pair
(A*, A) must hold: a rank-one self-match alpha = lam w of the row
parameters against one comparison vector w, w[k] = conj(a[n - k]), written
and matched by the product layer.  What is left is the residual, the first
row of A* A - I_m.  Neither A* A nor A is formed.

The conditions are tested in order of cost, each only when the ones before
it pass; a failure of one of the first four rejects with no residual
computed:

1. n >= m, in O(1): a wide matrix (n < m) has A* A of rank at most n < m,
   so it is never the identity;
2. the residual's entry 0, (c - 1) / 2, within ``tol.tau``, for c the
   first column's squared norm, one dot a0.real**2 + a0.imag**2 +
   vdot(a, a).real;
3. the self-match, in O(n + m);
4. |lam| = 1 within ``tol.tau`` when the match is proportional (lam = 0
   when both sides vanish);
5. the rest of the residual, within ``tol.tau``.

A certificate rejected by 1 or 2 has made no self-match: it keeps the
matrix and the tolerance, and makes the match, bit for bit the one the
decision would have made, when ``match``, ``w`` or ``lam`` is first read.

The residual's one matrix-vector product is A0* a, with A0 = A - a0 I_{n,m}
the corner-free part; the corner's terms are added outside any FFT, so a
scaled identity's residual is exact, and only when a0 != 0, since a zero
corner would add only signed zeros.  It has two routes:

- convolution, for any A: one FFT convolution of A0*'s diagonal values
  with a, three complex FFTs of about n + m points, O((n + m) log(n + m));
- autocorrelation: once alpha = lam w, every column of an n x m matrix with
  n >= m is a twisted cyclic shift of the first column (Davis, *Circulant
  Matrices*, 1979), and A0* a is read off the autocorrelation of the tail's
  nonzero support a[lo:hi], from its first to its last nonzero entry: one
  complex and one real FFT of about 2 (hi - lo) points.  lo and hi take one
  pass over a's float view, or none if a[1] and a[n - 1] are nonzero.

The decision reaches the residual only with n >= m.  It takes the
autocorrelation when hi - lo < 4m, where it is the cheaper (measured on
dense columns, where hi - lo = n - 1, so that is n <= 4m), and when A lies
within rounding of the matrix whose row parameters are exactly lam w:
c**(1/2) ||alpha - lam w|| <= 16 eps (c + 1), the drift's norm taken by the
same dot as c.  A proportional match has left the drift in its buffer's
spare room, where the defects go; a both-zero match has lam = 0, so its
drift is alpha itself.  Neither forms it again.  A0* a is linear in alpha
and ||a|| <= c**(1/2), so by Cauchy-Schwarz that bound keeps the two
routes' residuals within rounding of each other.  Otherwise it
convolves, as the public :func:`isometry_residual` always does.  FFT
lengths are the smallest 2**i * 3**j * 5**k that hold the result.

c is exact whenever every square and partial sum is, as for Gaussian
integers times 2**k with parts below 2**20, and otherwise within a 2n-term
sum's rounding (Higham, *Accuracy and Stability of Numerical Algorithms*,
ch. 4); OpenBLAS splits a long dot across threads, so the last bits of an
inexact c can depend on ``OPENBLAS_NUM_THREADS``.  ``Tolerance(0)``
accepts an exact isometry whose residual holds no FFT result: a single
column (m = 1), such as (1 + i, 1 - i) / 2, or a tail support of at most
one entry, as every shift c S with c = +-1 or +-i has.  It rejects most
dense exact isometries; a band for rounded quantities is ROADMAP.md item 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import CDTYPE, DEFAULT_TOL, AsymHankel, AsymToeplitz, Tolerance
from .product import RankOneOutcome, _self_match, _toeplitz_form

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


def isometry_residual(A: AsymToeplitz, _matched: tuple | None = None) -> np.ndarray:
    """First-row defect vector of A* A - I_m.

    Zero, along with the rank-one self-match, exactly when A is an
    isometry.  Entry 0 is (c - 1) / 2 for c the squared norm of A's first
    column, not the FFT's value.  The public call convolves.
    :func:`is_isometry` passes ``_matched`` = (c, lam, w) for a matrix with
    n >= m, with lam = 0 when both sides of the match vanish.
    """
    n, m = A.n, A.m
    if _matched is None:
        column_norm_sq, r = _column_norm_sq(A), _convolution_term(A)
    else:
        column_norm_sq, lam, w = _matched
        lo, hi = _support(A.a)
        fits = _autocorrelation_fits(A, column_norm_sq, hi - lo, lam, w)
        r = _autocorrelation_term(A.a[lo:hi], lam, n, m) if fits else _convolution_term(A)
    if A.a0 != 0:
        # conj(a0) a, cut or padded to m entries, is added before a0 alpha;
        # a zero corner would add only signed zeros
        k = min(n, m)
        r[1:k] += np.conj(A.a0) * A.a[1:k]
        r += A.a0 * A.alpha
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


def _autocorrelation_fits(A: AsymToeplitz, column_norm_sq: float, width: int,
                          lam: complex, w: np.ndarray) -> bool:
    """Whether :func:`_autocorrelation_term` may stand in for A0* a, by the
    module's route rule for a support of length ``width`` = hi - lo (16 eps = 2**-48)."""
    if width >= 4 * A.m:
        return False
    # a both-zero match passes lam = 0: its drift is alpha itself; a
    # proportional one wrote it to its buffer's spare room, behind w
    m = A.m
    drift = A.alpha if lam == 0 else w.base[2 * m:3 * m]
    drift_sq = float(np.vdot(drift, drift).real)
    return math.sqrt(column_norm_sq * drift_sq) <= 2.0 ** -48 * (column_norm_sq + 1.0)


def _autocorrelation_term(support: np.ndarray, lam: complex, n: int, m: int) -> np.ndarray:
    """A0* a for n >= m and alpha = lam w, from ``support`` = a[lo:hi].

    With R[k] = sum_i conj(a[i + k]) a[i], the entries of A0* a below the
    diagonal sum to conj(R[j]) and those above it, alpha[j - i] =
    lam conj(a[n - j + i]), to lam R[n - j].  R[k] = 0 exactly for every
    lag k >= hi - lo; the lower lags are the real FFT of the power spectrum
    |fft(support)|**2 at a length of at least 2 (hi - lo) - 1, which does
    not wrap them.  Entry 0 is left at 0.
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


def _column_norm_sq(A: AsymToeplitz) -> float:
    """|a0|**2 + sum |a|**2, the squared norm of A's first column, by one dot."""
    # a product, not ** 2, so that a corner beyond 2**512 gives inf, not OverflowError
    return float(A.a0.real * A.a0.real + A.a0.imag * A.a0.imag + np.vdot(A.a, A.a).real)


def _support(a: np.ndarray) -> tuple[int, int]:
    """[lo, hi), the stretch from the first to the last nonzero entry of the
    tail ``a``, or (0, 0) if there is none.  ``a[0]`` is a structural zero,
    so a tail nonzero at 1 and n - 1, as every dense one, needs no scan; any
    other takes one pass over the float view, whose parts 2k, 2k + 1 are a[k]."""
    n = len(a)
    if n > 1 and a[1] and a[-1]:
        return 1, n
    nonzero = a.view(np.float64).astype(bool)
    lo = int(nonzero.argmax())
    if not nonzero[lo]:
        return 0, 0
    return lo // 2, n - int(nonzero[::-1].copy().argmax()) // 2


@dataclass(frozen=True, eq=False)
class IsometryCertificate:
    """Outcome of the structured check A* A == I_m.

    ``wide`` says the matrix has fewer rows than columns (n < m).
    ``column_norm_sq`` is the squared norm of the first column.
    ``residual_norm`` is ``None`` when a test before the residual decided
    the verdict.  ``w`` is the comparison vector of the pair (A*, A), with
    the conjugated corner at index n when the matrix is wide, a read-only
    view of the buffer the self-match reduced.  ``match`` is
    the rank-one self-match of the row parameters against ``w``, or
    ``None`` when it fails.  The decision makes both when it reaches the
    self-match; a certificate rejected before it, as wide or by its column
    norm, makes them on the first read of ``match``, ``w`` or ``lam``, from
    the matrix and tolerance it keeps, and keeps them.  For a Hankel matrix
    H = C P_m it describes the stored core C.  Two certificates are equal,
    and hash alike, when they record the same bits: verdict, ``wide``,
    residual and column norms, lam, and the matrix's dimensions and fields.
    """

    accepted: bool
    wide: bool
    residual_norm: float | None
    column_norm_sq: float
    _toeplitz: AsymToeplitz = field(repr=False)
    _tol: Tolerance = field(repr=False)

    @cached_property
    def _matched(self) -> tuple[RankOneOutcome | None, np.ndarray]:
        return _self_match(self._toeplitz, self._tol)

    @property
    def match(self) -> RankOneOutcome | None:
        return self._matched[0]

    @property
    def w(self) -> np.ndarray:
        return self._matched[1]

    @property
    def lam(self) -> complex | None:
        return None if self.match is None else self.match.lam

    def __eq__(self, other) -> bool:
        if not isinstance(other, IsometryCertificate):
            return NotImplemented
        return _recorded(self) == _recorded(other)

    def __hash__(self) -> int:
        return hash(_recorded(self))


def _recorded(c: IsometryCertificate) -> tuple:
    # floats by repr, which tells apart any two but NaNs; no field is NaN
    A = c._toeplitz
    return (c.accepted, c.wide, repr(c.residual_norm), repr(c.column_norm_sq), repr(c.lam),
            A.n, A.m, repr(A.a0), A.a.tobytes(), A.alpha.tobytes())


def is_isometry(M: AsymToeplitz | AsymHankel,
                tol: Tolerance = DEFAULT_TOL) -> IsometryCertificate:
    """Certify whether M* M equals the identity, without forming M* M.

    ``M`` is a compact Toeplitz or Hankel matrix.  Accepts iff M is not
    wide, its first column has unit norm, the self-match holds with
    |lam| = 1 (or degenerates to zero on both sides) and the residual
    vanishes, all within ``tol``, tested in the order the module docstring
    gives.  Agrees with the dense oracle on M* M - I_m.
    """
    A, _ = _toeplitz_form(M)
    wide = A.n < A.m
    column_norm_sq = _column_norm_sq(A)
    # filled in as product_is_toeplitz fills a certificate, with no
    # frozen-dataclass __init__; it rejects unless the residual accepts
    cert = object.__new__(IsometryCertificate)
    cert.__dict__.update(accepted=False, wide=wide, residual_norm=None,
                         column_norm_sq=column_norm_sq, _toeplitz=A, _tol=tol)
    if wide or abs(column_norm_sq - 1.0) / 2.0 > tol.tau:
        return cert
    match, w = cert.__dict__["_matched"] = _self_match(A, tol)
    if match is None or (match.is_proportional and abs(abs(match.lam) - 1.0) > tol.tau):
        return cert
    lam = match.lam if match.is_proportional else 0.0
    residual = isometry_residual(A, (column_norm_sq, lam, w))
    residual_norm = float(np.maximum.reduce(np.abs(residual)))
    cert.__dict__.update(accepted=residual_norm <= tol.tau, residual_norm=residual_norm)
    return cert


def hankel_is_isometry(H: AsymHankel) -> IsometryCertificate:
    """:func:`is_isometry` of a compact Hankel matrix at the default tolerance,
    decided on its core; kept only for the benchmark (``bench/``), which calls it."""
    return is_isometry(H.core)
