"""Constructive generators for factor pairs with guaranteed Toeplitz products.

``gen_pair`` builds a pair satisfying the proportional rank-one identity
for a chosen scalar; ``gen_degenerate`` builds the banded/one-sided forms
whose comparison vectors vanish outright; ``perturb_to_break`` bumps one
parameter of a certified pair so the identity provably fails, for negative
testing.  Random fill uses Gaussian-integer values so the dense oracle
comparisons stay exact in double precision.  ``gen_isometry`` builds
Toeplitz matrices with orthonormal columns, whose entries are not.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import CDTYPE, DEFAULT_TOL, AsymToeplitz, DimensionMismatch, Tolerance
from .product import Regime, classify_regime, product_is_toeplitz

__all__ = [
    "DEGENERATE_FORMS",
    "FamilySpec",
    "SpecificationError",
    "gen_degenerate",
    "gen_isometry",
    "gen_pair",
    "perturb_to_break",
    "random_toeplitz",
]


class SpecificationError(ValueError):
    """A family request is internally inconsistent."""


def _fill(rng: np.random.Generator, count: int) -> np.ndarray:
    """Gaussian-integer entries with parts in [-5, 5] (exact in doubles)."""
    parts = rng.integers(-5, 6, size=(2, count))
    return (parts[0] + 1j * parts[1]).astype(CDTYPE)


def random_toeplitz(rng: np.random.Generator, n: int, m: int) -> AsymToeplitz:
    """Compact matrix with seeded Gaussian-integer parameters in [-5, 5]."""
    a = np.zeros(n, dtype=CDTYPE)
    a[1:] = _fill(rng, n - 1)
    alpha = np.zeros(m, dtype=CDTYPE)
    alpha[1:] = _fill(rng, m - 1)
    return AsymToeplitz(n, m, complex(_fill(rng, 1)[0]), a, alpha)


def gen_isometry(rng: np.random.Generator, n: int, m: int) -> AsymToeplitz:
    """An n x m Toeplitz isometry (n >= m) with a dense first column.

    Its row parameters are alpha[j] = lam conj(a[n - j]) for a random
    unimodular lam, so column j is the first column c shifted cyclically
    down by j, its wrapped entries times conj(lam).  With theta**n =
    conj(lam), g[i] = theta**i c[i] turns that twisted shift into a plain
    cyclic one, so A* A = I when g's periodic autocorrelation vanishes at
    lags 1..m-1 and ||g|| = 1 (Davis, *Circulant Matrices*, 1979).  g is
    the inverse DFT of random unit phases, a flat spectrum, which holds for
    every m <= n.
    """
    if not 1 <= m <= n:
        raise SpecificationError(f"an isometry needs n >= m >= 1, got {n}x{m}")
    turn = rng.random()
    lam = np.exp(2j * np.pi * turn)
    g = np.fft.ifft(np.exp(2j * np.pi * rng.random(n)))
    # untwist: c[i] = theta**-i g[i] with theta = exp(-2 pi i turn / n)
    c = g * np.exp(2j * np.pi * turn * np.arange(n) / n)
    a = c.copy()
    a[0] = 0
    alpha = np.zeros(m, dtype=CDTYPE)
    alpha[1:] = lam * np.conj(a[n - 1:n - m:-1])
    return AsymToeplitz._trusted(n, m, complex(c[0]), a, alpha)


# One NumPy pass fills a geometric block of m entries from the m before it.
# On a 2-core x86-64 machine a product pass cost about 8 us (four calls), as
# long as a Python loop takes for about 50 products (0.15 us each), so
# shorter product blocks use the loop.  Quotient blocks of 8 or more take
# one np.divide each, in place; shorter ones are divided down the whole tail
# at once by np.divide.accumulate, the same ufunc loop on a second copy.
_BLOCK_PRODUCTS = 48
_BLOCK_QUOTIENTS = 8


def _times(lam: complex, parts: np.ndarray, out: np.ndarray) -> None:
    """lam times each complex number, on interleaved (re, im) float parts.

    Rounds as NumPy's scalar complex product: re = lr zr - li zi and
    im = lr zi + li zr, each step rounded once.  NumPy's complex-multiply
    ufunc may take a SIMD loop whose last bits differ from that.
    """
    real_times, imag_times = parts * lam.real, parts * lam.imag
    np.subtract(real_times[0::2], imag_times[1::2], out=out[0::2])
    np.add(real_times[1::2], imag_times[0::2], out=out[1::2])


def _geometric_products(v: np.ndarray, m: int, lam: complex) -> None:
    """v[i] = lam * v[i - m] for m <= i < len(v), in blocks of m entries.

    Each entry depends on the one m places back, so one NumPy pass fills
    at most m entries; shorter blocks are filled entry by entry in Python,
    whose complex product rounds as NumPy's scalar one does.
    """
    if m < _BLOCK_PRODUCTS:
        vals = v[:m].tolist()
        for i in range(len(v) - m):
            vals.append(lam * vals[i])
        v[m:] = vals[m:]
        return
    parts = v.view(np.float64)
    block = 2 * m
    for start in range(block, len(parts), block):
        stop = min(start + block, len(parts))
        _times(lam, parts[start - block:stop - block], parts[start:stop])


def _geometric_quotients(v: np.ndarray, m: int, c: complex) -> None:
    """v[i] = v[i - m] / c for m <= i < len(v), in blocks of m entries.

    Short blocks are divided down the whole tail laid out m entries per
    row, by one ``np.divide.accumulate``: the same complex-division loop.
    """
    size = len(v)
    if m >= _BLOCK_QUOTIENTS:
        for start in range(m, size, m):
            stop = min(start + m, size)
            np.divide(v[start - m:stop - m], c, out=v[start:stop])
        return
    rows = np.full((-(-size // m), m), c, dtype=CDTYPE)
    rows[0] = v[:m]
    np.divide.accumulate(rows, axis=0, out=rows)
    v[m:] = rows.ravel()[m:size]


@dataclass(frozen=True)
class FamilySpec:
    """Parameters for one guaranteed product-Toeplitz factor pair.

    ``a_free`` holds the m - 1 free parameters of the left factor: its row
    parameters alpha_1..alpha_{m-1} when n <= m (R1/R3), its column tail
    a_1..a_{m-1} when m < n (R2/R4); the other side is derived from the
    rank-one identity.  ``b_free`` is always the right factor's column
    tail b_1..b_{m-1}.  Parameters left as ``None`` are filled from
    ``seed`` with Gaussian-integer values.
    """

    regime: Regime
    n: int
    m: int
    l: int
    lam: complex = 2.0 + 0.0j
    a0: complex | None = None
    b0: complex | None = None
    a_free: np.ndarray | None = None
    b_free: np.ndarray | None = None
    seed: int = 0


def gen_pair(spec: FamilySpec) -> tuple[AsymToeplitz, AsymToeplitz]:
    """Construct (A, B) whose product is certified Toeplitz with scalar ``lam``.

    The derived entries obey a = lam * u and v = conj(lam) * beta exactly;
    when the left factor is tall its column tail repeats in geometric
    blocks (a[m] = lam * a0, a[m + i] = lam * a[i]), and symmetrically for
    a wide right factor with ratio 1 / conj(lam).

    Rounding: each derived entry is rounded as NumPy's scalar complex
    product or quotient of its two operands rounds it (the product with
    each real step rounded once, the quotient by Smith's method, which
    every quotient route runs as NumPy's own division loop), whether a
    whole slice, an accumulate or a Python loop over short product blocks
    builds it.  So a spec's bits do not depend on its block length,
    wherever NumPy's scalar complex arithmetic rounds each step once, as on
    x86-64.
    """
    n, m, l = spec.n, spec.m, spec.l
    actual = classify_regime(n, m, l)
    if actual is not spec.regime:
        raise SpecificationError(
            f"sizes ({n}, {m}, {l}) fall in {actual.name}, not {spec.regime.name}")
    lam = complex(spec.lam)
    if lam == 0:
        raise SpecificationError(
            "lam must be nonzero; degenerate families have dedicated constructors")
    rng = np.random.default_rng(spec.seed)
    a_free = (np.asarray(spec.a_free, dtype=CDTYPE) if spec.a_free is not None
              else _fill(rng, m - 1))
    b_free = (np.asarray(spec.b_free, dtype=CDTYPE) if spec.b_free is not None
              else _fill(rng, m - 1))
    if len(a_free) != m - 1 or len(b_free) != m - 1:
        raise SpecificationError(f"free parameter vectors must have length {m - 1}")
    a0 = complex(spec.a0) if spec.a0 is not None else complex(_fill(rng, 1)[0])
    b0 = complex(spec.b0) if spec.b0 is not None else complex(_fill(rng, 1)[0])

    # a lam near the float range's edges overflows here; AsymToeplitz
    # refuses the non-finite result with one error, so NumPy stays quiet
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.zeros(n, dtype=CDTYPE)
        alpha = np.zeros(m, dtype=CDTYPE)
        if n <= m:
            alpha[1:] = a_free
            _times(lam, np.conj(alpha[m - 1:m - n:-1]).view(np.float64),
                   a[1:].view(np.float64))
        else:
            a[1:m] = a_free
            np.divide(np.conj(a[m - 1:0:-1]), lam.conjugate(), out=alpha[1:])
            # a[i] = lam a[i - m] from i = m on, with a0 standing in for a[0]
            a[0] = a0
            _geometric_products(a, m, lam)
            a[0] = 0

        b = np.zeros(m, dtype=CDTYPE)
        b[1:] = b_free
        beta = np.zeros(l, dtype=CDTYPE)
        k = min(l, m)
        np.divide(np.conj(b[m - 1:m - k:-1]), lam.conjugate(), out=beta[1:k])
        if m < l:
            beta[0] = np.conj(b0)
            _geometric_quotients(beta, m, lam.conjugate())
            beta[0] = 0

    return AsymToeplitz(n, m, a0, a, alpha), AsymToeplitz(m, l, b0, b, beta)


DEGENERATE_FORMS = ("row_band_a", "col_band_b", "lambda_zero", "lambda_infinity")


def gen_degenerate(form: str, n: int, m: int, l: int, *,
                   a0: complex | None = None, b0: complex | None = None,
                   seed: int = 0) -> tuple[AsymToeplitz, AsymToeplitz]:
    """Construct a pair whose rank-one comparison degenerates to zero.

    * ``row_band_a``     -- left column tail and comparison vector vanish
      (needs n <= m); the right factor is arbitrary.
    * ``col_band_b``     -- right row parameters and comparison vector
      vanish (needs l <= m); the left factor is arbitrary.
    * ``lambda_zero``    -- left column tail vanishes and the right
      comparison vector vanishes.
    * ``lambda_infinity``-- right row parameters vanish and the left
      comparison vector vanishes.

    The product is Toeplitz for any values of the remaining free
    parameters, which are filled from ``seed``.  ``lambda_zero`` with
    l > m sets b0 = 0 and ``lambda_infinity`` with n > m sets a0 = 0, so a
    nonzero corner passed there raises :class:`SpecificationError`.
    """
    if form not in DEGENERATE_FORMS:
        raise SpecificationError(f"unknown degenerate form {form!r}")
    if n < 1 or m < 1 or l < 1:
        raise SpecificationError(f"dimensions must be positive, got ({n}, {m}, {l})")
    for name, corner, forced in (("b0", b0, form == "lambda_zero" and l > m),
                                 ("a0", a0, form == "lambda_infinity" and n > m)):
        if forced and corner is not None and complex(corner) != 0:
            raise SpecificationError(f"{form} with these dimensions needs {name} = 0")
    rng = np.random.default_rng(seed)
    a0 = complex(a0) if a0 is not None else complex(_fill(rng, 1)[0])
    b0 = complex(b0) if b0 is not None else complex(_fill(rng, 1)[0])

    if form == "row_band_a":
        if n > m:
            raise SpecificationError("row_band_a requires n <= m")
        alpha = np.zeros(m, dtype=CDTYPE)
        alpha[1:m - n + 1] = _fill(rng, m - n)
        A = AsymToeplitz(n, m, a0, np.zeros(n, dtype=CDTYPE), alpha)
        B = replace(random_toeplitz(rng, m, l), a0=b0)
    elif form == "col_band_b":
        if l > m:
            raise SpecificationError("col_band_b requires l <= m")
        b = np.zeros(m, dtype=CDTYPE)
        b[1:m - l + 1] = _fill(rng, m - l)
        B = AsymToeplitz(m, l, b0, b, np.zeros(l, dtype=CDTYPE))
        A = replace(random_toeplitz(rng, n, m), a0=a0)
    elif form == "lambda_zero":
        alpha = np.zeros(m, dtype=CDTYPE)
        alpha[1:] = _fill(rng, m - 1)
        A = AsymToeplitz(n, m, a0, np.zeros(n, dtype=CDTYPE), alpha)
        b = np.zeros(m, dtype=CDTYPE)
        beta = np.zeros(l, dtype=CDTYPE)
        if l <= m:
            b[1:m - l + 1] = _fill(rng, m - l)
            beta[1:] = _fill(rng, l - 1)
        else:
            # the comparison vector covers b, the corner and beta[1:l-m-1];
            # only the last m row parameters stay free
            b0 = 0.0
            beta[l - m:] = _fill(rng, m)
        B = AsymToeplitz(m, l, b0, b, beta)
    else:  # lambda_infinity
        b = np.zeros(m, dtype=CDTYPE)
        b[1:] = _fill(rng, m - 1)
        B = AsymToeplitz(m, l, b0, b, np.zeros(l, dtype=CDTYPE))
        a = np.zeros(n, dtype=CDTYPE)
        alpha = np.zeros(m, dtype=CDTYPE)
        if n <= m:
            alpha[1:m - n + 1] = _fill(rng, m - n)
            a[1:] = _fill(rng, n - 1)
        else:
            a0 = 0.0
            a[n - m:] = _fill(rng, m)
        A = AsymToeplitz(n, m, a0, a, alpha)
    return A, B


def perturb_to_break(pair: tuple[AsymToeplitz, AsymToeplitz],
                     tol: Tolerance = DEFAULT_TOL) -> tuple[AsymToeplitz, AsymToeplitz]:
    """Copy of (A, B) with one left-factor parameter bumped so the product
    is no longer Toeplitz.

    Requires the rank-one identity to be active: A's column tail and B's
    row parameters must both be nonzero, so the bump lands where the
    mismatch cannot cancel.  The result is verified before returning.
    """
    A, B = pair
    if A.m != B.n:
        raise DimensionMismatch(
            f"inner dimensions differ: {A.shape} times {B.shape}")
    if not np.any(A.a):
        raise ValueError("cannot perturb: left column tail is zero")
    if not np.any(B.alpha):
        raise ValueError("cannot perturb: right row parameters are zero")
    n, m = A.n, A.m
    # offsets p - 1 of the nonzero A.a[p], 1 <= p < min(n, m)
    candidates = np.flatnonzero(A.a[1:min(n, m)])

    def bumped(delta: float) -> AsymToeplitz:
        if candidates.size:
            alpha = A.alpha.copy()
            alpha[m - 1 - candidates[0]] += delta
            return replace(A, alpha=alpha)
        # tail nonzero only through the geometric blocks: bump the corner,
        # which feeds the comparison vector at index m
        return replace(A, a0=A.a0 + delta)

    for delta in (1.0, 2.0, 3.0):
        broken = bumped(delta)
        if product_is_toeplitz(broken, B, tol) is None:
            return broken, B
    raise ValueError("perturbation failed to break the pair")
