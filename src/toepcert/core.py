"""Compact rectangular Toeplitz/Hankel matrices and their dense oracles.

A rectangular Toeplitz matrix is constant along every diagonal and is
therefore determined by its first row and first column; a rectangular
Hankel matrix is constant along every anti-diagonal and is a column flip
of a Toeplitz matrix.  This module stores that data compactly, converts
to and from dense complex matrices, maps Toeplitz to Hankel matrices by
flips, and provides the dense product and diagonal-constancy oracles that
the structured predicates elsewhere in the package are cross-checked
against.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

CDTYPE = np.complex128

__all__ = [
    "CDTYPE",
    "DEFAULT_TOL",
    "AsymHankel",
    "AsymToeplitz",
    "DimensionMismatch",
    "StructureError",
    "Tolerance",
    "as_cvector",
    "as_dense",
    "dense_is_hankel",
    "dense_is_toeplitz",
    "dense_mul",
    "flip_cols",
    "flip_rows_of",
]


class StructureError(ValueError):
    """A dense matrix does not have the structure a conversion requires.

    Carries the first violating position (row-major scan) as ``.row`` and
    ``.col`` when known.
    """

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        super().__init__(message)
        self.row = row
        self.col = col


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible."""


@dataclass(frozen=True)
class Tolerance:
    """Float comparison policy: |x - y| <= tau + tau * scale.

    ``scale`` is the largest absolute entry among the operands compared;
    for a side scaled by lambda the product layer takes |lambda| times the
    unscaled side's largest, which differs only by rounding, so it can
    tip a verdict only for a defect within a few ulps of its threshold.
    Tests against zero read ``tau``, the threshold at scale 0.
    ``Tolerance(0)`` demands exact equality.  Product decisions on
    Gaussian-integer input meet it when the scalar lambda is dyadic;
    otherwise the pivot quotient is rounded and exact products may be
    rejected, e.g. (n, m, l) = (2, 5, 2) with lambda = (4+i)/(-1-5i)
    (ROADMAP.md item 2).  Which isometries ``Tolerance(0)`` accepts is
    stated in :mod:`toepcert.isometry`.  ``tau`` must be finite and
    non-negative: a NaN or negative threshold rejects every comparison,
    an infinite one accepts every comparison.
    """

    tau: float = 1e-9

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau >= 0):
            raise ValueError(
                f"tolerance tau must be finite and non-negative, got {self.tau!r}")

    def threshold(self, scale: float) -> float:
        return self.tau + self.tau * scale


DEFAULT_TOL = Tolerance()


def as_cvector(x, length: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce to a read-only 1-D complex array, checking finiteness."""
    v = _cvector(x, length, name)
    v.setflags(write=False)
    return v


def _cvector(x, length: int | None, name: str) -> np.ndarray:
    """The checked copy of ``x`` that :func:`as_cvector` returns, still writable."""
    v = np.array(x, dtype=CDTYPE)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    if length is not None and len(v) != length:
        raise DimensionMismatch(f"{name} must have length {length}, got {len(v)}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries")
    return v


def as_dense(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex array with positive dimensions, checking finiteness."""
    A = np.asarray(M, dtype=CDTYPE)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"{name} must be 2-D and nonempty, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


# ---------------------------------------------------------------------------
# compact representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AsymToeplitz:
    """n x m complex matrix constant along every diagonal.

    Storage is the corner value ``a0`` plus two parameter vectors that both
    carry a structural zero at index 0, so vector indices line up with the
    offsets they fill:

    * ``a[i]``     holds entry (i, 0) for i >= 1 (the first-column tail);
    * ``alpha[j]`` holds the conjugate of entry (0, j) for j >= 1.

    entry(i, j) = a0 if i == j, a[i - j] if i > j, conj(alpha[j - i]) if j > i.

    Instances are immutable; the backing arrays are read-only.
    """

    n: int
    m: int
    a0: complex
    a: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        try:
            n, m = operator.index(self.n), operator.index(self.m)
        except TypeError:
            raise ValueError(
                f"dimensions must be integers, got {self.n!r}x{self.m!r}") from None
        if n < 1 or m < 1:
            raise ValueError(f"dimensions must be positive, got {n}x{m}")
        a0 = complex(self.a0)
        if not (np.isfinite(a0.real) and np.isfinite(a0.imag)):
            raise ValueError("corner value must be finite")
        a = as_cvector(self.a, self.n, "a")
        alpha = as_cvector(self.alpha, self.m, "alpha")
        if a[0] != 0 or alpha[0] != 0:
            raise ValueError("a[0] and alpha[0] are structural zeros and must be 0")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "alpha", alpha)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_first_row_col(cls, first_row, first_col) -> "AsymToeplitz":
        """Build from the literal first row and first column (shared corner)."""
        alpha = _cvector(first_row, None, "first_row")
        a = _cvector(first_col, None, "first_col")
        if not (len(alpha) and len(a)):
            raise ValueError("first_row and first_col must both be nonempty")
        if alpha[0] != a[0]:
            raise ValueError(
                f"first_row[0] = {alpha[0]} and first_col[0] = {a[0]} must agree")
        return cls._from_owned_row_col(alpha, a)

    @classmethod
    def _from_owned_row_col(cls, first_row: np.ndarray, first_col: np.ndarray) -> "AsymToeplitz":
        """Build from the literal first row and column, taken over as they stand.

        Both must be nonempty, finite 1-D complex arrays that nothing else
        holds, with equal corners, so the fields meet every check of
        ``__post_init__``.  The column becomes ``a`` and the conjugated row
        ``alpha``, each with its structural zero written over the corner.
        """
        a0 = complex(first_col[0])
        first_col[0] = 0
        np.conjugate(first_row, out=first_row)
        first_row[0] = 0
        return cls._trusted(len(first_col), len(first_row), a0, first_col, first_row)

    @classmethod
    def from_dense(cls, M, tol: Tolerance = DEFAULT_TOL) -> "AsymToeplitz":
        """Compact form of a dense Toeplitz matrix.

        Every diagonal must be constant within ``tol``; the stored entries
        are read from row 0 and column 0.  Raises :class:`StructureError`
        at the first violating position (row-major scan).
        """
        M = _structured_dense(M, tol, hankel=False)
        return cls.from_first_row_col(M[0, :], M[:, 0])

    @classmethod
    def eye(cls, n: int, m: int) -> "AsymToeplitz":
        """The compact n x m rectangular identity."""
        return cls(n, m, 1.0, np.zeros(n, dtype=CDTYPE), np.zeros(m, dtype=CDTYPE))

    @classmethod
    def zero(cls, n: int, m: int) -> "AsymToeplitz":
        """The compact n x m zero matrix."""
        return cls(n, m, 0.0, np.zeros(n, dtype=CDTYPE), np.zeros(m, dtype=CDTYPE))

    # -- access ------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.m)

    def entry(self, i: int, j: int) -> complex:
        """Entry (i, j), in O(1)."""
        if not (0 <= i < self.n and 0 <= j < self.m):
            raise IndexError(f"index ({i}, {j}) out of range for {self.n}x{self.m}")
        if i == j:
            return self.a0
        if i > j:
            return complex(self.a[i - j])
        return complex(np.conj(self.alpha[j - i]))

    def first_row(self) -> np.ndarray:
        """Literal first-row entries (conjugates of ``alpha``, corner first)."""
        out = np.conj(self.alpha)
        out[0] = self.a0
        return out

    def first_col(self) -> np.ndarray:
        """Literal first-column entries (corner first)."""
        out = self.a.copy()
        out[0] = self.a0
        return out

    def diagonals(self) -> np.ndarray:
        """The value on each diagonal, a new array of length n + m - 1.

        Index ``m - 1 + d`` holds the diagonal of offset d = i - j, for d
        from -(m - 1) to n - 1; the corner ``a0`` sits at index m - 1.
        """
        return np.concatenate([np.conj(self.alpha[:0:-1]),
                               np.array([self.a0], dtype=CDTYPE),
                               self.a[1:]])

    def to_dense(self) -> np.ndarray:
        """Realize all n x m entries."""
        idx = np.arange(self.n)[:, None] - np.arange(self.m)[None, :] + (self.m - 1)
        return self.diagonals()[idx]

    # -- structure-preserving maps ------------------------------------------

    @classmethod
    def _trusted(cls, n: int, m: int, a0: complex, a: np.ndarray,
                 alpha: np.ndarray) -> "AsymToeplitz":
        """Wrap fields the package derived from validated data.

        Skips the copies and checks of ``__post_init__``: ``n`` and ``m``
        must be positive ints, ``a0`` a finite complex, and ``a`` and
        ``alpha`` finite 1-D complex arrays of lengths n and m, zero at
        index 0, that nothing else writes to.  The arrays are made read-only.
        """
        a.setflags(write=False)
        alpha.setflags(write=False)
        out = object.__new__(cls)
        out.__dict__.update(n=n, m=m, a0=a0, a=a, alpha=alpha)
        return out

    def adjoint(self) -> "AsymToeplitz":
        """Conjugate transpose; swaps the roles of ``a`` and ``alpha``."""
        return AsymToeplitz._trusted(self.m, self.n, self.a0.conjugate(),
                                     self.alpha, self.a)

    def rot180(self) -> "AsymToeplitz":
        """Flip both axes (P_n A P_m); diagonals map to diagonals."""
        # the flip reverses the sequence of diagonal values, so its corner is
        # the old bottom-right one, index n - 1, its column reads the values
        # down to index 0 and its row (conjugated) up to the end
        n = self.n
        vals = self.diagonals()
        a0 = complex(vals[n - 1])
        alpha = np.conj(vals[n - 1:])
        alpha[0] = 0
        a = vals[n - 1::-1].copy()
        a[0] = 0
        return AsymToeplitz._trusted(n, self.m, a0, a, alpha)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AsymToeplitz):
            return NotImplemented
        return (self.n == other.n and self.m == other.m and self.a0 == other.a0
                and np.array_equal(self.a, other.a)
                and np.array_equal(self.alpha, other.alpha))


@dataclass(frozen=True, eq=False)
class AsymHankel:
    """n x m complex matrix constant along every anti-diagonal.

    Stored as the Toeplitz matrix whose column flip it is:
    ``H(i, j) = core(i, m - 1 - j)``, i.e. H = core P_m.
    """

    core: AsymToeplitz

    def __post_init__(self):
        if not isinstance(self.core, AsymToeplitz):
            raise TypeError(f"core must be an AsymToeplitz, got {type(self.core).__name__}")

    @property
    def n(self) -> int:
        return self.core.n

    @property
    def m(self) -> int:
        return self.core.m

    @property
    def shape(self) -> tuple[int, int]:
        return self.core.shape

    def to_dense(self) -> np.ndarray:
        return self.core.to_dense()[:, ::-1]

    @classmethod
    def from_dense(cls, M, tol: Tolerance = DEFAULT_TOL) -> "AsymHankel":
        """Compact form of a dense Hankel matrix.

        Raises :class:`StructureError` at the first anti-diagonal violation.
        """
        M = _structured_dense(M, tol, hankel=True)
        # the column flip M P_m is the Toeplitz core: row 0 reversed, last column
        return cls(AsymToeplitz.from_first_row_col(M[0, ::-1], M[:, -1]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, AsymHankel):
            return NotImplemented
        return self.core == other.core


def flip_cols(A: AsymToeplitz) -> AsymHankel:
    """The Hankel matrix A P_m (columns of A in reverse order)."""
    return AsymHankel(A)


def flip_rows_of(A: AsymToeplitz) -> AsymHankel:
    """The Hankel matrix P_n A (rows of A in reverse order)."""
    return AsymHankel(A.rot180())


# ---------------------------------------------------------------------------
# dense brute-force oracles
# ---------------------------------------------------------------------------

def dense_mul(X, Y) -> np.ndarray:
    """Plain dense matrix product, with an explicit dimension check."""
    X = as_dense(X, "left operand")
    Y = as_dense(Y, "right operand")
    if X.shape[1] != Y.shape[0]:
        raise DimensionMismatch(
            f"inner dimensions differ: {X.shape} times {Y.shape}")
    return X @ Y


def _structured_dense(M, tol: Tolerance, hankel: bool) -> np.ndarray:
    """M as a dense array, or :class:`StructureError` at its first break
    (:func:`_first_break`), named with the entry it differs from."""
    M = as_dense(M)
    if (bad := _first_break(M, tol, hankel)) is not None:
        i, j = bad
        k = j + 1 if hankel else j - 1
        raise StructureError(
            f"not {'Hankel' if hankel else 'Toeplitz'}: entry ({i}, {j}) = {M[i, j]} "
            f"differs from entry ({i - 1}, {k}) = {M[i - 1, k]}",
            row=i, col=j)
    return M


def _overflow_shift(exponent: int) -> int:
    """The k for which 2**-k times parts below 2**(exponent + 1) keeps every
    difference of two entries, and its modulus, below 2**1024, where float64
    overflows.  Scaling by 2**-k is exact short of underflow (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 2)."""
    return max(0, exponent + 3 - 1024)


def _part_exponent(*values) -> int:
    """The least E with all real and imaginary parts of ``values`` below 2**E; 0 if all are 0."""
    return math.frexp(max(float(np.max(np.abs(part(v))))
                          for v in values for part in (np.real, np.imag)))[1]


def _first_break(M: np.ndarray, tol: Tolerance, hankel: bool,
                 unit: float = 1.0) -> tuple[int, int] | None:
    """First entry, in row-major order, that breaks the structure of M.

    Entry (i, j) breaks it when it differs by more than
    ``tau * unit + tau * max|M|`` from its predecessor on the same diagonal,
    (i - 1, j - 1), or with ``hankel`` on the same anti-diagonal,
    (i - 1, j + 1); ``unit`` is the power of two that M's data were scaled
    by.  None when no entry does.  Under ``tau`` = 0 neighbours are compared
    with ``!=`` as they stand, exact at every scale.  Once max|M| reaches
    2**1021 a modulus or a difference may overflow, and an infinite
    threshold would pass every difference, so M and ``unit`` are scaled by
    2**-k, k = :func:`_overflow_shift` of M's :func:`_part_exponent`.
    That shift is at most 3, but :func:`_product_break`'s ``unit`` 2**-k
    makes ``tau * unit`` subnormal once k passes about 992 (tau = 1e-9);
    its rounding, at most 2**-1075, is 2**(k - 1075) / tau of the threshold
    at most, so it can tip only a defect within about 1e-12 relative of
    the threshold at k near 1007.  ROADMAP item 1's plan removes ``unit``.
    """
    n, m = M.shape
    if n == 1 or m == 1:
        return None
    tau = tol.tau
    if tau:
        top = float(np.max(np.abs(M)))
        if top >= 2.0 ** 1021 and (shift := _overflow_shift(_part_exponent(M))):
            M, unit = M * 2.0 ** -shift, unit * 2.0 ** -shift
            top = float(np.max(np.abs(M)))
        thr = tau * unit + tau * top
    below, above = (M[1:, :-1], M[:-1, 1:]) if hankel else (M[1:, 1:], M[:-1, :-1])
    bad = np.abs(below - above) > thr if tau else below != above
    k = int(np.argmax(bad))
    if not bad.flat[k]:
        return None
    i, j = divmod(k, m - 1)
    return i + 1, (j if hankel else j + 1)


def _product_break(left, right, tol: Tolerance) -> tuple[int, int] | None:
    """:func:`_first_break` of the dense product of two compact factors
    (Hankel for mixed kinds): the dense oracle of a product verdict.

    The product's parts are below 2**(ex + ey + 1) m < 2**(E + 1), E = ex +
    ey + bitlen(m), for ex and ey the factors' :func:`_part_exponent`, read
    from ``a0``, ``a`` and ``alpha`` with nothing realized.  The factors are
    realized scaled by 2**-k between them, k = :func:`_overflow_shift` of E,
    and the product is scanned at ``unit`` 2**-k.  The scaling is exact
    short of underflow, but the threshold's first term ``tau * 2**-k`` is
    subnormal once k passes about 992 (tau = 1e-9), and its rounding can
    tip only a defect within about 1e-12 relative of the threshold at k
    near 1007 (:func:`_first_break`).  ROADMAP item 1's plan removes
    ``unit``.
    """
    ex, ey = (_part_exponent(T.a0, T.a, T.alpha)
              for T in (F.core if isinstance(F, AsymHankel) else F for F in (left, right)))
    k = _overflow_shift(ex + ey + left.m.bit_length())
    X, Y = left.to_dense(), right.to_dense()
    X *= 2.0 ** -(k // 2)
    Y *= 2.0 ** -(k - k // 2)
    hankel = isinstance(left, AsymHankel) != isinstance(right, AsymHankel)
    return _first_break(dense_mul(X, Y), tol, hankel, 2.0 ** -k)


def dense_is_toeplitz(M, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether every diagonal of M is constant within ``tol``."""
    return _first_break(as_dense(M), tol, hankel=False) is None


def dense_is_hankel(M, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether every anti-diagonal of M is constant within ``tol``."""
    return _first_break(as_dense(M), tol, hankel=True) is None
