"""Product-structure certification for compact Toeplitz factor pairs.

Whether the product of an n x m and an m x l Toeplitz matrix is again
Toeplitz reduces to one rank-one identity between four vectors read
directly off the factors' parameters: the left column tail, the right row
parameters, and two size-regime comparison vectors.  The decision runs in
O(n + m + l) and returns a certificate that can be re-verified on its own
and cross-checked against the dense product.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    CDTYPE,
    DEFAULT_TOL,
    AsymToeplitz,
    DimensionMismatch,
    Tolerance,
)

__all__ = [
    "ProductCertificate",
    "RankOneOutcome",
    "Regime",
    "alpha_hat",
    "b_hat",
    "classify_regime",
    "comparison_vectors",
    "delta_product_structured",
    "product_is_toeplitz",
    "rank_one_equal",
    "sharp",
]


class Regime(enum.Enum):
    """Order relation among the dimensions (n, m, l) of a factor pair."""

    R1 = "max(n,l) <= m"
    R2 = "m < min(n,l)"
    R3 = "n <= m < l"
    R4 = "l <= m < n"


def classify_regime(n: int, m: int, l: int) -> Regime:
    """The unique size regime of a triple of positive dimensions."""
    if n < 1 or m < 1 or l < 1:
        raise ValueError(f"dimensions must be positive, got ({n}, {m}, {l})")
    if n <= m:
        return Regime.R1 if l <= m else Regime.R3
    return Regime.R4 if l <= m else Regime.R2


# ---------------------------------------------------------------------------
# comparison vectors
# ---------------------------------------------------------------------------

def _hat(primary: np.ndarray, continuation: np.ndarray, out_dim: int) -> np.ndarray:
    """Reversed-conjugate read-out of trailing parameters, shifted by one.

    With p = len(primary): out[i] = conj(primary[p - i]) for
    1 <= i <= min(out_dim, p) - 1; when out_dim > p a structural zero sits
    at index p and continuation[1:] fills the rest.
    """
    p = len(primary)
    out = np.zeros(out_dim, dtype=CDTYPE)
    head = min(out_dim, p)
    if head > 1:
        out[1:head] = np.conj(primary[p - 1:p - head:-1])
    if out_dim > p + 1:
        out[p + 1:] = continuation[1:out_dim - p]
    return out


def alpha_hat(A: AsymToeplitz) -> np.ndarray:
    """Left-factor comparison vector in C^n.

    Reads A's row parameters backwards; when the factor is tall (m < n) the
    read-out continues into the column tail after a structural zero.
    Equals the shifted last column of A's corner-free part.
    """
    return _hat(A.alpha, A.a, A.n)


def b_hat(B: AsymToeplitz) -> np.ndarray:
    """Right-factor comparison vector in C^l (B is m x l, so l = ``B.m``).

    Reads B's column tail backwards; when the factor is wide (m < l) the
    read-out continues into the row parameters after a structural zero.
    """
    return _hat(B.a, B.alpha, B.m)


def sharp(x, to_dim: int) -> np.ndarray:
    """Truncate or zero-pad a leading-zero vector to ``to_dim`` entries.

    This is multiplication by the rectangular identity.
    """
    x = np.asarray(x, dtype=CDTYPE)
    if x[0] != 0:
        raise ValueError("sharp expects a structural zero at index 0")
    out = np.zeros(to_dim, dtype=CDTYPE)
    k = min(len(x), to_dim)
    out[:k] = x[:k]
    return out


# ---------------------------------------------------------------------------
# rank-one matching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankOneOutcome:
    """How two rank-one outer products x (x) y and xp (x) yp coincide.

    Either both sides vanish (``lam is None``; ``vanished`` names the zero
    vectors among "x", "y", "xp", "yp") or the sides match through a
    nonzero scalar with x = lam * xp and yp = conj(lam) * y.
    """

    lam: complex | None
    vanished: tuple[str, ...] = ()

    @property
    def is_proportional(self) -> bool:
        return self.lam is not None

    @property
    def is_both_zero(self) -> bool:
        return self.lam is None


def rank_one_equal(x, y, xp, yp, tol: Tolerance = DEFAULT_TOL) -> RankOneOutcome | None:
    """Decide whether x (x) y == xp (x) yp without forming either matrix.

    Returns a :class:`RankOneOutcome` when the products coincide, ``None``
    on mismatch.  A vector is zero when no entry exceeds ``tol.atol`` in
    modulus; an empty vector is zero.  When neither side vanishes the scalar
    is extracted at the largest entry of ``xp`` and verified entrywise, with
    the scale of :meth:`Tolerance.allclose`.  O(len x + len y).
    """
    return _rank_one(x, y, xp, yp, tol)


_NAMES = ("x", "y", "xp", "yp")


def _rank_one(x, y, xp, yp, tol: Tolerance,
              lam: complex | None = None) -> RankOneOutcome | None:
    """The rank-one match as one fused pass over the four vectors.

    Without ``lam`` this is :func:`rank_one_equal`.  Given the scalar of a
    proportional outcome it re-checks only x = lam * xp and
    yp = conj(lam) * y.  One modulus and one segmented maximum over the
    concatenated vectors give the zero tests, the pivot and the operand
    scales; a second pair gives the defects and the scaled sides.  The
    thresholds are exactly those of :meth:`Tolerance.is_zero` and
    :meth:`Tolerance.allclose` on the same vectors.
    """
    x = np.asarray(x, dtype=CDTYPE)
    xp = np.asarray(xp, dtype=CDTYPE)
    y = np.asarray(y, dtype=CDTYPE)
    yp = np.asarray(yp, dtype=CDTYPE)
    if x.shape != xp.shape:
        raise DimensionMismatch(f"x and xp lengths differ: {x.shape} vs {xp.shape}")
    if y.shape != yp.shape:
        raise DimensionMismatch(f"y and yp lengths differ: {y.shape} vs {yp.shape}")
    p, q = len(x), len(y)
    if p == 0 or q == 0:
        # reduceat takes no empty segment; with an empty vector both sides vanish
        if lam is None:
            return RankOneOutcome(None, tuple(
                name for name, vec in zip(_NAMES, (x, y, xp, yp)) if tol.is_zero(vec)))
        ok = tol.allclose(x, lam * xp) and tol.allclose(yp, np.conj(lam) * y)
        return RankOneOutcome(lam) if ok else None
    s = p + q
    segments = (0, p, s, s + p)
    # x and yp lead, so that the defects below subtract from one slice
    cat = np.concatenate((x, yp, xp, y))
    mags = np.abs(cat)
    max_x, max_yp, max_xp, max_y = np.maximum.reduceat(mags, segments).tolist()
    if lam is None:
        zero = (max_x <= tol.atol, max_y <= tol.atol, max_xp <= tol.atol, max_yp <= tol.atol)
        lhs_zero = zero[0] or zero[1]
        rhs_zero = zero[2] or zero[3]
        if lhs_zero and rhs_zero:
            return RankOneOutcome(None, tuple(name for name, z in zip(_NAMES, zero) if z))
        if lhs_zero != rhs_zero:
            return None
        pivot = int(mags[s:s + p].argmax())
        lam = complex(x[pivot] / xp[pivot])
    # buf holds the defects (x - lam xp, yp - conj(lam) y), then the scaled sides
    buf = np.empty(2 * s, dtype=CDTYPE)
    scaled = buf[s:]
    np.multiply(lam, xp, out=scaled[:p])
    np.multiply(np.conj(lam), y, out=scaled[p:])
    np.subtract(cat[:s], scaled, out=buf[:s])
    defect_x, defect_y, max_lam_xp, max_lam_y = np.maximum.reduceat(
        np.abs(buf), segments).tolist()
    if (defect_x <= tol.threshold(max(max_x, max_lam_xp))
            and defect_y <= tol.threshold(max(max_yp, max_lam_y))):
        return RankOneOutcome(lam)
    return None


# ---------------------------------------------------------------------------
# the product decision
# ---------------------------------------------------------------------------

def comparison_vectors(A: AsymToeplitz, B: AsymToeplitz):
    """The four vectors whose rank-one match decides Toeplitzness of A B.

    Returns ``(x, y, u, v, regime)``: x is A's column tail, y is B's row
    parameter vector, u and v are the regime comparison vectors.  The
    corner values enter u (at index m) when m < n and v (conjugated, at
    index m) when m < l.
    """
    if A.m != B.n:
        raise DimensionMismatch(
            f"inner dimensions differ: {A.shape} times {B.shape}")
    n, m, l = A.n, A.m, B.m
    regime = classify_regime(n, m, l)
    u = alpha_hat(A)
    if m < n:
        u[m] += A.a0
    v = b_hat(B)
    if m < l:
        v[m] += np.conj(B.a0)
    return A.a, B.alpha, u, v, regime


@dataclass(frozen=True)
class ProductCertificate:
    """Witness that a compact Toeplitz product is itself Toeplitz.

    Records the rank-one identity x (x) y == u (x) v that makes every
    interior displacement entry of the product vanish.  When proportional,
    x = lam * u and v = conj(lam) * y entrywise (this convention is used
    uniformly across regimes).  ``k`` and ``k_prime`` are the block counts
    k*m < n <= (k+1)*m and k'*m < l <= (k'+1)*m.
    """

    regime: Regime
    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    v: np.ndarray
    outcome: RankOneOutcome
    k: int
    k_prime: int

    @property
    def lam(self) -> complex | None:
        return self.outcome.lam

    def verify(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """Re-check the certified equations from the stored vectors alone."""
        check = _rank_one(self.x, self.y, self.u, self.v, tol, self.lam)
        return check is not None and check.is_proportional == self.outcome.is_proportional


def product_is_toeplitz(A: AsymToeplitz, B: AsymToeplitz,
                        tol: Tolerance = DEFAULT_TOL) -> ProductCertificate | None:
    """Decide whether the product A B is Toeplitz, in O(n + m + l).

    Returns a :class:`ProductCertificate` when it is, ``None`` when it is
    not.  Zero factors are accepted (the zero product is Toeplitz) with a
    degenerate certificate.  Agrees with the dense diagonal-constancy
    oracle on the realized product.
    """
    x, y, u, v, regime = comparison_vectors(A, B)
    outcome = rank_one_equal(x, y, u, v, tol)
    if outcome is None:
        return None
    n, m, l = A.n, A.m, B.m
    return ProductCertificate(regime, x, y, u, v, outcome,
                              (n - 1) // m, (l - 1) // m)


# ---------------------------------------------------------------------------
# structured displacement of a product
# ---------------------------------------------------------------------------

def delta_product_structured(A: AsymToeplitz, B: AsymToeplitz) -> np.ndarray:
    """Displacement of A B assembled from the factors, without forming A B.

    Equals ``displacement_dense(to_dense(A) @ to_dense(B))``.  The interior
    is the rank-one difference x (x) y - u (x) v of
    :func:`comparison_vectors`; column 0 is A times B's first column and
    row 0 is A's first row times B, each one direct convolution with the
    factor's diagonal values.  O(n m + m l + n l) time and no factor is
    realized.  Every entry is a sum of products of input entries, so the
    result is exact on Gaussian-integer input whose sums stay below 2**53.
    """
    x, y, u, v, _ = comparison_vectors(A, B)
    out = np.outer(x, np.conj(y)) - np.outer(u, np.conj(v))
    out[:, 0] = np.convolve(A.diagonals(), B.first_col(), "valid")
    out[0, :] = np.convolve(B.diagonals(), A.first_row()[::-1], "valid")[::-1]
    return out
