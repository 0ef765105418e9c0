"""Product-structure certification for compact Toeplitz and Hankel factor pairs.

Whether the product of an n x m and an m x l Toeplitz matrix is again
Toeplitz reduces to one rank-one identity between four vectors read
directly off the factors' parameters: the left column tail, the right row
parameters, and two size-regime comparison vectors.  All four are windows
of the factors' diagonal-value sequences, written by one function, a
factor's two at a time, straight into the one buffer that the rank-one
match reduces; the isometry self-match, :func:`_self_match`, uses the
same writer and match.  The decision runs in O(n + m + l) and returns a
certificate that can be re-verified against its factors and cross-checked
against the dense product.  It builds only what it returns: a rejection
makes no outcome and cuts no view, and a certificate keeps the buffer and
cuts its four vectors from it when one is first read.

Hankel factors reduce to that identity by flips read off the factors'
types.  A compact Hankel matrix is stored as H = C P, with C Toeplitz and
P the exchange matrix of its size.  The flip rot180(C) = P C P reverses
C's diagonal values, so its vectors are C's read through reversed slices
and no flipped factor is built.  A product of two factors of the same kind
is asked to be Toeplitz, of mixed kinds to be Hankel, and a row or column
flip of a matrix is Hankel exactly when the matrix is Toeplitz:

* T B and T (C P) = (T C) P take the identity of (T, B) and of (T, C);
* (C P) B = P rot180(C) B takes that of (rot180(C), B): the left core
  is flipped;
* (C1 P)(C2 P) = C1 rot180(C2) takes that of (C1, rot180(C2)): the right
  core is flipped.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    CDTYPE,
    DEFAULT_TOL,
    AsymHankel,
    AsymToeplitz,
    DimensionMismatch,
    Tolerance,
)

__all__ = [
    "ProductCertificate",
    "RankOneOutcome",
    "Regime",
    "classify_regime",
    "comparison_vectors",
    "product_is_toeplitz",
    "rank_one_equal",
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

def _write_factor(n: int, m: int, a0: complex, a: np.ndarray, alpha: np.ndarray,
                  cat: np.ndarray, t: int, c: int, flip: bool = False) -> None:
    """Write an n x m factor's column tail and comparison vector, zeros included,
    to ``tail = cat[t:t + n]`` and ``hat = cat[c:c + n]``.

    With d the factor's diagonal-value sequence (``AsymToeplitz.diagonals``),
    ``tail`` gets (0, d[m], ..., d[m+n-2]), which is ``a``, and ``hat`` gets
    (0, d[0], ..., d[n-2]): ``alpha`` read backwards and conjugated, then,
    when m < n, the corner ``a0`` at index m and the rest of ``a``.  With
    ``flip`` they are the vectors of P A P (``AsymToeplitz.rot180``), whose
    d is reversed: the two trade places, each reversed behind its zero.
    Passing the adjoint's fields writes a right factor's row parameters and
    comparison vector.  Every entry is written, so ``cat`` may be unfilled;
    each window is written through one view of it.  The corner, hat[m], is
    written as corner + 0j, which turns a negative zero into +0.
    """
    h = (n if n < m else m) - 1
    if flip:
        # a[k] lands at hat[n - k], and entry k of the unflipped hat at
        # tail[n - k], which is cat[end - k + 1]
        end = t + n - 1
        cat[t] = cat[c] = 0j
        cat[c + n - 1:c:-1] = a[1:]
        np.conjugate(alpha[m - 1:m - 1 - h:-1], cat[end:end - h:-1])
        if m < n:
            # the flipped factor's corner, a[n - m]
            cat[c + m] = a[n - m] + 0j
            cat[end - m + 1] = a0
            cat[end - m:t:-1] = a[1:n - m]
    else:
        cat[t:t + n] = a
        cat[c] = 0j
        np.conjugate(alpha[m - 1:m - 1 - h:-1], cat[c + 1:c + 1 + h])
        if m < n:
            cat[c + m] = a0 + 0j
            cat[c + m + 1:c + n] = a[1:n - m]


def _toeplitz_form(M: AsymToeplitz | AsymHankel) -> tuple[AsymToeplitz, bool]:
    """M, or a Hankel M's stored core, and whether M is Hankel; TypeError otherwise."""
    if isinstance(M, AsymToeplitz):
        return M, False
    if isinstance(M, AsymHankel):
        return M.core, True
    raise TypeError(f"expected an AsymToeplitz or AsymHankel, got {type(M).__name__}")


def _comparison_buffer(left: AsymToeplitz | AsymHankel, right: AsymToeplitz | AsymHankel):
    """The buffer ``cat = (x, v, u, y)`` of a product identity and
    ``(n, m, l)``, as ``cat, n, m, l``.

    The identity is that of the Toeplitz pair (A, B) that the module
    docstring reduces the factors to: each factor, or a Hankel factor's
    stored core, flipped where the two kinds require it.  x is A's column
    tail, y is B's row parameter vector, u and v the comparison vectors,
    all written by :func:`_write_factor`: (x, u) from A's fields and (y, v)
    from those of B's adjoint.  The buffer is allocated unfilled and left
    writable; :func:`_views` cuts the four vectors from it.
    """
    A, hankel_left = _toeplitz_form(left)
    B, hankel_right = _toeplitz_form(right)
    n, m, l = A.n, A.m, B.m
    if B.n != m:
        raise DimensionMismatch(
            f"inner dimensions differ: {A.shape} times {B.shape}")
    cat = np.empty(2 * (n + l), dtype=CDTYPE)
    _write_factor(n, m, A.a0, A.a, A.alpha, cat, 0, n + l, hankel_left and not hankel_right)
    _write_factor(l, m, B.a0.conjugate(), B.alpha, B.a, cat, 2 * n + l, n,
                  hankel_left and hankel_right)
    return cat, n, m, l


def _views(cat: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """The read-only views ``(x, y, u, v)`` of a product buffer
    ``cat = (x, v, u, y)`` whose x has length n; the buffer is made read-only."""
    cat.setflags(write=False)
    l = len(cat) // 2 - n
    return cat[:n], cat[2 * n + l:], cat[n + l:2 * n + l], cat[n:n + l]


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

    Returns a :class:`RankOneOutcome` if the products coincide, ``None`` if
    not, in O(len x + len y).  A 1-D vector, empty or not, is zero when no
    entry exceeds ``tol.tau``.  If neither side vanishes, lam is read at
    xp's largest entry and checked within ``tol`` of each equation's scale.
    """
    x, y, xp, yp = vecs = [np.asarray(vec, dtype=CDTYPE) for vec in (x, y, xp, yp)]
    if any(vec.ndim != 1 for vec in vecs):
        raise DimensionMismatch(f"vectors must be 1-D, got shapes {[v.shape for v in vecs]}")
    if x.shape != xp.shape:
        raise DimensionMismatch(f"x and xp lengths differ: {x.shape} vs {xp.shape}")
    if y.shape != yp.shape:
        raise DimensionMismatch(f"y and yp lengths differ: {y.shape} vs {yp.shape}")
    zero = np.zeros(1, dtype=CDTYPE)
    # each vector behind one zero, as every comparison vector is, changes no
    # maximum, pivot or defect and leaves no segment empty; x and yp lead, so
    # that the defects subtract from one slice
    return _match(np.concatenate((zero, x, zero, yp, zero, xp, zero, y)),
                  len(x) + 1, len(y) + 1, tol)


def _match(cat: np.ndarray, p: int, q: int, tol: Tolerance) -> RankOneOutcome | None:
    """The rank-one match as one fused pass over ``cat = (x, yp, xp, y)``.

    x and xp have length p >= 1, y and yp length q >= 1.  One modulus and
    one segmented maximum give the zero tests, the pivot and the operand
    scales; a second pair, over half as many entries, gives the defects,
    whose moduli overwrite the first half of the first.  A vector is zero
    when no modulus exceeds ``tol.tau``; a defect passes within
    ``tol.threshold`` of its equation's scale.  A scaled side's scale is
    |lam| max|xp| (and |lam| max|y|), which differs from max|lam xp_i| only
    by rounding, so the verdict can differ from that of separate reductions
    only for a defect within a few ulps of its threshold.

    A self pair (xp, y) = (yp, x), with p == q, may pass its first half
    ``cat = (x, yp)`` alone: (xp, y) is then read as that half swapped,
    which gives the outcome, lam and defects of the full buffer bit for bit.
    lam = x_p / xp_p + 0j has +0 zero parts.
    """
    s = p + q
    mags = np.abs(cat)
    if len(cat) == s:
        xp, y, mags_xp = cat[p:], cat[:p], mags[p:]
        max_x, max_yp = np.maximum.reduceat(mags, (0, p)).tolist()
        max_xp, max_y = max_yp, max_x
    else:
        xp, y, mags_xp = cat[s:s + p], cat[s + p:], mags[s:s + p]
        max_x, max_yp, max_xp, max_y = np.maximum.reduceat(mags, (0, p, s, s + p)).tolist()
    tau = tol.tau
    zero = (max_x <= tau, max_y <= tau, max_xp <= tau, max_yp <= tau)
    lhs_zero = zero[0] or zero[1]
    rhs_zero = zero[2] or zero[3]
    if lhs_zero and rhs_zero:
        # filled in as product_is_toeplitz fills a certificate, with no
        # frozen-dataclass __init__
        outcome = object.__new__(RankOneOutcome)
        outcome.__dict__.update(
            lam=None, vanished=tuple(name for name, z in zip(("x", "y", "xp", "yp"), zero) if z))
        return outcome
    if lhs_zero != rhs_zero:
        return None
    pivot = mags_xp.argmax()
    lam = complex(cat[pivot] / xp[pivot]) + 0j
    # buf holds the scaled sides (lam xp, conj(lam) y), then the defects
    # (x - lam xp, yp - conj(lam) y) in their place
    buf = np.empty(s, dtype=CDTYPE)
    np.multiply(lam, xp, buf[:p])
    np.multiply(lam.conjugate(), y, buf[p:])
    np.subtract(cat[:s], buf, buf)
    defect_x, defect_y = np.maximum.reduceat(np.abs(buf, mags[:s]), (0, p)).tolist()
    # Tolerance.threshold of max(max_x, |lam| max_xp) and of
    # max(max_yp, |lam| max_y), inline; max(a, b) is spelled b if b > a
    # else a, which picks the same operand without a call
    scale = abs(lam)
    scaled_xp, scaled_y = scale * max_xp, scale * max_y
    if (defect_x <= tau + tau * (scaled_xp if scaled_xp > max_x else max_x)
            and defect_y <= tau + tau * (scaled_y if scaled_y > max_yp else max_yp)):
        outcome = object.__new__(RankOneOutcome)
        outcome.__dict__.update(lam=lam, vanished=())
        return outcome
    return None


def _self_match(A: AsymToeplitz, tol: Tolerance) -> tuple[RankOneOutcome | None, np.ndarray]:
    """The match of the pair (A*, A), made on the half (alpha, w) of its self
    pair buffer (alpha, w, w, alpha), and an owned copy of w."""
    n, m = A.n, A.m
    cat = np.empty(2 * m, dtype=CDTYPE)
    _write_factor(m, n, A.a0.conjugate(), A.alpha, A.a, cat, 0, m)
    return _match(cat, m, m, tol), cat[m:].copy()


# ---------------------------------------------------------------------------
# the product decision
# ---------------------------------------------------------------------------

def comparison_vectors(A: AsymToeplitz | AsymHankel, B: AsymToeplitz | AsymHankel):
    """The four vectors whose rank-one match decides the product A B.

    Returns ``(x, y, u, v, regime)``, read-only views of the buffer that
    :func:`product_is_toeplitz` matches.  For Toeplitz A and B, each vector
    is a window of its factor's diagonal values d (``AsymToeplitz.diagonals``,
    length rows + columns - 1) behind a structural zero:

    * x = (0, d_A[m], ..., d_A[m+n-2]), A's column tail;
    * u = (0, d_A[0], ..., d_A[n-2]);
    * y = (0, conj d_B[l-2], ..., conj d_B[0]), B's row parameter vector;
    * v = (0, conj d_B[m+l-2], ..., conj d_B[m]).

    So u holds A's corner d_A[m-1] at index m when m < n, and v B's
    conjugated corner d_B[l-1] at index m when m < l.  The flip P A P of a
    factor reverses d, so its x and u are A's u and x with their tails
    reversed (and likewise y and v): Hankel factors give the vectors of
    their stored cores, flipped as the module docstring says.
    """
    cat, n, m, l = _comparison_buffer(A, B)
    return (*_views(cat, n), classify_regime(n, m, l))


_VECTORS = ("x", "y", "u", "v")


@dataclass(frozen=True, eq=False)
class ProductCertificate:
    """Witness that a product of compact factors keeps structure.

    Records the rank-one identity x (x) y == u (x) v that makes every
    interior displacement entry of the flip-reduced Toeplitz pair's product
    vanish.  When proportional, x = lam * u and v = conj(lam) * y entrywise
    (this convention is used uniformly across regimes).  ``k`` and
    ``k_prime`` are the block counts k*m < n <= (k+1)*m and
    k'*m < l <= (k'+1)*m.

    A certificate that :func:`product_is_toeplitz` returns holds the one
    buffer its decision matched, and x, y, u and v are read-only views of
    it, cut together when any of them is first read; a copy or a pickle
    cuts them first, so it carries the four fields as the constructor sets
    them.  Two certificates are equal, and hash alike, when they record the
    same bits, as :meth:`verify` compares them: regime, block counts,
    vanished names, lam and each vector's dtype, shape and bytes.
    """

    regime: Regime
    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    v: np.ndarray
    outcome: RankOneOutcome
    k: int
    k_prime: int

    def __getattr__(self, name: str):
        # reached only for a name missing from __dict__: a vector of a
        # certificate whose buffer is still uncut
        state = self.__dict__
        if name in _VECTORS and "_buffer" in state:
            state.update(zip(_VECTORS, _views(*state["_buffer"])))
            state.pop("_buffer", None)
            return state[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def __getstate__(self) -> dict:
        self.x  # cuts an uncut buffer's vectors
        return self.__dict__

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProductCertificate):
            return NotImplemented
        return _recorded(self) == _recorded(other)

    def __hash__(self) -> int:
        return hash(_recorded(self))

    @property
    def lam(self) -> complex | None:
        return self.outcome.lam

    def verify(self, left: AsymToeplitz | AsymHankel, right: AsymToeplitz | AsymHankel,
               tol: Tolerance = DEFAULT_TOL) -> bool:
        """Re-decide the product of ``left`` and ``right``: True exactly when
        :func:`product_is_toeplitz` gives this certificate bit for bit."""
        cert = product_is_toeplitz(left, right, tol)
        return cert is not None and _recorded(cert) == _recorded(self)


def _recorded(c: ProductCertificate) -> tuple:
    # lam by repr, which tells apart any two floats but NaNs; no accepted lam is NaN
    return (c.regime, c.k, c.k_prime, c.outcome.vanished, repr(c.lam),
            *((v.dtype, v.shape, v.tobytes()) for v in (c.x, c.y, c.u, c.v)))


def product_is_toeplitz(left: AsymToeplitz | AsymHankel, right: AsymToeplitz | AsymHankel,
                        tol: Tolerance = DEFAULT_TOL) -> ProductCertificate | None:
    """Decide whether the product of two compact factors keeps structure, in O(n + m + l).

    Each factor is an :class:`AsymToeplitz` or an :class:`AsymHankel`.  The
    product of two factors of the same kind is asked to be Toeplitz, of
    mixed kinds to be Hankel, through the flips of the module docstring.
    Returns a :class:`ProductCertificate` of the flip-reduced pair when it
    is, ``None`` when it is not; its vectors are read-only views of one
    buffer, cut when one of them is first read.  Zero factors are accepted
    (the zero product is structured) with a degenerate certificate.  Agrees
    with the dense oracle on the realized product.
    """
    cat, n, m, l = _comparison_buffer(left, right)
    outcome = _match(cat, n, l, tol)
    if outcome is None:
        return None
    # built as AsymToeplitz._trusted builds a matrix, skipping the frozen
    # dataclass's __init__, which sets each field through object.__setattr__;
    # x, y, u and v are cut from the buffer when first read
    cert = object.__new__(ProductCertificate)
    cert.__dict__.update(regime=classify_regime(n, m, l), outcome=outcome,
                         k=(n - 1) // m, k_prime=(l - 1) // m, _buffer=(cat, n))
    return cert
