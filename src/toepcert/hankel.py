"""Product-structure decisions for Hankel factors, by flip reduction.

Every compact Hankel matrix is a flipped Toeplitz matrix and the flip is
an involution, so Hankel product questions reduce to the Toeplitz product
identity, which also checks the inner dimensions.  A Hankel factor stored
as H = C P_m has the row-flip decomposition H = P_n A with A = P_n C P_m,
whose diagonal values are C's in reverse order.  So the decisions read
the stored core C through reversed slices: A's column tail and comparison
vector are C's comparison vector and column tail, reversed behind their
structural zeros, and no flipped core is built.
:func:`product_structure` decides any pair of Toeplitz/Hankel factor kinds.
"""

from __future__ import annotations

from .core import DEFAULT_TOL, AsymHankel, AsymToeplitz, Tolerance
from .product import ProductCertificate, _certify, product_is_toeplitz

__all__ = ["hankel_product_is_toeplitz", "hankel_times_toeplitz_is_hankel",
           "product_structure"]


def hankel_product_is_toeplitz(H1: AsymHankel, H2: AsymHankel,
                               tol: Tolerance = DEFAULT_TOL) -> ProductCertificate | None:
    """Decide whether the product of two Hankel matrices is Toeplitz.

    With H1 = A P_m (stored core) and H2 = P_m B (row-flip core), the inner
    flips cancel: H1 H2 = A B, so the Toeplitz identity of (A, B) decides.
    """
    return _certify(H1.core, H2.core, tol, flip_right=True)


def hankel_times_toeplitz_is_hankel(H: AsymHankel, B: AsymToeplitz,
                                    tol: Tolerance = DEFAULT_TOL) -> ProductCertificate | None:
    """Decide whether a Hankel-times-Toeplitz product is Hankel.

    With H = P_n A (row-flip core), H B = P_n (A B) is a row flip of the
    Toeplitz-or-not product, so H B is Hankel exactly when A B is Toeplitz.
    """
    return _certify(H.core, B, tol, flip_left=True)


def product_structure(left: AsymToeplitz | AsymHankel, right: AsymToeplitz | AsymHankel,
                      tol: Tolerance = DEFAULT_TOL) -> tuple[str, ProductCertificate | None]:
    """Decide whether a product of compact Toeplitz/Hankel factors keeps structure.

    Returns ``(kind, certificate)``.  The product of two factors of the
    same kind is asked to be Toeplitz (``kind == "toeplitz"``), of mixed
    kinds to be Hankel (``kind == "hankel"``); the certificate is ``None``
    when it is not.
    """
    if isinstance(left, AsymHankel):
        if isinstance(right, AsymHankel):
            return "toeplitz", hankel_product_is_toeplitz(left, right, tol)
        return "hankel", hankel_times_toeplitz_is_hankel(left, right, tol)
    if isinstance(right, AsymHankel):
        # A (C P_l) = (A C) P_l is Hankel exactly when A C is Toeplitz
        return "hankel", product_is_toeplitz(left, right.core, tol)
    return "toeplitz", product_is_toeplitz(left, right, tol)
