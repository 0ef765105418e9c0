"""The Hankel product names kept beside :func:`~toepcert.product.product_is_toeplitz`.

:func:`~toepcert.product.product_is_toeplitz` decides any pair of compact
Toeplitz/Hankel factor kinds.  The two Hankel decisions stay as one-line
calls to it because the benchmark calls and traces them by these names,
and :func:`product_structure` adds the kind label that the command line
reports.
"""

from __future__ import annotations

from .core import DEFAULT_TOL, AsymHankel, AsymToeplitz, Tolerance
from .product import ProductCertificate, product_is_toeplitz

__all__ = ["hankel_product_is_toeplitz", "hankel_times_toeplitz_is_hankel",
           "product_structure"]


def hankel_product_is_toeplitz(H1: AsymHankel, H2: AsymHankel,
                               tol: Tolerance = DEFAULT_TOL) -> ProductCertificate | None:
    """Decide whether the product of two Hankel matrices is Toeplitz."""
    return product_is_toeplitz(H1, H2, tol)


def hankel_times_toeplitz_is_hankel(H: AsymHankel, B: AsymToeplitz,
                                    tol: Tolerance = DEFAULT_TOL) -> ProductCertificate | None:
    """Decide whether a Hankel-times-Toeplitz product is Hankel."""
    return product_is_toeplitz(H, B, tol)


def product_structure(left: AsymToeplitz | AsymHankel, right: AsymToeplitz | AsymHankel,
                      tol: Tolerance = DEFAULT_TOL) -> tuple[str, ProductCertificate | None]:
    """Decide a product of compact factors, with the name of the structure asked.

    Returns ``(kind, product_is_toeplitz(left, right, tol))``: ``kind`` is
    "toeplitz" for factors of the same kind and "hankel" for mixed kinds.
    """
    mixed = isinstance(left, AsymHankel) != isinstance(right, AsymHankel)
    return ("hankel" if mixed else "toeplitz"), product_is_toeplitz(left, right, tol)
