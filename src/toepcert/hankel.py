"""The Hankel product names kept beside :func:`~toepcert.product.product_is_toeplitz`.

:func:`~toepcert.product.product_is_toeplitz` decides any pair of compact
Toeplitz/Hankel factor kinds, and the package calls it directly.  The two
names here are one-line calls to it that exist only for the benchmark
(``bench/``), which calls and traces the H·H and H·T decisions by them.
"""

from __future__ import annotations

from .core import DEFAULT_TOL, AsymHankel, AsymToeplitz, Tolerance
from .product import ProductCertificate, product_is_toeplitz

__all__ = ["hankel_product_is_toeplitz", "hankel_times_toeplitz_is_hankel"]


def hankel_product_is_toeplitz(H1: AsymHankel, H2: AsymHankel,
                               tol: Tolerance = DEFAULT_TOL) -> ProductCertificate | None:
    """Decide whether the product of two Hankel matrices is Toeplitz."""
    return product_is_toeplitz(H1, H2, tol)


def hankel_times_toeplitz_is_hankel(H: AsymHankel, B: AsymToeplitz,
                                    tol: Tolerance = DEFAULT_TOL) -> ProductCertificate | None:
    """Decide whether a Hankel-times-Toeplitz product is Hankel."""
    return product_is_toeplitz(H, B, tol)
