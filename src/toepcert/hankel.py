"""The Hankel product names kept beside :func:`~toepcert.product.product_is_toeplitz`.

:func:`~toepcert.product.product_is_toeplitz` decides any pair of compact
Toeplitz/Hankel factor kinds, and the package calls it directly.  The two
names here exist only for the benchmark (``bench/``), which calls and
traces the H·H and H·T decisions by them with the two factors alone.  Each
calls this module's ``product_is_toeplitz`` once, at the default tolerance.
"""

from __future__ import annotations

from .core import AsymHankel, AsymToeplitz
from .product import ProductCertificate, product_is_toeplitz

__all__ = ["hankel_product_is_toeplitz", "hankel_times_toeplitz_is_hankel"]


def hankel_product_is_toeplitz(H1: AsymHankel, H2: AsymHankel) -> ProductCertificate | None:
    """Decide whether the product of two Hankel matrices is Toeplitz."""
    return product_is_toeplitz(H1, H2)


def hankel_times_toeplitz_is_hankel(H: AsymHankel,
                                    B: AsymToeplitz) -> ProductCertificate | None:
    """Decide whether a Hankel-times-Toeplitz product is Hankel."""
    return product_is_toeplitz(H, B)
