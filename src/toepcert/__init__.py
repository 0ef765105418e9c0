"""Compact rectangular Toeplitz/Hankel matrices with certified product and
isometry structure checks.

The structured predicates run in linear time in the dimensions and every
decision can be cross-validated against a dense brute-force oracle.  The
package root exports the representations, errors, decisions with their
certificates, dense oracles, generators and file I/O; building blocks such
as ``product.comparison_vectors`` or ``isometry.isometry_residual`` live in
their modules.
"""

from .core import (
    DEFAULT_TOL,
    AsymHankel,
    AsymToeplitz,
    DimensionMismatch,
    StructureError,
    Tolerance,
    dense_is_hankel,
    dense_is_toeplitz,
    dense_mul,
    flip_cols,
    flip_rows_of,
)
from .displacement import displacement_dense
from .families import (
    DEGENERATE_FORMS,
    FamilySpec,
    SpecificationError,
    gen_degenerate,
    gen_pair,
    perturb_to_break,
    random_toeplitz,
)
from .hankel import product_structure
from .io import MatrixFileError, load_matrix, save_matrix
from .isometry import IsometryCertificate, is_isometry
from .product import (
    ProductCertificate,
    RankOneOutcome,
    Regime,
    classify_regime,
    product_is_toeplitz,
)

__all__ = [
    "DEFAULT_TOL",
    "DEGENERATE_FORMS",
    "AsymHankel",
    "AsymToeplitz",
    "DimensionMismatch",
    "FamilySpec",
    "IsometryCertificate",
    "MatrixFileError",
    "ProductCertificate",
    "RankOneOutcome",
    "Regime",
    "SpecificationError",
    "StructureError",
    "Tolerance",
    "classify_regime",
    "dense_is_hankel",
    "dense_is_toeplitz",
    "dense_mul",
    "displacement_dense",
    "flip_cols",
    "flip_rows_of",
    "gen_degenerate",
    "gen_pair",
    "is_isometry",
    "load_matrix",
    "perturb_to_break",
    "product_is_toeplitz",
    "product_structure",
    "random_toeplitz",
    "save_matrix",
]

__version__ = "0.1.0"
