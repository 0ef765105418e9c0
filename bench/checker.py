"""Independent checker: every expected answer, established apart from toepcert.

Nothing here imports ``toepcert``.  Matrices are described by their literal
entries only:

* :class:`Toep` -- first column ``c`` and first row ``r`` (shared corner);
* :class:`Hank` -- a Hankel matrix ``H = T P`` held as the Toeplitz ``T``
  whose column flip it is (``H[i, j] = T[i, m - 1 - j]``).

Small products are realized with ``scipy.linalg.toeplitz`` and NumPy and
scanned diagonal by diagonal.  Where the dense product would be too large,
the interior displacement of the product is probed with random vectors
through ``scipy.linalg.matmul_toeplitz``: ``D z`` is computed as two
shifted product-vector products, and ``D`` is zero exactly when ``D z`` is
zero for almost every ``z``.  Isometries are known by construction and
confirmed by an ``||A z|| = ||z||`` probe.  Inputs are Gaussian integers
(or dyadic fractions of them), so the dense scans are exact and the probes
separate yes from no by many orders of magnitude.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import matmul_toeplitz, toeplitz

__all__ = [
    "CheckerError",
    "Hank",
    "Toep",
    "dense",
    "displacement",
    "from_program",
    "is_hankel_dense",
    "is_isometry",
    "is_toeplitz_dense",
    "product_has_structure",
    "read_file",
]

# above this many multiply-adds the product is probed instead of realized
DENSE_LIMIT = 64 ** 3 * 8
# relative size of D z below which the displacement counts as zero, and
# above which it counts as nonzero; anything between is an error
PROBE_ZERO = 1e-10
PROBE_NONZERO = 1e-6
PROBES = 2


class CheckerError(RuntimeError):
    """The checker could not settle an expected answer."""


@dataclass(frozen=True)
class Toep:
    c: np.ndarray
    r: np.ndarray

    @property
    def shape(self):
        return len(self.c), len(self.r)


@dataclass(frozen=True)
class Hank:
    core: Toep

    @property
    def shape(self):
        return self.core.shape


def from_program(obj) -> Toep | Hank:
    """Literal entries of a toepcert ``AsymToeplitz`` or ``AsymHankel``.

    Reads the stored fields only (corner, column tail, conjugated row
    parameters); calls no toepcert code.
    """
    if hasattr(obj, "core"):
        return Hank(from_program(obj.core))
    c = np.array(obj.a, dtype=complex)
    c[0] = obj.a0
    r = np.conj(np.array(obj.alpha, dtype=complex))
    r[0] = obj.a0
    return Toep(c, r)


def read_file(path) -> Toep | Hank | np.ndarray:
    """Parse a matrix file with the standard ``json`` module."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))

    def entries(key):
        return np.array([complex(re, im) for re, im in doc[key]], dtype=complex)

    if doc["kind"] == "toeplitz":
        return Toep(entries("first_col"), entries("first_row"))
    if doc["kind"] == "hankel":
        # H[i, j] = T[i, m - 1 - j]: T's first column is H's last column and
        # T's first row is H's first row reversed
        return Hank(Toep(entries("last_col"), entries("first_row")[::-1]))
    return entries("data").reshape(doc["rows"], doc["cols"])


def dense(M) -> np.ndarray:
    if isinstance(M, np.ndarray):
        return M
    if isinstance(M, Hank):
        return dense(M.core)[:, ::-1]
    return toeplitz(M.c, M.r)


def matvec(M, z: np.ndarray) -> np.ndarray:
    if isinstance(M, Hank):
        return matvec(M.core, z[::-1])
    return matmul_toeplitz((M.c, M.r), z)


def is_toeplitz_dense(P: np.ndarray) -> bool:
    """Exact scan: every entry equals its up-left neighbour."""
    return bool(np.all(P[1:, 1:] == P[:-1, :-1]))


def is_hankel_dense(P: np.ndarray) -> bool:
    """Exact scan: every entry equals its up-right neighbour."""
    return bool(np.all(P[1:, :-1] == P[:-1, 1:]))


def displacement(P: np.ndarray) -> np.ndarray:
    out = P.copy()
    out[1:, 1:] -= P[:-1, :-1]
    return out


def _gaussian(rng, count: int) -> np.ndarray:
    return rng.standard_normal(count) + 1j * rng.standard_normal(count)


def product_has_structure(left, right, structure: str, seed: int = 0) -> bool:
    """Whether ``left @ right`` is Toeplitz (``structure="toeplitz"``) or Hankel."""
    n, m = left.shape
    m2, l = right.shape
    if m != m2:
        raise CheckerError(f"inner dimensions differ: {left.shape} x {right.shape}")
    if min(n, l) == 1:
        return True
    if n * m * l <= DENSE_LIMIT:
        P = dense(left) @ dense(right)
        return is_toeplitz_dense(P) if structure == "toeplitz" else is_hankel_dense(P)
    # D = P[1:, 1:] - P[:-1, :-1] (Toeplitz) or P[1:, :-1] - P[:-1, 1:]
    # (Hankel); D z is two products P z' with z' the probe padded on
    # either side
    rng = np.random.default_rng(seed)
    for _ in range(PROBES):
        z = _gaussian(rng, l - 1)
        lead = np.concatenate([[0], z])
        trail = np.concatenate([z, [0]])
        first, second = (lead, trail) if structure == "toeplitz" else (trail, lead)
        p1 = matvec(left, matvec(right, first))
        p2 = matvec(left, matvec(right, second))
        defect = np.max(np.abs(p1[1:] - p2[:-1]))
        scale = max(np.max(np.abs(p1)), np.max(np.abs(p2)), 1.0)
        if defect > PROBE_NONZERO * scale:
            return False
        if defect > PROBE_ZERO * scale:
            raise CheckerError(f"inconclusive displacement probe: {defect / scale:.3g}")
    return True


def is_isometry(M, constructed: bool, seed: int = 0) -> bool:
    """Confirm a constructed isometry verdict by an ``||M z|| = ||z||`` probe.

    A matrix with ``M* M != I`` changes the norm of almost every ``z``.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(PROBES):
        z = _gaussian(rng, M.shape[1])
        worst = max(worst, abs(np.linalg.norm(matvec(M, z)) / np.linalg.norm(z) - 1.0))
    if (worst <= PROBE_NONZERO) != constructed:
        raise CheckerError(
            f"construction says isometry={constructed}, probe gives "
            f"| |Mz|/|z| - 1 | = {worst!r}")
    return constructed
