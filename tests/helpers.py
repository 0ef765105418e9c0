"""Shared oracle builders for the test suite.

These construct the dense operator algebra straight on numpy so the
structured closed forms under test are checked against an independent
route.
"""

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, strategies as st

import toepcert as tc
from toepcert import cli
from toepcert.core import CDTYPE, as_dense
from toepcert.families import SpecificationError, _fill
from toepcert.io import MatrixFileError, parse_matrix
from toepcert.product import (
    ProductCertificate,
    RankOneOutcome,
    classify_regime,
    comparison_vectors,
)

EXACT = tc.Tolerance(0.0)
# exact, default, and two powers of two on either side of it
TOLS = (EXACT, tc.DEFAULT_TOL, tc.Tolerance(2.0**-30), tc.Tolerance(2.0**-20))


def dense_shift(k: int) -> np.ndarray:
    return np.eye(k, k=-1, dtype=complex)


def dense_eye(n: int, m: int) -> np.ndarray:
    return np.eye(n, m, dtype=complex)


def dense_flip(k: int) -> np.ndarray:
    return np.fliplr(np.eye(k, dtype=complex))


def basis(i: int, dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


def outer(x, y) -> np.ndarray:
    return np.outer(np.asarray(x, dtype=complex), np.conj(np.asarray(y, dtype=complex)))


def displacement_interior(A: tc.AsymToeplitz, B: tc.AsymToeplitz) -> np.ndarray:
    """The interior of the displacement of A B, by the paper's product identity.

    ``(x (x) conj y - u (x) conj v)[1:, 1:]`` for the vectors of
    ``product.comparison_vectors``: entry (i, j) is
    ``(A B)[i + 1, j + 1] - (A B)[i, j]``, and no factor is realized.
    """
    x, y, u, v, _ = comparison_vectors(A, B)
    return (outer(x, y) - outer(u, v))[1:, 1:]


def corner_free_dense(A: tc.AsymToeplitz) -> np.ndarray:
    """Dense realization of A minus its corner times the rectangular identity."""
    return A.to_dense() - A.a0 * dense_eye(A.n, A.m)


def unit_isometry_dense() -> np.ndarray:
    """The 3x2 matrix with orthonormal columns used as a worked example."""
    s7 = np.sqrt(7.0)
    return np.array([
        [0.5j, 0.25 - (s7 / 4) * 1j],
        [0.5, 0.5j],
        [s7 / 4 + 0.25j, 0.5],
    ])


def product_example_dense() -> tuple[np.ndarray, np.ndarray]:
    """The worked 4x5 / 5x3 factor pair, instantiated with
    a=1, b=2, c=3, d=4, e=5 and scalar 2 (all real)."""
    A = np.array([
        [1, 2, 2, 4, 6],
        [3, 1, 2, 2, 4],
        [2, 3, 1, 2, 2],
        [1, 2, 3, 1, 2],
    ], dtype=complex)
    B = np.array([
        [3, 10, 8],
        [4, 3, 10],
        [5, 4, 3],
        [4, 5, 4],
        [5, 4, 5],
    ], dtype=complex)
    return A, B


def nonzero_fill(rng: np.random.Generator, count: int) -> np.ndarray:
    """Gaussian-integer entries in [-5, 5] with zeros remapped to 1."""
    out = (rng.integers(-5, 6, size=count)
           + 1j * rng.integers(-5, 6, size=count)).astype(complex)
    out[out == 0] = 1.0
    return out


def dense_isometry_residual(A: tc.AsymToeplitz) -> np.ndarray:
    """First-row defect vector of A* A - I_m from the dense corner-free part."""
    A0 = replace(A, a0=0.0).to_dense()
    r = (A0.conj().T @ A.a
         + np.conj(A.a0) * (dense_eye(A.m, A.n) @ A.a)
         + A.a0 * A.alpha)
    r[0] += (abs(A.a0) ** 2 - float(np.sum(np.abs(A.a) ** 2)) - 1.0) / 2.0
    return r


def gaussian_toeplitz(n: int, m: int, seed: int, scale_exp: int = 0) -> tc.AsymToeplitz:
    """Complex Gaussian parameters times 2**scale_exp."""
    re, im = np.ldexp(np.random.default_rng(seed).standard_normal((2, n + m - 1)),
                      scale_exp)
    vals = re + 1j * im
    return tc.AsymToeplitz(n, m, vals[0], np.concatenate([[0], vals[1:n]]),
                           np.concatenate([[0], vals[n:]]))


# 1 x 1, a single row and column, wide and tall, an FFT length n + m - 1
# that is 5-smooth (64) and ones that are not (79, 97 and 190)
CORNER_SHAPES = ((1, 1), (1, 7), (7, 1), (1, 2), (2, 1), (3, 14), (14, 3),
                 (33, 32), (50, 30), (2, 96), (96, 95))


def with_shapes(test):
    """Draw (n, m, seed, scale_exp) over 1..96, with each corner shape as an example."""
    for n, m in CORNER_SHAPES:
        test = example(n, m, 0, 0)(test)
    return given(st.integers(1, 96), st.integers(1, 96),
                 st.integers(0, 2**32 - 1), st.integers(-40, 40))(test)


def lam_bits(lam):
    """The bytes of a certificate scalar, ``None`` for a degenerate outcome."""
    return None if lam is None else np.complex128(lam).tobytes()


def is_zero(tol, values) -> bool:
    """Whether every entry has modulus at most ``tol.tau``; an empty vector is zero."""
    values = np.asarray(values, dtype=complex)
    if values.size == 0:
        return True
    return bool(np.max(np.abs(values)) <= tol.tau)


def allclose(tol, x, y) -> bool:
    """Entrywise closeness, scaled by the largest entry of either side."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != y.shape:
        raise tc.DimensionMismatch(f"cannot compare shapes {x.shape} and {y.shape}")
    if x.size == 0:
        return True
    scale = float(max(np.max(np.abs(x)), np.max(np.abs(y))))
    return bool(np.max(np.abs(x - y)) <= tol.threshold(scale))


def reference_rank_one_equal(x, y, xp, yp, tol=tc.DEFAULT_TOL):
    """The rank-one match as separate reductions, one per tolerance test.

    The multi-reduction form of ``product.rank_one_equal``, with the zero
    and closeness tests of :func:`is_zero` and :func:`allclose`; the fused
    pass must give the same outcome, the same ``lam`` bit for bit and the
    same ``vanished`` names.
    """
    x, y, xp, yp = (np.asarray(v, dtype=complex) for v in (x, y, xp, yp))
    lhs_zero = is_zero(tol, x) or is_zero(tol, y)
    rhs_zero = is_zero(tol, xp) or is_zero(tol, yp)
    if lhs_zero and rhs_zero:
        vanished = tuple(name for name, vec in
                         (("x", x), ("y", y), ("xp", xp), ("yp", yp))
                         if is_zero(tol, vec))
        return RankOneOutcome(None, vanished)
    if lhs_zero != rhs_zero:
        return None
    pivot = int(np.argmax(np.abs(xp)))
    # +0j makes a zero part +0, as the fused pass reports it
    lam = complex(x[pivot] / xp[pivot]) + 0j
    if allclose(tol, x, lam * xp) and allclose(tol, yp, np.conj(lam) * y):
        return RankOneOutcome(lam)
    return None


def _reference_hat(primary, continuation, out_dim: int) -> np.ndarray:
    """Reversed-conjugate read-out of trailing parameters, shifted by one."""
    p = len(primary)
    out = np.zeros(out_dim, dtype=complex)
    head = min(out_dim, p)
    if head > 1:
        out[1:head] = np.conj(primary[p - 1:p - head:-1])
    if out_dim > p + 1:
        out[p + 1:] = continuation[1:out_dim - p]
    return out


def reference_comparison_vectors(A: tc.AsymToeplitz, B: tc.AsymToeplitz):
    """``product.comparison_vectors`` with each vector built on its own.

    x and y are the factors' own fields; u and v are zero vectors filled
    from the parameters, with the corner added to the zero at index m.
    """
    n, m, l = A.n, A.m, B.m
    u = _reference_hat(A.alpha, A.a, n)
    if m < n:
        u[m] += A.a0
    v = _reference_hat(B.a, B.alpha, l)
    if m < l:
        v[m] += np.conj(B.a0)
    return A.a, B.alpha, u, v, classify_regime(n, m, l)


def factors_of(kinds, A, B):
    """The factor pair of the given kinds ("TT", "HH", "HT" or "TH") whose
    decision is that of A B."""
    return {"TT": (A, B),
            "HH": (tc.flip_cols(A), tc.flip_rows_of(B)),
            "HT": (tc.flip_rows_of(A), B),
            "TH": (A, tc.flip_cols(B))}[kinds]


def reference_product_structure(left, right, tol=tc.DEFAULT_TOL):
    """The structure asked of a product and its certificate, through built flipped cores.

    Returns ``(kind, certificate)``: ``kind`` is "toeplitz" for factors of
    the same kind and "hankel" for mixed kinds, as the command line
    reports it.  A Hankel factor's row-flip core is built as its stored
    core's ``rot180``, the four vectors come from
    :func:`reference_comparison_vectors` and the match from
    :func:`reference_rank_one_equal`.  ``product_is_toeplitz`` must give
    the same certificate, vectors and scalar bit for bit.
    """
    if isinstance(left, tc.AsymHankel):
        if isinstance(right, tc.AsymHankel):
            kind, A, B = "toeplitz", left.core, right.core.rot180()
        else:
            kind, A, B = "hankel", left.core.rot180(), right
    elif isinstance(right, tc.AsymHankel):
        kind, A, B = "hankel", left, right.core
    else:
        kind, A, B = "toeplitz", left, right
    x, y, u, v, regime = reference_comparison_vectors(A, B)
    outcome = reference_rank_one_equal(x, y, u, v, tol)
    if outcome is None:
        return kind, None
    n, m, l = A.n, A.m, B.m
    return kind, ProductCertificate(regime, x, y, u, v, outcome, (n - 1) // m, (l - 1) // m)


def reference_isometry_residual(A: tc.AsymToeplitz) -> np.ndarray:
    """``isometry.isometry_residual`` padded to the next power of two.

    The adjoint's diagonal values come from ``A.adjoint().diagonals()``
    with the corner zeroed, and ``np.fft.fft`` pads them, so both the
    FFT input and its length differ from the library's.
    """
    n, m = A.n, A.m
    h = A.adjoint().diagonals()
    h[n - 1] = 0.0
    size = 1 << int(n + m - 2).bit_length()
    conv = np.fft.ifft(np.fft.fft(h, size) * np.fft.fft(A.a, size))
    tail_norm_sq = float(np.sum(np.abs(A.a) ** 2))
    # the rectangular identity's part: conj(a0) times a, cut or padded to m
    head = np.zeros(m, dtype=complex)
    head[:min(n, m)] = A.a[:min(n, m)]
    r = conv[n - 1:n + m - 1] + np.conj(A.a0) * head + A.a0 * A.alpha
    r[0] += (abs(A.a0) ** 2 - tail_norm_sq - 1.0) / 2.0
    return r


def full_self_pair_buffer(A: tc.AsymToeplitz) -> np.ndarray:
    """The product buffer ``(alpha, w, w, alpha)`` of the pair (A*, A).

    The four vectors ``(x, v, u, y)`` of :func:`reference_comparison_vectors`
    in the layout ``product._match`` reads, which the isometry self-match
    once matched whole; its first half ``(alpha, w)`` must give the same
    outcome, ``lam`` bits and ``vanished`` names.
    """
    x, y, u, v, _ = reference_comparison_vectors(A.adjoint(), A)
    return np.concatenate((x, v, u, y))


def isometry_rounding_bound(A: tc.AsymToeplitz) -> float:
    """How far two isometry residuals of A may differ by rounding alone.

    FFT and dense sums round differently: a few ulps of the squared
    parameter norm, which every term of the residual is bounded by.
    """
    scale = (np.linalg.norm(A.a) + np.linalg.norm(A.alpha) + abs(A.a0)) ** 2 + 1.0
    return 16 * np.finfo(float).eps * scale


@dataclass(frozen=True)
class ReferenceIsometry:
    """What an ``IsometryCertificate`` reports, every field computed eagerly."""

    accepted: bool
    wide: bool
    w: np.ndarray
    match: RankOneOutcome | None
    residual_norm: float | None
    column_norm_sq: float

    @property
    def lam(self) -> complex | None:
        return None if self.match is None else self.match.lam


def reference_is_isometry(A: tc.AsymToeplitz, tol=tc.DEFAULT_TOL) -> ReferenceIsometry:
    """``isometry.is_isometry`` from the reference comparison vectors and match.

    Builds both comparison vectors of the pair (A*, A) with
    :func:`reference_comparison_vectors`, matches them with
    :func:`reference_rank_one_equal` and takes the residual at the next
    power of two.  The decision must give the same ``w``, match and column
    norm bit for bit, the residual norm within rounding, and the same
    verdict wherever that rounding cannot tip it.

    The reference makes every test, in its own order: the match, |lam| = 1,
    the residual, its entry 0 |column_norm_sq - 1| / 2, and n >= m.  The
    decision runs the same tests in order of cost, wide and column norm
    first, and stops at the first that rejects; since it accepts only when
    all pass, the verdicts agree.  The residual norm is reported only when
    every other test passes, and is ``None`` otherwise, as the decision
    reports it.  When the column norm rejects, the residual is still
    computed here and must reject too, up to its rounding.
    """
    x, y, w, v, _ = reference_comparison_vectors(A.adjoint(), A)
    wide = A.n < A.m
    column_norm_sq = float(A.a0.real * A.a0.real + A.a0.imag * A.a0.imag
                           + np.vdot(A.a, A.a).real)
    match = reference_rank_one_equal(x, y, w, v, tol)
    if match is None:
        return ReferenceIsometry(False, wide, w, None, None, column_norm_sq)
    if match.is_proportional and abs(abs(match.lam) - 1.0) > tol.tau:
        return ReferenceIsometry(False, wide, w, match, None, column_norm_sq)
    residual_norm = float(np.max(np.abs(reference_isometry_residual(A))))
    if abs(column_norm_sq - 1.0) / 2.0 > tol.tau:
        assert residual_norm > tol.tau - isometry_rounding_bound(A)
        return ReferenceIsometry(False, wide, w, match, None, column_norm_sq)
    if wide:
        return ReferenceIsometry(False, wide, w, match, None, column_norm_sq)
    return ReferenceIsometry(residual_norm <= tol.tau, wide, w, match,
                             residual_norm, column_norm_sq)


def reference_gen_pair(spec: tc.FamilySpec) -> tuple[tc.AsymToeplitz, tc.AsymToeplitz]:
    """``families.gen_pair`` with one NumPy scalar operation per derived entry.

    The whole-slice generator must give the same pair bit for bit, and raise
    the same exception with the same message where this one raises.
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
            for i in range(1, n):
                a[i] = lam * np.conj(alpha[m - i])
        else:
            a[1:m] = a_free
            for j in range(1, m):
                alpha[j] = np.conj(a[m - j]) / np.conj(lam)
            for i in range(m, n):
                a[i] = lam * (a0 if i == m else a[i - m])

        b = np.zeros(m, dtype=CDTYPE)
        b[1:] = b_free
        beta = np.zeros(l, dtype=CDTYPE)
        for j in range(1, min(l, m)):
            beta[j] = np.conj(b[m - j]) / np.conj(lam)
        if m < l:
            beta[m] = np.conj(b0) / np.conj(lam)
            for j in range(m + 1, l):
                beta[j] = beta[j - m] / np.conj(lam)

    return tc.AsymToeplitz(n, m, a0, a, alpha), tc.AsymToeplitz(m, l, b0, b, beta)


def reference_parse_entries(items, count: int, where: str) -> np.ndarray:
    """``io._parse_entries`` as a per-entry loop, checking each pair in turn.

    A pair must be an exact ``list`` and each part an exact ``int`` or
    ``float``.  The bulk parse must return the same values bit for bit and
    raise the same ``MatrixFileError`` text, which names the first bad
    position.
    """
    if not isinstance(items, list) or len(items) != count:
        raise MatrixFileError(f"'{where}' must be a list of {count} [re, im] pairs")
    out = np.zeros(count, dtype=complex)
    for pos, item in enumerate(items):
        if (type(item) is not list or len(item) != 2
                or any(type(part) not in (int, float) for part in item)):
            raise MatrixFileError(f"'{where}[{pos}]' must be a [re, im] number pair")
        try:
            re, im = float(item[0]), float(item[1])
        except OverflowError:
            raise MatrixFileError(
                f"'{where}[{pos}]' contains an integer too large for a float") from None
        if not (math.isfinite(re) and math.isfinite(im)):
            raise MatrixFileError(f"'{where}[{pos}]' contains a non-finite number")
        out[pos] = complex(re, im)
    return out


def reference_load_matrix(path):
    """``io.load_matrix`` as one ``json.loads`` of the whole text, then ``parse_matrix``.

    The reader's one decode with ``], [`` blanked must return the same
    bits, the sign of zero included, or raise the same ``MatrixFileError``
    text.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MatrixFileError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MatrixFileError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or an integer literal beyond Python's digit limit
        raise MatrixFileError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise MatrixFileError(f"{path}: JSON nested too deeply") from None
    try:
        return parse_matrix(doc)
    except MatrixFileError as exc:
        raise MatrixFileError(f"{path}: {exc}") from exc


def _reference_fmt(x: float) -> str:
    x = float(x)
    # JSON reads -0 as the integer 0; -0.0 keeps the sign
    return "-0.0" if x == 0 and math.copysign(1.0, x) < 0 else format(x, ".17g")


def _reference_pairs(values) -> str:
    return ("[" + ", ".join(f"[{_reference_fmt(z.real)}, {_reference_fmt(z.imag)}]"
                            for z in values) + "]")


def reference_matrix_to_text(obj) -> str:
    """``io.matrix_to_text`` with each body written out and each part formatted alone.

    Every part goes through ``format(x, ".17g")`` on its own, except
    negative zero, written ``-0.0``; the writer must give the same text
    byte for byte.
    """
    if isinstance(obj, tc.AsymToeplitz):
        body = (f'  "cols": {obj.m},\n'
                f'  "first_col": {_reference_pairs(obj.first_col())},\n'
                f'  "first_row": {_reference_pairs(obj.first_row())},\n'
                f'  "kind": "toeplitz",\n'
                f'  "rows": {obj.n}\n')
    elif isinstance(obj, tc.AsymHankel):
        first_row = obj.core.first_row()[::-1]
        last_col = obj.core.first_col()
        body = (f'  "cols": {obj.m},\n'
                f'  "first_row": {_reference_pairs(first_row)},\n'
                f'  "kind": "hankel",\n'
                f'  "last_col": {_reference_pairs(last_col)},\n'
                f'  "rows": {obj.n}\n')
    else:
        M = as_dense(obj)
        body = (f'  "cols": {M.shape[1]},\n'
                f'  "data": {_reference_pairs(M.ravel())},\n'
                f'  "kind": "dense",\n'
                f'  "rows": {M.shape[0]}\n')
    return "{\n" + body + "}\n"


def reference_main(argv) -> int:
    """``cli.main`` with every argv parsed by the top-level parser.

    Argparse's subcommand action parses what follows the subcommand name
    with that subcommand's parser, and the top-level parser reports what it
    leaves over; the command then runs as in ``main``.  ``main`` must give
    the same exit code, stdout and stderr for every argv.
    """
    parser, _ = cli._build_parser()
    with mock.patch.object(cli, "_parse", parser.parse_args):
        return cli.main(argv)
