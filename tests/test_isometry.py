import bisect
import dataclasses
import inspect
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import toepcert as tc
from toepcert import isometry
from toepcert.families import gen_isometry
from toepcert.isometry import _fft_length, isometry_residual
from toepcert.product import _match
from helpers import (
    CORNER_SHAPES,
    EXACT,
    TOLS,
    basis,
    corner_free_dense,
    dense_isometry_residual,
    dense_shift,
    full_self_pair_buffer,
    gaussian_toeplitz,
    isometry_rounding_bound,
    lam_bits,
    reference_is_isometry,
    unit_isometry_dense,
    with_shapes,
)

TOL = tc.Tolerance(1e-9, 1e-9)


def dense_defect(A):
    M = A.to_dense() if isinstance(A, (tc.AsymToeplitz, tc.AsymHankel)) else A
    return float(np.max(np.abs(M.conj().T @ M - np.eye(M.shape[1]))))


def unit_example() -> tc.AsymToeplitz:
    return tc.AsymToeplitz.from_dense(unit_isometry_dense())


class TestAHat:
    # the comparison vector w of the pair (A*, A): A's column tail read
    # backwards, continued into the row parameters after the conjugated
    # corner at index n when A is wide
    def test_narrow(self):
        A = tc.AsymToeplitz(3, 2, 0.0, [0, 1 + 1j, 2.0], [0, 0])
        assert np.array_equal(tc.is_isometry(A, TOL).w, [0.0, 2.0])

    def test_wide_continues_into_row(self):
        A = tc.AsymToeplitz(2, 4, 0.0, [0, 1 - 2j], [0, 3.0, 4.0, 5.0])
        expected = [0.0, np.conj(1 - 2j), 0.0, 3.0]
        assert np.array_equal(tc.is_isometry(A, TOL).w, expected)

    def test_zero(self):
        assert not np.any(tc.is_isometry(tc.AsymToeplitz.zero(3, 5), TOL).w)

    def test_dense_oracle(self, rng):
        # the shifted last column of the corner-free adjoint
        for _ in range(50):
            n, m = rng.integers(1, 8, size=2)
            A = tc.random_toeplitz(rng, n, m)
            oracle = (dense_shift(m) @ corner_free_dense(A).conj().T
                      @ basis(n - 1, n))
            if n < m:
                oracle[n] += np.conj(A.a0)
            assert np.array_equal(tc.is_isometry(A, TOL).w, oracle)


class TestResidual:
    def test_unit_example_vanishes(self):
        assert np.max(np.abs(isometry_residual(unit_example()))) <= 1e-12

    def test_scalar_one(self):
        A = tc.AsymToeplitz(1, 1, 1.0, [0], [0])
        assert np.array_equal(isometry_residual(A), [0.0])

    def test_scaled_identity(self):
        A = tc.AsymToeplitz(2, 2, 2.0, [0, 0], [0, 0])
        assert np.array_equal(isometry_residual(A), [1.5, 0.0])


@settings(deadline=None)
@with_shapes
def test_residual_matches_dense_formula(n, m, seed, scale_exp):
    A = gaussian_toeplitz(n, m, seed, scale_exp)
    error = np.max(np.abs(isometry_residual(A) - dense_isometry_residual(A)))
    assert error <= isometry_rounding_bound(A)


# n + m - 1 = 1125 is 5-smooth, 1126 one above it, 1129 a prime just above
# it (both padded to 1152); then the isometry benchmark's three shapes
@pytest.mark.parametrize("n, m", [(563, 563), (400, 727), (900, 230),
                                  (576, 512), (1152, 1024), (2304, 2048)])
def test_residual_at_padding_boundaries(n, m):
    A = gaussian_toeplitz(n, m, seed=n * m)
    error = np.max(np.abs(isometry_residual(A) - dense_isometry_residual(A)))
    assert error <= isometry_rounding_bound(A)


def smooth_numbers(limit: int) -> list[int]:
    """Every 2**i * 3**j * 5**k up to ``limit``, sorted."""
    out = []
    p5 = 1
    while p5 <= limit:
        p35 = p5
        while p35 <= limit:
            p = p35
            while p <= limit:
                out.append(p)
                p *= 2
            p35 *= 3
        p5 *= 5
    return sorted(out)


class TestFftLength:
    def test_smallest_smooth_at_or_above(self):
        smooth = smooth_numbers(2**26)
        targets = [*range(1, 5001), 4351, 8191, 65537, 2**24 + 1]
        for target in targets:
            assert _fft_length(target) == smooth[bisect.bisect_left(smooth, target)], target

    def test_no_table_or_cache(self):
        # computed per call: the module holds no precomputed lengths and the
        # helper remembers none
        tables = [name for name, value in vars(isometry).items()
                  if not name.startswith("__")
                  and isinstance(value, (list, tuple, set, frozenset, dict, np.ndarray))]
        assert tables == []
        assert not hasattr(_fft_length, "cache_info")


def shift_toeplitz(n: int, m: int, k: int, c: complex) -> tc.AsymToeplitz:
    """c times the n x m rectangular shift with ones at (j + k, j)."""
    a = np.zeros(n, dtype=complex)
    if k:
        a[k] = c
    return tc.AsymToeplitz(n, m, c if k == 0 else 0.0, a, np.zeros(m))


def bits(value) -> bytes | None:
    return None if value is None else np.asarray(value, dtype=complex).tobytes()


def assert_matches_reference(A, tol):
    """``is_isometry`` on A and on ``flip_rows_of(A)`` against the reference;
    returns the Hankel matrix and its certificate."""
    # H = C P_m is decided on its stored core C = P_n A P_m
    H = tc.flip_rows_of(A)
    hankel = tc.is_isometry(H, tol)
    for cert, ref, core in ((tc.is_isometry(A, tol), reference_is_isometry(A, tol), A),
                            (hankel, reference_is_isometry(H.core, tol), H.core)):
        assert cert.wide == ref.wide
        assert bits(cert.w) == bits(ref.w)
        assert (cert.match is None) == (ref.match is None)
        assert bits(cert.lam) == bits(ref.lam)
        if cert.match is not None:
            assert cert.match.vanished == ref.match.vanished
        assert bits(cert.column_norm_sq) == bits(ref.column_norm_sq)
        assert (cert.residual_norm is None) == (ref.residual_norm is None)
        if ref.residual_norm is None:
            assert cert.accepted == ref.accepted
            continue
        bound = isometry_rounding_bound(core)
        assert abs(cert.residual_norm - ref.residual_norm) <= bound
        # the residual is defined up to rounding, so only a reference residual
        # that close to the threshold may tip the verdict (an exact shift
        # under EXACT: the power-of-two FFT can land on 0 where another
        # length leaves an ulp)
        if abs(ref.residual_norm - tol.atol) > bound:
            assert cert.accepted == ref.accepted
    return H, hankel


@settings(deadline=None, max_examples=300)
@given(st.one_of(st.sampled_from(CORNER_SHAPES),
                 st.tuples(st.integers(1, 96), st.integers(1, 96))),
       st.sampled_from(("random", "shift", "scaled-shift")),
       st.integers(0, 2**32 - 1), st.integers(-40, 40),
       st.sampled_from((tc.DEFAULT_TOL, EXACT, tc.Tolerance(1e-12, 1e-12),
                        tc.Tolerance(1e-3, 1e-3))))
def test_matches_reference(shape, kind, seed, scale_exp, tol):
    n, m = shape
    if kind == "random":
        A = gaussian_toeplitz(n, m, seed, scale_exp)
    else:
        rng = np.random.default_rng(seed)
        c = np.exp(2j * np.pi * rng.random())
        if kind == "scaled-shift":
            c *= 2.0 ** scale_exp
        A = shift_toeplitz(n, m, int(rng.integers(0, n)), c)
    H, hankel = assert_matches_reference(A, tol)
    # the row-flip core P_n H = P_n C P_m is an isometry exactly when C is,
    # and gives the same verdict outside the exact contract, where an exact
    # isometry's verdict is the rounding of one FFT residual
    if tol != EXACT:
        assert hankel.accepted == reference_is_isometry(H.core.rot180(), tol).accepted


# the isometry benchmark's three shapes: a shift by k <= n - m is an
# isometry, one by k > n - m fails the match, and 1.5 times a fitting one
# passes the match and fails the column norm, the residual's entry 0
@pytest.mark.parametrize("n, m", [(576, 512), (1152, 1024), (2304, 2048)])
@pytest.mark.parametrize("shift, scale, accepted", [
    ("fits", 1.0, True), ("overhangs", 1.0, False), ("fits", 1.5, False)])
def test_matches_reference_at_benchmark_shapes(n, m, shift, scale, accepted):
    k = (n - m) // 2 if shift == "fits" else n - m + 1
    A = shift_toeplitz(n, m, k, scale * np.exp(0.3j))
    assert tc.is_isometry(A).accepted is accepted
    assert_matches_reference(A, tc.DEFAULT_TOL)


def test_isometry_buffers_are_written_in_full(monkeypatch):
    """Every entry of the self-match buffer, allocated unfilled, is written.

    ``numpy.empty`` returns NaN-filled arrays for the whole test, so an
    unwritten entry would reach ``w`` or the match as NaN.  Every tall,
    square and wide shape up to 8 x 8 is checked, as T and as H: random
    matrices, every shift, and the matrix of negative zeros, whose
    conjugated corner at index n of a wide ``w`` must read +0.
    """
    empty = np.empty

    def nan_empty(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.dtype.kind in "fc":
            out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", nan_empty)
    assert np.isnan(np.empty(3, dtype=complex)).all()
    neg_zero = complex(-0.0, -0.0)
    for n in range(1, 9):
        for m in range(1, 9):
            cases = [gaussian_toeplitz(n, m, 100 * n + m),
                     tc.AsymToeplitz(n, m, neg_zero, np.full(n, neg_zero),
                                     np.full(m, neg_zero))]
            cases += [shift_toeplitz(n, m, k, np.exp(0.3j)) for k in range(n)]
            for A in cases:
                for tol in (tc.DEFAULT_TOL, EXACT):
                    assert_matches_reference(A, tol)


class TestUnitColumnCheck:
    # the certificate's squared norm of the full first column, corner plus
    # tail: 1 for every isometry, a necessary condition
    def test_unit_example(self):
        cert = tc.is_isometry(unit_example(), TOL)
        assert cert.column_norm_sq == pytest.approx(1.0, abs=1e-12)
        column = unit_isometry_dense()[:, 0]
        assert cert.column_norm_sq == pytest.approx(np.vdot(column, column).real, abs=1e-12)

    def test_zero(self):
        assert tc.is_isometry(tc.AsymToeplitz.zero(3, 2), TOL).column_norm_sq == 0.0

    def test_scalar_one(self):
        assert tc.is_isometry(tc.AsymToeplitz(1, 1, 1.0, [0], [0]), TOL).column_norm_sq == 1.0

    @pytest.mark.parametrize("flip", [None, tc.flip_cols, tc.flip_rows_of])
    def test_dyadic_column_is_exact(self, flip):
        # |1/2 + i/2|**2 + |1/2 - i/2|**2 is exactly 1; a modulus (hypot)
        # rounds sqrt(1/2) and its square sums to 1 + 2**-52
        A = tc.AsymToeplitz(2, 1, 0.5 + 0.5j, [0, 0.5 - 0.5j], [0])
        cert = tc.is_isometry(flip(A) if flip else A, EXACT)
        assert cert.accepted and cert.column_norm_sq == 1.0 and cert.residual_norm == 0.0

    @pytest.mark.parametrize("a0, tail", [(1e200, 0.0), (1e200j, 0.0), (0.0, 1e200)])
    def test_overflowing_column_is_inf(self, a0, tail):
        # a part beyond 2**512 squares to inf, a corner's as well as a tail's:
        # rejected, with no OverflowError
        cert = tc.is_isometry(tc.AsymToeplitz(2, 2, a0, [0, tail], [0, 0]))
        assert cert.column_norm_sq == np.inf and not cert.accepted


@settings(deadline=None)
@with_shapes
def test_column_norm_is_exact_on_dyadic_gaussian_integers(n, m, seed, scale_exp):
    """Every square and partial sum of a Gaussian-integer column with parts
    below 2**20, times 2**scale_exp, is a float, so ``column_norm_sq`` is the
    exact sum, as T and as either Hankel, whose core's column is summed."""
    rng = np.random.default_rng(seed)
    bound = 1 << int(rng.integers(1, 21))
    re, im = np.ldexp(rng.integers(1 - bound, bound, size=(2, n + m - 1)), scale_exp)
    vals = re + 1j * im
    A = tc.AsymToeplitz(n, m, vals[0], np.concatenate([[0], vals[1:n]]),
                        np.concatenate([[0], vals[n:]]))
    for M in (A, tc.flip_cols(A), tc.flip_rows_of(A)):
        core = M.core if isinstance(M, tc.AsymHankel) else M
        exact = sum(Fraction(z.real) ** 2 + Fraction(z.imag) ** 2
                    for z in (core.a0, *core.a[1:]))
        assert tc.is_isometry(M, EXACT).column_norm_sq == exact


class TestIsIsometry:
    @pytest.mark.parametrize("M", [np.eye(2), [[1, 0], [0, 1]], None],
                             ids=["ndarray", "list", "None"])
    def test_other_arguments_are_type_errors(self, M):
        with pytest.raises(TypeError, match="AsymToeplitz or AsymHankel, got "
                           + type(M).__name__):
            tc.is_isometry(M)

    def test_unit_example_accepted(self):
        cert = tc.is_isometry(unit_example(), TOL)
        assert cert.accepted
        assert cert.match.is_proportional
        assert abs(abs(cert.lam) - 1.0) <= 1e-12
        assert cert.lam == pytest.approx(1j)
        assert dense_defect(unit_example()) <= 1e-12

    def test_scalar_one_accepted_degenerately(self):
        cert = tc.is_isometry(tc.AsymToeplitz(1, 1, 1.0, [0], [0]), TOL)
        assert cert.accepted and cert.match.is_both_zero
        assert cert.residual_norm == 0.0 and cert.column_norm_sq == 1.0

    def test_scaled_identity_rejected(self):
        A = tc.AsymToeplitz(2, 2, 2.0, [0, 0], [0, 0])
        assert not tc.is_isometry(A, TOL).accepted
        assert np.array_equal(A.to_dense().conj().T @ A.to_dense(), 4 * np.eye(2))

    def test_unit_column_accepted(self, rng):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        a = np.zeros(4, dtype=complex)
        a[1:] = v[1:]
        A = tc.AsymToeplitz(4, 1, complex(v[0]), a, [0.0])
        cert = tc.is_isometry(A, TOL)
        assert cert.accepted and not cert.wide
        assert dense_defect(A) <= 1e-12

    def test_near_isometry_rejected(self):
        # perturb a stored parameter so the matrix stays Toeplitz but
        # drifts off the isometry manifold by far more than the tolerance
        A = unit_example()
        a = A.a.copy()
        a[1] += 1e-6
        near = tc.AsymToeplitz(A.n, A.m, A.a0, a, A.alpha)
        assert not tc.is_isometry(near, TOL).accepted
        assert dense_defect(near) > 1e-9

    def test_zero_matrix_rejected(self):
        # the column norm 0 decides before the residual (whose entry 0 is
        # (0 - 1) / 2) is computed
        cert = tc.is_isometry(tc.AsymToeplitz.zero(3, 2), TOL)
        assert not cert.accepted and cert.residual_norm is None
        assert cert.column_norm_sq == 0.0

    def test_oracle_equivalence_random(self, rng):
        for _ in range(800):
            n, m = rng.integers(1, 6, size=2)
            A = tc.random_toeplitz(rng, n, m)
            assert tc.is_isometry(A, TOL).accepted == (dense_defect(A) <= 1e-9)

    def test_wide_branch_uses_corner_in_w(self):
        # unimodular corner, zero row parameters: without the corner share
        # in w the self-match would degenerate and wrongly accept
        A = tc.AsymToeplitz(1, 2, 1.0, [0.0], [0.0, 0.0])
        cert = tc.is_isometry(A, TOL)
        assert cert.wide
        assert cert.w[1] == 1.0
        assert cert.match is None  # one side vanishes, the other does not
        assert not cert.accepted
        assert cert.residual_norm is None  # skipped once the match fails
        assert dense_defect(A) > 1e-9

    def test_narrow_branch_with_nonzero_corner(self):
        A = tc.AsymToeplitz(2, 1, 0.6, [0, 0.8], [0.0])
        cert = tc.is_isometry(A, TOL)
        assert not cert.wide and cert.accepted
        assert dense_defect(A) <= 1e-12

    def test_wide_matrices_never_isometries(self, rng):
        # n < m forces rank(A* A) <= n < m, and the certifier agrees with
        # the oracle on every such candidate
        for _ in range(200):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(1, m))
            A = tc.random_toeplitz(rng, n, m)
            cert = tc.is_isometry(A, TOL)
            assert cert.wide and not cert.accepted
            assert dense_defect(A) > 1e-9

    def test_accepted_implies_unit_column(self, rng):
        checked = 0
        for theta in np.linspace(0.0, 2 * np.pi, 17):
            A = tc.AsymToeplitz(1, 1, np.exp(1j * theta), [0], [0])
            cert = tc.is_isometry(A, TOL)
            assert cert.accepted
            assert abs(cert.column_norm_sq - 1.0) <= 1e-9
            checked += 1
        assert checked == 17


def matched_toeplitz(n: int, m: int, rng: np.random.Generator,
                     unit: bool = False) -> tc.AsymToeplitz:
    """A random matrix whose row parameters are lam times its comparison vector.

    lam is unimodular, so the self-match alpha = lam w, w = conj(lam) alpha
    holds up to rounding; a wide matrix's w continues into alpha, which is
    filled in index order, so each entry it reads is already set.  With
    ``unit`` the first column is scaled to norm 1 before alpha is derived.
    """
    re, im = rng.standard_normal((2, n))
    if unit:
        scale = np.sqrt(np.sum(re**2 + im**2))
        re, im = re / scale, im / scale
    a = re + 1j * im
    a[0] = 0
    return matched_with_column(complex(re[0], im[0]), a, m, np.exp(2j * np.pi * rng.random()))


def matched_with_column(a0: complex, a: np.ndarray, m: int, lam: complex) -> tc.AsymToeplitz:
    """The n x m matrix with first column (a0, a[1:]) and row parameters lam w."""
    n = len(a)
    alpha = np.zeros(m, dtype=complex)
    for j in range(1, m):
        w_j = np.conj(a[n - j]) if j < n else np.conj(a0) if j == n else alpha[j - n]
        alpha[j] = lam * w_j
    return tc.AsymToeplitz(n, m, a0, a, alpha)


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 64), st.integers(1, 64), st.integers(0, 2**32 - 1),
       st.integers(-40, 40),
       st.sampled_from(("random", "integer", "sparse", "zero", "scaled-shift", "matched")))
def test_self_match_equals_full_buffer_match(n, m, seed, scale_exp, kind):
    """The self-match on (alpha, w) decides as ``_match`` on (alpha, w, w, alpha).

    Integer entries tie in modulus, so the pivot choice shows in ``lam``;
    matched matrices are also perturbed at about a quarter and twice the
    match threshold, so that both verdicts occur under every tolerance.
    """
    rng = np.random.default_rng(seed)
    if kind == "zero":
        A = tc.AsymToeplitz.zero(n, m)
    elif kind == "scaled-shift":
        c = np.exp(2j * np.pi * rng.random()) * 2.0 ** scale_exp
        A = shift_toeplitz(n, m, int(rng.integers(0, n)), c)
    elif kind == "matched":
        A = matched_toeplitz(n, m, rng)
    else:
        A = gaussian_toeplitz(n, m, seed, scale_exp)
        a, alpha = A.a.copy(), A.alpha.copy()
        if kind == "integer":
            a, alpha = (np.round(v * 2) for v in (a, alpha))
        elif kind == "sparse":
            a[rng.random(n) < 0.5] = 0
            alpha[rng.random(m) < 0.5] = 0
        A = tc.AsymToeplitz(n, m, A.a0, a, alpha)
    for tol in TOLS:
        cases = [A]
        if kind == "matched":
            scale = tol.threshold(float(np.max(np.abs(A.alpha))))
            for k in (-2, 1):
                noise = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                noise[0] = 0
                cases.append(tc.AsymToeplitz(n, m, A.a0, A.a,
                                             A.alpha + noise * scale * 2.0 ** k))
        for B in cases:
            full = _match(full_self_pair_buffer(B), m, m, tol)
            for cert in (tc.is_isometry(B, tol), tc.is_isometry(tc.flip_cols(B), tol)):
                assert (cert.match is None) == (full is None)
                if full is not None:
                    assert lam_bits(cert.lam) == lam_bits(full.lam)
                    assert cert.match.vanished == full.vanished


def refuse_residual(monkeypatch, reason: str) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError(f"isometry_residual ran {reason}")

    monkeypatch.setattr(isometry, "isometry_residual", refuse)


def decided_before_self_match(monkeypatch, A, tol) -> list:
    """(certificate, reference) for A, ``flip_cols(A)`` and ``flip_rows_of(A)``,
    each decided while the self-match refuses to run: wide matrices and
    column norms off 1 are rejected before it."""
    cases = [(A, A), (tc.flip_cols(A), A)]
    H = tc.flip_rows_of(A)
    cases.append((H, H.core))
    with monkeypatch.context() as patch:
        def refuse(*args, **kwargs):
            raise AssertionError("the self-match ran during the decision")

        patch.setattr(isometry, "_self_match", refuse)
        certs = [tc.is_isometry(M, tol) for M, _ in cases]
    return [(cert, reference_is_isometry(core, tol)) for cert, (_, core) in zip(certs, cases)]


def assert_match_filled_on_first_read(cert, ref) -> None:
    """The match and ``w`` an early rejection makes when first read: the
    reference's bit for bit, the same objects on every read, and kept
    through ``dataclasses.replace``."""
    match, w = cert.match, cert.w
    assert bits(w) == bits(ref.w)
    assert (match is None) == (ref.match is None)
    assert bits(cert.lam) == bits(ref.lam)
    if match is not None:
        assert match.vanished == ref.match.vanished
    assert cert.match is match and cert.w is w
    flipped = dataclasses.replace(cert, accepted=not cert.accepted)
    assert flipped.accepted is not cert.accepted
    assert (flipped.wide, flipped.residual_norm) == (cert.wide, cert.residual_norm)
    assert bits(flipped.column_norm_sq) == bits(cert.column_norm_sq)
    assert bits(flipped.w) == bits(w) and bits(flipped.lam) == bits(cert.lam)


def test_no_residual_after_failed_match(monkeypatch):
    # a failed self-match decides the verdict, so the residual must not run
    refuse_residual(monkeypatch, "after a failed match")
    candidates = []
    for n in range(2, 9):
        for m in range(2, 9):
            # continuous entries: a random self-match fails almost surely
            candidates.append(gaussian_toeplitz(n, m, seed=n * m + n))
            # shifted past the last column (k > n - m), wide ones included:
            # a column is zero, and one side of the self-match vanishes
            # while the other does not
            candidates.extend(shift_toeplitz(n, m, k, np.exp(1j * k))
                              for k in range(max(n - m + 1, 0), n))
    assert any(A.n < A.m for A in candidates)
    for A in candidates:
        for cert in (tc.is_isometry(A), tc.is_isometry(tc.flip_cols(A))):
            assert cert.accepted is False
            assert cert.residual_norm is None


def test_no_residual_for_wide_matrix(monkeypatch):
    # n < m leaves A* A rank at most n < m, so a wide matrix is rejected
    # before the residual even when its self-match, unimodular scalar and
    # unit column pass.  Every first column is a unit vector c e_k and lam a
    # power of i, so alpha = lam w holds exactly, under every tolerance
    refuse_residual(monkeypatch, "for a wide matrix")
    candidates = []
    for n in range(1, 6):
        for m in range(n + 1, n + 5):
            for k in range(n):
                for c, lam in ((1.0, 1.0), (1j, -1.0), (-1.0, 1j), (-1j, -1j)):
                    column = c * np.eye(n, dtype=complex)[k]
                    a = np.concatenate(([0], column[1:]))
                    candidates.append(matched_with_column(column[0], a, m, lam))
    for A in candidates:
        for tol in TOLS:
            for cert, ref in decided_before_self_match(monkeypatch, A, tol):
                assert cert.wide
                assert cert.column_norm_sq == 1.0
                assert cert.accepted is False
                assert cert.residual_norm is None
                assert_match_filled_on_first_read(cert, ref)
                assert cert.match is not None


def fitting_shifts(c: complex) -> list[tc.AsymToeplitz]:
    """c times every n x m shift by k <= n - m, whose self-match degenerates."""
    return [shift_toeplitz(n, m, k, c)
            for n in range(1, 9) for m in range(1, n + 1) for k in range(n - m + 1)]


def test_no_residual_after_column_norm_off_one(monkeypatch):
    # the residual's entry 0 is (column_norm_sq - 1) / 2, so a matched matrix
    # whose column norm is off 1 by more than 2 atol is rejected without it
    refuse_residual(monkeypatch, "after the column norm decided")
    candidates = [tc.AsymToeplitz.zero(n, m) for n in range(1, 6) for m in range(1, 6)]
    for c in (0.5, 2.0, 1 + 1e-6, 2j):
        candidates.extend(fitting_shifts(c))
    for A in candidates:
        for cert, ref in decided_before_self_match(monkeypatch, A, tc.DEFAULT_TOL):
            assert cert.accepted is False
            assert cert.residual_norm is None
            assert abs(cert.column_norm_sq - 1.0) / 2.0 > tc.DEFAULT_TOL.atol
            assert_match_filled_on_first_read(cert, ref)
            assert cert.match is not None


def test_no_self_match_for_random_or_scaled_matrix(monkeypatch):
    # a random matrix, or a shift scaled off the unit circle, has a column
    # norm off 1: one dot rejects it, at any size, before the self-match
    refuse_residual(monkeypatch, "after the column norm decided")
    candidates = [shift_toeplitz(n, m, k, c)
                  for n, m, k in ((576, 512, 30), (64, 64, 0), (7, 3, 6))
                  for c in (2.0, 0.5j)]
    candidates += [gaussian_toeplitz(n, m, seed=n + m) for n, m in ((576, 512), (9, 4), (3, 7))]
    for A in candidates:
        for tol in TOLS:
            for cert, ref in decided_before_self_match(monkeypatch, A, tol):
                assert cert.accepted is False and cert.residual_norm is None
                assert abs(cert.column_norm_sq - 1.0) / 2.0 > tol.atol or cert.wide
                assert_match_filled_on_first_read(cert, ref)


def test_residual_runs_for_column_norm_within_atol(monkeypatch):
    # (1 + 1e-12) S has column norm 1 + 2e-12, within the default atol: the
    # residual decides, as the dense oracle does
    calls = []
    residual = isometry.isometry_residual

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return residual(*args, **kwargs)

    monkeypatch.setattr(isometry, "isometry_residual", counting)
    candidates = fitting_shifts(1 + 1e-12)
    for A in candidates:
        H = tc.flip_cols(A)
        for cert, M in ((tc.is_isometry(A), A), (tc.is_isometry(H), H)):
            assert cert.residual_norm is not None
            assert cert.accepted == (dense_defect(M) <= tc.DEFAULT_TOL.atol)
    assert len(calls) == 2 * len(candidates)


def test_no_residual_after_lambda_off_unit_circle(monkeypatch):
    # a matched matrix whose scalar is off the unit circle is rejected
    # without the residual, even with a unit first column.  Its comparison
    # vector w is small but above atol, so the match alpha = lam w,
    # w = conj(lam) alpha holds: |lam| = 1 -+ 1e-6 leaves a defect of about
    # 2e-6 |w| in the second equation, and |lam| = 2 or 1/2 one of
    # 3 |w|, within a relative tolerance of 1
    refuse_residual(monkeypatch, "after the scalar left the unit circle")
    wide_rtol = tc.Tolerance(1e-9, 1.0)
    cases = []
    for n in range(2, 9):
        for m in range(2, n + 1):
            for lam, tol in ((1 + 1e-6, tc.DEFAULT_TOL), (-1j * (1 - 1e-6), tc.DEFAULT_TOL),
                             (2.0, wide_rtol), (0.5j, wide_rtol)):
                a = np.zeros(n, dtype=complex)
                a[n - m + 1:] = 1e-6 * np.exp(1j * np.arange(m - 1))
                alpha = np.zeros(m, dtype=complex)
                alpha[1:] = lam * np.conj(a[n - 1:n - m:-1])
                a0 = np.sqrt(1.0 - np.sum(np.abs(a) ** 2))
                cases.append((tc.AsymToeplitz(n, m, a0, a, alpha), tol))
    for A, tol in cases:
        for cert in (tc.is_isometry(A, tol), tc.is_isometry(tc.flip_cols(A), tol)):
            assert cert.accepted is False
            assert cert.residual_norm is None
            assert cert.match is not None and cert.match.is_proportional
            assert abs(abs(cert.lam) - 1.0) > tol.atol
            assert abs(cert.column_norm_sq - 1.0) / 2.0 <= tol.atol


def drifted(A: tc.AsymToeplitz, ratio: float, rng: np.random.Generator) -> tc.AsymToeplitz:
    """A with noise on alpha of ``ratio`` times the route's drift bound,
    ||noise|| = 16 eps (c + 1) / c**(1/2) for c the column's squared norm."""
    noise = rng.standard_normal(A.m) + 1j * rng.standard_normal(A.m)
    noise[0] = 0
    norm = np.linalg.norm(noise)
    if norm == 0:
        return A
    c = abs(A.a0) ** 2 + np.sum(np.abs(A.a) ** 2)
    noise *= ratio * 16 * np.finfo(float).eps * (c + 1.0) / (np.sqrt(c) * norm)
    return tc.AsymToeplitz(A.n, A.m, A.a0, A.a, A.alpha + noise)


def both_zero_toeplitz(n: int, m: int, rng: np.random.Generator) -> tc.AsymToeplitz:
    """A unit first column with no entry in w's window and alpha = 0."""
    re, im = rng.standard_normal((2, n))
    c = re + 1j * im
    c[max(n - m + 1, 1):] = 0
    c /= np.linalg.norm(c)
    a = c.copy()
    a[0] = 0
    return tc.AsymToeplitz(n, m, c[0], a, np.zeros(m))


def banded_toeplitz(n: int, m: int, rng: np.random.Generator) -> tc.AsymToeplitz:
    """A matched unit first column that is nonzero only on a random window
    [lo, hi), with zeros before and after it, and alpha = lam w."""
    lo = int(rng.integers(0, n))
    hi = int(rng.integers(lo + 1, n + 1))
    column = np.zeros(n, dtype=complex)
    re, im = rng.standard_normal((2, hi - lo))
    column[lo:hi] = re + 1j * im
    column /= np.linalg.norm(column)
    a = column.copy()
    a[0] = 0
    return matched_with_column(complex(column[0]), a, m, np.exp(2j * np.pi * rng.random()))


DRIFTS = {"quarter": 0.25, "quadruple": 4.0}


def route_case(kind: str, n: int, m: int, rng: np.random.Generator) -> tc.AsymToeplitz:
    """A generated isometry (n >= m), a shift by a power of i (n >= m), a
    both-zero match, exact or with row parameters below ``atol`` at a
    quarter or 4 times the route bound ("both-zero-quarter"), a banded unit
    column, or a matched unit column, exact or drifted to a quarter or
    4 times the route bound."""
    if kind == "generated":
        return gen_isometry(rng, n, m)
    if kind == "shift":
        return shift_toeplitz(n, m, int(rng.integers(0, n - m + 1)), 1j ** int(rng.integers(4)))
    if kind == "both-zero":
        return both_zero_toeplitz(n, m, rng)
    if kind.startswith("both-zero-"):
        return drifted(both_zero_toeplitz(n, m, rng), DRIFTS[kind.removeprefix("both-zero-")], rng)
    if kind == "banded":
        return banded_toeplitz(n, m, rng)
    A = matched_toeplitz(n, m, rng, unit=True)
    return A if kind == "matched" else drifted(A, DRIFTS[kind], rng)


PRIMES = [p for p in range(2, 200) if all(p % d for d in range(2, int(p**0.5) + 1))]


@st.composite
def route_shapes(draw):
    """(n, m) where the autocorrelation pays (m <= n <= 4m), is wide, is tall
    (m < n / 4) or has a prime n."""
    kind = draw(st.sampled_from(("fits", "wide", "tall", "prime")))
    if kind == "wide":
        m = draw(st.integers(2, 200))
        return draw(st.integers(1, m - 1)), m
    if kind == "tall":
        n = draw(st.integers(5, 200))
        return n, draw(st.integers(1, (n - 1) // 4))
    n = draw(st.sampled_from(PRIMES)) if kind == "prime" else draw(st.integers(1, 200))
    return n, draw(st.integers(-(-n // 4), n))


@settings(deadline=None, max_examples=300)
@given(route_shapes(),
       st.sampled_from(("generated", "matched", "both-zero", "banded", "quarter",
                        "quadruple")),
       st.integers(0, 2**32 - 1))
def test_route_matches_reference(shape, kind, seed):
    """Certificates on either residual route equal the reference's.

    Generated isometries, exactly matched unit columns, both-zero matches,
    banded unit columns, whose short support takes the autocorrelation on
    tall shapes too, and matched matrices drifted to 1/4 and 4 times the
    route bound, under every tolerance: ``w``, ``match`` and
    ``column_norm_sq`` bit for bit, the residual norm within rounding and
    the verdict outside that band (all in :func:`assert_matches_reference`);
    the residual also agrees with the public, always-convolving
    ``isometry_residual``.
    """
    n, m = shape
    if kind == "generated" and n < m:
        kind = "matched"
    A = route_case(kind, n, m, np.random.default_rng(seed))
    for tol in (*TOLS, tc.Tolerance(1e-12, 1e-12)):
        assert_matches_reference(A, tol)
        cert = tc.is_isometry(A, tol)
        if cert.residual_norm is not None:
            lam = cert.lam if cert.match.is_proportional else 0.0
            routed = isometry_residual(A, (cert.column_norm_sq, lam, cert.w))
            exact = isometry_residual(A)
            assert np.max(np.abs(routed - exact)) <= isometry_rounding_bound(A)


# sizes beyond test_exact_shifts_accepted_exactly's n <= 39, at tall and
# square shapes
@pytest.mark.parametrize("n", [63, 313, 1000])
def test_identity_residual_is_exact(n):
    # the corner's terms stay out of the FFT: the identity's column tail is
    # zero, so the autocorrelation route runs no FFT and its residual is 0
    for m in (n, -(-n // 4)):
        for cert in (tc.is_isometry(tc.AsymToeplitz.eye(n, m), EXACT),
                     tc.is_isometry(tc.flip_cols(tc.AsymToeplitz.eye(n, m)), EXACT)):
            assert cert.accepted and cert.residual_norm == 0.0


def test_exact_shifts_accepted_exactly():
    """Every exact isometry c S, a power of i times a shift, is accepted under
    ``Tolerance(0, 0)`` with a residual of exactly 0.

    Its first column has one nonzero entry, so the residual needs no FFT.
    All 42,640 shifts by k <= n - m with 1 <= m <= n <= 39 and c in
    {1, -1, i, -i} are decided as T, and a seeded eighth of them as H.
    """
    rng = np.random.default_rng(21)
    shifts = 0
    for c in (1.0, -1.0, 1j, -1j):
        for n in range(1, 40):
            for m in range(1, n + 1):
                for k in range(n - m + 1):
                    A = shift_toeplitz(n, m, k, c)
                    certs = [tc.is_isometry(A, EXACT)]
                    if rng.random() < 0.125:
                        certs.append(tc.is_isometry(tc.flip_cols(A), EXACT))
                    for cert in certs:
                        assert cert.accepted and cert.residual_norm == 0.0, (n, m, k, c)
                    shifts += 1
    assert shifts == 42640


@st.composite
def tails(draw):
    """A column tail of length n <= 4096, zero at index 0: all zero, one
    nonzero entry, dense, or nonzero on a random subset.  Each nonzero entry
    is nonzero in its real part, its imaginary part or both, at a unit,
    subnormal or huge modulus; every zero part is +0 or -0.0."""
    n = draw(st.integers(1, 4096))
    kind = draw(st.sampled_from(("zero", "one", "dense", "subset")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = np.where(rng.random((n, 2)) < 0.5, -0.0, 0.0)
    nonzero = np.zeros(n, dtype=bool)
    if kind == "one" and n > 1:
        nonzero[draw(st.integers(1, n - 1))] = True
    elif kind == "dense":
        nonzero[1:] = True
    elif kind == "subset":
        nonzero[1:] = rng.random(n - 1) < draw(st.floats(0, 1))
    # which parts of a nonzero entry are nonzero: real, imaginary or both
    which = rng.integers(1, 4, size=n)
    values = rng.choice((1.0, -1.0, 5e-324, 1e300), size=(n, 2))
    for part in (0, 1):
        chosen = nonzero & (which >> part & 1).astype(bool)
        parts[chosen, part] = values[chosen, part]
    return parts.view(complex)[:, 0]


@settings(deadline=None, max_examples=300)
@given(tails())
def test_support_is_first_and_last_nonzero(a):
    # the float view's one pass against the complex comparison
    nonzero = np.flatnonzero(a != 0)
    expected = (int(nonzero[0]), int(nonzero[-1]) + 1) if len(nonzero) else (0, 0)
    assert isometry._support(a) == expected


def test_public_residual_scans_no_support(monkeypatch):
    # the public call always convolves, so it scans no support; each tail is
    # zero at index 1 or n - 1, where a scan would take a full pass
    rng = np.random.default_rng(17)
    cases = []
    for n, m, step in ((40, 40, 3), (97, 20, 5), (9, 30, 2), (2304, 16, 7)):
        A = gaussian_toeplitz(n, m, seed=n + m)
        a = np.zeros(n, dtype=complex)
        a[2::step] = A.a[2::step] * (rng.random(len(a[2::step])) < 0.5)
        a[n // 2] = 1j
        A = dataclasses.replace(A, a=a)
        assert not (a[1] and a[-1]) and 0 < np.count_nonzero(a) < n - 1
        cases.append((A, isometry_residual(A).tobytes()))

    def refuse(a):
        raise AssertionError("_support called")

    monkeypatch.setattr(isometry, "_support", refuse)
    for A, residual in cases:
        assert isometry_residual(A).tobytes() == residual


def count_routes(monkeypatch) -> dict:
    counts = {"autocorrelation": 0, "convolution": 0}
    for name in counts:
        term = getattr(isometry, f"_{name}_term")

        def counting(*args, term=term, name=name):
            counts[name] += 1
            return term(*args)

        monkeypatch.setattr(isometry, f"_{name}_term", counting)
    return counts


@pytest.mark.parametrize("n, m, kind, route", [
    # the autocorrelation where it pays, while the column's nonzero support
    # is shorter than 4m: a dense one up to n = 4m, prime n included
    *((n, m, "generated", "autocorrelation")
      for n, m in ((1, 1), (2, 2), (8, 2), (31, 31), (97, 25), (200, 50), (211, 190))),
    (64, 40, "quarter", "autocorrelation"),
    (40, 40, "both-zero", "autocorrelation"),
    # tall shapes with a short support: a shift's is at most one entry, and
    # the both-zero column is nonzero only on its first n - m + 1 entries
    (2304, 16, "shift", "autocorrelation"),
    (97, 20, "both-zero", "autocorrelation"),
    # the convolution above the route bound, for wide and for tall shapes
    (64, 40, "quadruple", "convolution"),
    (40, 40, "quadruple", "convolution"),
    (20, 60, "matched", "convolution"),
    (3, 4, "matched", "convolution"),
    *((n, m, "generated", "convolution") for n, m in ((9, 2), (201, 50), (2304, 16))),
    (120, 20, "both-zero", "convolution"),
    # a both-zero match's drift is alpha itself: row parameters below atol
    # take the route their norm gives, square and tall
    *((n, m, f"both-zero-{drift}", route) for n, m in ((40, 40), (97, 20))
      for drift, route in (("quarter", "autocorrelation"), ("quadruple", "convolution"))),
])
def test_route_selection(monkeypatch, n, m, kind, route):
    A = route_case(kind, n, m, np.random.default_rng(n * m))
    counts = count_routes(monkeypatch)
    certs = (tc.is_isometry(A), tc.is_isometry(tc.flip_cols(A)))
    accepted = dense_defect(A) <= tc.DEFAULT_TOL.atol
    both_zero = kind.startswith("both-zero")
    assert accepted is (kind in ("generated", "shift") or (both_zero and n == m))
    assert all(cert.accepted is accepted for cert in certs)
    if both_zero and n >= m:
        assert all(cert.match.is_both_zero for cert in certs)
        assert bool(np.any(A.alpha)) is (kind != "both-zero")
    if n < m:
        # a wide matrix is rejected before either route
        assert all(cert.residual_norm is None for cert in certs)
        assert counts == {"autocorrelation": 0, "convolution": 0}
    else:
        assert all(cert.residual_norm is not None for cert in certs)
        other = "convolution" if route == "autocorrelation" else "autocorrelation"
        assert counts == {route: 2, other: 0}
    # a public call convolves, whatever the matrix
    convolutions = counts["convolution"]
    isometry_residual(A)
    assert counts["convolution"] == convolutions + 1


def test_hankel_isometry_builds_no_flipped_core(monkeypatch):
    # H* H = P_m C* C P_m for H = C P_m, so the decision reads the stored
    # core C and never builds a flipped one
    cases = []
    for n, m in ((1, 1), (5, 3), (9, 9), (3, 7), (40, 33)):
        for k in range(min(n, 3)):
            A = shift_toeplitz(n, m, k, np.exp(1j * (k + 1)))
            cases.append((tc.flip_cols(A), reference_is_isometry(A)))
        A = gaussian_toeplitz(n, m, seed=n + m)
        cases.append((tc.flip_cols(A), reference_is_isometry(A)))
    assert {ref.accepted for _, ref in cases} == {True, False}
    assert any(H.n < H.m for H, _ in cases)

    def refuse(self):
        raise AssertionError("rot180 called")

    monkeypatch.setattr(tc.AsymToeplitz, "rot180", refuse)
    for H, ref in cases:
        cert = tc.is_isometry(H)
        assert cert.accepted == ref.accepted
        assert bits(cert.w) == bits(ref.w)


@pytest.mark.parametrize("tol", [tc.DEFAULT_TOL, EXACT], ids=["default", "exact"])
@pytest.mark.parametrize("flip", [tc.flip_cols, tc.flip_rows_of])
def test_is_isometry_takes_either_kind(flip, tol):
    # is_isometry decides a Hankel matrix on its stored core: the same
    # certificate as the core's, bit for bit
    rng = np.random.default_rng(11)
    cases = []
    for n, m in ((37, 10), (64, 48), (50, 50), (9, 9), (3, 7), (40, 53)):
        cases += [shift_toeplitz(n, m, 0, 1.0), shift_toeplitz(n, m, min(2, n - 1), 1j),
                  gaussian_toeplitz(n, m, seed=n * m), both_zero_toeplitz(n, m, rng)]
        if m <= n:
            cases.append(gen_isometry(rng, n, m))
    certs = [(tc.is_isometry(flip(A), tol), tc.is_isometry(flip(A).core, tol)) for A in cases]
    assert {cert.accepted for cert, _ in certs} == {True, False}
    assert {cert.wide for cert, _ in certs} == {True, False}
    for cert, ref in certs:
        assert (cert.accepted, cert.wide, cert.match) == (ref.accepted, ref.wide, ref.match)
        assert bits(cert.w) == bits(ref.w)
        assert bits(cert.lam) == bits(ref.lam)
        assert bits(cert.residual_norm) == bits(ref.residual_norm)
        assert bits(cert.column_norm_sq) == bits(ref.column_norm_sq)


class TestHankelIsometry:
    def test_row_flipped_unit_example(self):
        H = tc.flip_rows_of(unit_example())
        cert = tc.is_isometry(H, TOL)
        assert cert.accepted
        assert dense_defect(H.to_dense()) <= 1e-12

    def test_zero_rejected(self):
        H = tc.flip_cols(tc.AsymToeplitz.zero(3, 2))
        assert not tc.is_isometry(H, TOL).accepted

    def test_flipped_scalar_one(self):
        H = tc.flip_cols(tc.AsymToeplitz(1, 1, 1.0, [0], [0]))
        assert tc.is_isometry(H, TOL).accepted

    def test_oracle_equivalence(self, rng):
        for _ in range(200):
            n, m = rng.integers(1, 6, size=2)
            H = tc.flip_cols(tc.random_toeplitz(rng, n, m))
            structured = tc.is_isometry(H, TOL).accepted
            dense = np.max(np.abs(H.to_dense().conj().T @ H.to_dense()
                                  - np.eye(m))) <= 1e-9
            assert structured == dense

    def test_benchmark_name_decides_through_is_isometry(self, monkeypatch):
        # the benchmark calls its Hankel isometry name with H alone, and its
        # self-test flips isometry-large verdicts by patching
        # isometry.is_isometry, so the name must look it up there, call it
        # once on H's stored core and return its result
        decide = isometry.hankel_is_isometry
        assert list(inspect.signature(decide).parameters) == ["H"]
        H = tc.flip_cols(shift_toeplitz(5, 3, 1, 1j))
        calls = []

        def recording(*args):
            calls.append(args)
            return calls[-1]

        monkeypatch.setattr(isometry, "is_isometry", recording)
        result = decide(H)
        assert len(calls) == 1 and result is calls[0]
        assert len(calls[0]) == 1 and calls[0][0] is H.core


def test_is_isometry_scales_near_linearly():
    # median time at 4096 over median at 512: 8 for linear cost, 64 for
    # quadratic; single timings are noisy, so the repeats are interleaved
    matrices = [tc.AsymToeplitz.eye(n, n) for n in (512, 4096)]
    times = [[], []]
    for _ in range(9):
        for A, spent in zip(matrices, times):
            start = time.perf_counter()
            assert tc.is_isometry(A).accepted
            spent.append(time.perf_counter() - start)
    small, large = (statistics.median(spent) for spent in times)
    assert large / small < 24
