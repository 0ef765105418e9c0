import statistics
import time

import numpy as np
import pytest
from hypothesis import settings

import toepcert as tc
from toepcert.isometry import isometry_residual, unit_column_check
from toepcert.product import b_hat
from helpers import (
    basis,
    corner_free_dense,
    dense_isometry_residual,
    dense_shift,
    gaussian_toeplitz,
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
    # the self-comparison vector once computed by a_hat: the comparison
    # vector of the pair (A*, A) is b_hat(A), plus the conjugated corner at
    # index n when A is wide
    def test_narrow(self):
        A = tc.AsymToeplitz(3, 2, 0.0, [0, 1 + 1j, 2.0], [0, 0])
        assert np.array_equal(b_hat(A), [0.0, 2.0])
        assert np.array_equal(tc.is_isometry(A, TOL).w, [0.0, 2.0])

    def test_wide_continues_into_row(self):
        A = tc.AsymToeplitz(2, 4, 0.0, [0, 1 - 2j], [0, 3.0, 4.0, 5.0])
        expected = [0.0, np.conj(1 - 2j), 0.0, 3.0]
        assert np.array_equal(b_hat(A), expected)
        assert np.array_equal(tc.is_isometry(A, TOL).w, expected)

    def test_zero(self):
        A = tc.AsymToeplitz.zero(3, 5)
        assert not np.any(b_hat(A))
        assert not np.any(tc.is_isometry(A, TOL).w)

    def test_dense_oracle(self, rng):
        # the shifted last column of the corner-free adjoint
        for _ in range(50):
            n, m = rng.integers(1, 8, size=2)
            A = tc.random_toeplitz(rng, n, m)
            oracle = (dense_shift(m) @ corner_free_dense(A).conj().T
                      @ basis(n - 1, n))
            assert np.array_equal(b_hat(A), oracle)
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
    # FFT and dense sums round differently: allow a few ulps of the
    # squared parameter norm, which every term of the residual is bounded by
    A = gaussian_toeplitz(n, m, seed, scale_exp)
    scale = (np.linalg.norm(A.a) + np.linalg.norm(A.alpha) + abs(A.a0)) ** 2 + 1.0
    error = np.max(np.abs(isometry_residual(A) - dense_isometry_residual(A)))
    assert error <= 16 * np.finfo(float).eps * scale


class TestUnitColumnCheck:
    def test_unit_example(self):
        assert unit_column_check(unit_example()) == pytest.approx(1.0, abs=1e-12)

    def test_zero(self):
        assert unit_column_check(tc.AsymToeplitz.zero(3, 2)) == 0.0

    def test_scalar_one(self):
        assert unit_column_check(tc.AsymToeplitz(1, 1, 1.0, [0], [0])) == 1.0


class TestIsIsometry:
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
        cert = tc.is_isometry(tc.AsymToeplitz.zero(3, 2), TOL)
        assert not cert.accepted and cert.residual_norm == 0.5

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


class TestHankelIsometry:
    def test_row_flipped_unit_example(self):
        H = tc.flip_rows_of(unit_example())
        cert = tc.hankel_is_isometry(H, TOL)
        assert cert.accepted
        assert dense_defect(H.to_dense()) <= 1e-12

    def test_zero_rejected(self):
        H = tc.flip_cols(tc.AsymToeplitz.zero(3, 2))
        assert not tc.hankel_is_isometry(H, TOL).accepted

    def test_flipped_scalar_one(self):
        H = tc.flip_cols(tc.AsymToeplitz(1, 1, 1.0, [0], [0]))
        assert tc.hankel_is_isometry(H, TOL).accepted

    def test_oracle_equivalence(self, rng):
        for _ in range(200):
            n, m = rng.integers(1, 6, size=2)
            H = tc.flip_cols(tc.random_toeplitz(rng, n, m))
            structured = tc.hankel_is_isometry(H, TOL).accepted
            dense = np.max(np.abs(H.to_dense().conj().T @ H.to_dense()
                                  - np.eye(m))) <= 1e-9
            assert structured == dense


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
