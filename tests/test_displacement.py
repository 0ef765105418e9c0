import numpy as np

import toepcert as tc
from toepcert.displacement import is_toeplitz_by_displacement
from helpers import EXACT, basis, outer


class TestDisplacementDense:
    def test_rect_identity_leaves_corner_one(self):
        for n, m in [(1, 1), (3, 5), (5, 3), (4, 4)]:
            D = tc.displacement_dense(np.eye(n, m))
            assert np.array_equal(D, outer(basis(0, n), basis(0, m)))

    def test_toeplitz_support_is_first_row_and_column(self, rng):
        A = tc.random_toeplitz(rng, 5, 6)
        D = tc.displacement_dense(A.to_dense())
        assert not np.any(D[1:, 1:])

    def test_small_counterexample(self):
        D = tc.displacement_dense(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(D, np.array([[1.0, 2.0], [3.0, 3.0]]))


class TestToeplitzByDisplacement:
    def test_accepts_compact_realizations(self, rng):
        for _ in range(10):
            n, m = rng.integers(1, 8, size=2)
            assert is_toeplitz_by_displacement(
                tc.random_toeplitz(rng, n, m).to_dense(), EXACT)

    def test_rejects_counterexample(self):
        assert not is_toeplitz_by_displacement(np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_agrees_with_direct_check(self, rng):
        agree = 0
        for _ in range(200):
            M = rng.standard_normal((6, 7)) + 1j * rng.standard_normal((6, 7))
            agree += (is_toeplitz_by_displacement(M)
                      == tc.dense_is_toeplitz(M))
        assert agree == 200

    def test_agreement_near_the_threshold(self, rng):
        tol = tc.Tolerance(1e-9, 1e-9)
        M = tc.random_toeplitz(rng, 5, 5).to_dense()
        for bump in (1e-12, 1e-6):
            N = M.copy()
            N[2, 3] += bump
            assert (is_toeplitz_by_displacement(N, tol)
                    == tc.dense_is_toeplitz(N, tol))
