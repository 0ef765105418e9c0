import inspect

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
    # dense_is_toeplitz decides what the displacement's support shows: its
    # interior entries are the diagonal differences M[i, j] - M[i-1, j-1]
    def test_accepts_compact_realizations(self, rng):
        for _ in range(10):
            n, m = rng.integers(1, 8, size=2)
            M = tc.random_toeplitz(rng, n, m).to_dense()
            assert tc.dense_is_toeplitz(M, EXACT)
            assert not np.any(tc.displacement_dense(M)[1:, 1:])

    def test_rejects_counterexample(self):
        M = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert not tc.dense_is_toeplitz(M)
        assert tc.displacement_dense(M)[1, 1] == 3.0

    def test_agrees_with_direct_check(self, rng):
        # the benchmark's tracer resolves is_toeplitz_by_displacement, which
        # takes M alone and is dense_is_toeplitz at the default tolerance
        assert list(inspect.signature(is_toeplitz_by_displacement).parameters) == ["M"]
        matrices = [rng.standard_normal((6, 7)) + 1j * rng.standard_normal((6, 7))
                    for _ in range(200)]
        T = tc.random_toeplitz(rng, 5, 5).to_dense()
        for bump in (0.0, 1e-12, 1e-6):
            matrices.append(T.copy())
            matrices[-1][2, 3] += bump
        verdicts = [tc.dense_is_toeplitz(M) for M in matrices]
        assert [is_toeplitz_by_displacement(M) for M in matrices] == verdicts
        assert verdicts[-3:] == [True, True, False]

    def test_agreement_near_the_threshold(self, rng):
        # the verdict is the displacement's interior against the threshold
        # atol + rtol max|N|, on either side of it
        tol = tc.Tolerance(1e-9, 1e-9)
        M = tc.random_toeplitz(rng, 5, 5).to_dense()
        for bump, toeplitz in ((1e-12, True), (1e-6, False)):
            N = M.copy()
            N[2, 3] += bump
            interior = np.max(np.abs(tc.displacement_dense(N)[1:, 1:]))
            within = bool(interior <= tol.threshold(np.max(np.abs(N))))
            assert tc.dense_is_toeplitz(N, tol) == within == toeplitz
