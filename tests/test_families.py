import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import toepcert as tc
from toepcert.families import SpecificationError, gen_isometry
from helpers import EXACT, nonzero_fill, product_example_dense


def _dense_product_toeplitz(A, B):
    return tc.dense_is_toeplitz(A.to_dense() @ B.to_dense(), EXACT)


class TestGenPair:
    def test_reproduces_worked_example(self):
        # first rows/columns of the displayed pair, lam in our convention
        # being the reciprocal of the displayed scalar 2
        spec = tc.FamilySpec(tc.Regime.R1, 4, 5, 3, lam=0.5,
                             a0=1.0, b0=3.0,
                             a_free=[2.0, 2.0, 4.0, 6.0],
                             b_free=[4.0, 5.0, 4.0, 5.0])
        A, B = tc.gen_pair(spec)
        Ad, Bd = product_example_dense()
        assert np.array_equal(A.to_dense(), Ad)
        assert np.array_equal(B.to_dense(), Bd)
        cert = tc.product_is_toeplitz(A, B, EXACT)
        assert cert is not None and cert.lam == 0.5

    def test_r2_block_recurrence_unrolls(self):
        spec = tc.FamilySpec(tc.Regime.R2, 5, 2, 5, lam=2.0, a0=1.0, b0=1.0,
                             a_free=[1.0], b_free=[1.0])
        A, B = tc.gen_pair(spec)
        assert np.array_equal(A.first_col(), [1.0, 1.0, 2.0, 2.0, 4.0])
        assert tc.product_is_toeplitz(A, B, EXACT) is not None
        assert _dense_product_toeplitz(A, B)

    def test_all_parameters_zero_gives_zero_matrices(self):
        spec = tc.FamilySpec(tc.Regime.R3, 2, 3, 5, lam=2.0, a0=0.0, b0=0.0,
                             a_free=np.zeros(2), b_free=np.zeros(2))
        A, B = tc.gen_pair(spec)
        assert not np.any(A.to_dense()) and not np.any(B.to_dense())
        cert = tc.product_is_toeplitz(A, B, EXACT)
        assert cert is not None and cert.outcome.is_both_zero

    def test_soundness_all_regimes_and_sizes(self, rng):
        # power-of-two scalars keep every derived entry and the certificate
        # pivot division bit-exact, so the check can run at zero tolerance
        for seed in range(60):
            n, m, l = (int(v) for v in rng.integers(1, 9, size=3))
            for lam in (2.0, -2.0, 0.5):
                spec = tc.FamilySpec(tc.classify_regime(n, m, l), n, m, l,
                                     lam=lam, seed=seed)
                A, B = tc.gen_pair(spec)
                cert = tc.product_is_toeplitz(A, B, EXACT)
                assert cert is not None
                assert _dense_product_toeplitz(A, B)

    def test_soundness_complex_scalar(self, rng):
        # complex scalars round the pivot quotient by an ulp, so the
        # certificate is checked at the default tolerance; the dense oracle
        # stays exact because the derived entries are dyadic
        for seed in range(40):
            n, m, l = (int(v) for v in rng.integers(1, 9, size=3))
            spec = tc.FamilySpec(tc.classify_regime(n, m, l), n, m, l,
                                 lam=1 + 1j, seed=seed)
            A, B = tc.gen_pair(spec)
            assert tc.product_is_toeplitz(A, B) is not None
            assert _dense_product_toeplitz(A, B)

    def test_proportional_certificate_carries_requested_lam(self, rng):
        for seed in range(20):
            n, m, l = (int(v) for v in rng.integers(2, 7, size=3))
            spec = tc.FamilySpec(tc.classify_regime(n, m, l), n, m, l, lam=2.0,
                                 a_free=nonzero_fill(rng, m - 1),
                                 b_free=nonzero_fill(rng, m - 1),
                                 a0=1 + 1j, b0=2.0, seed=seed)
            cert = tc.product_is_toeplitz(*tc.gen_pair(spec), EXACT)
            assert cert.outcome.is_proportional and cert.lam == 2.0

    def test_block_recurrence_invariant(self, rng):
        # tall left factors repeat geometrically; wide right factors decay
        # by the reciprocal conjugate
        lam = 2.0 + 0.0j
        for seed in range(20):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m + 1, 9))
            l = int(rng.integers(m + 1, 9))
            spec = tc.FamilySpec(tc.Regime.R2, n, m, l, lam=lam, seed=seed)
            A, B = tc.gen_pair(spec)
            assert A.a[m] == lam * A.a0
            for i in range(1, n - m):
                assert A.a[m + i] == lam * A.a[i]
            assert B.alpha[m] == np.conj(B.a0) / np.conj(lam)
            for j in range(1, l - m):
                assert B.alpha[m + j] == B.alpha[j] / np.conj(lam)

    def test_rejects_inconsistent_sizes(self):
        with pytest.raises(tc.SpecificationError):
            tc.gen_pair(tc.FamilySpec(tc.Regime.R1, 6, 4, 3))

    def test_rejects_zero_lam(self):
        with pytest.raises(tc.SpecificationError):
            tc.gen_pair(tc.FamilySpec(tc.Regime.R1, 2, 4, 3, lam=0.0))

    def test_rejects_wrong_free_length(self):
        with pytest.raises(tc.SpecificationError):
            tc.gen_pair(tc.FamilySpec(tc.Regime.R1, 2, 4, 3, a_free=[1.0]))


class TestGenDegenerate:
    def test_row_band_left_factor(self):
        A, B = tc.gen_degenerate("row_band_a", 3, 5, 4, seed=1)
        assert not np.any(A.a)
        assert not np.any(A.alpha[5 - 3 + 1:])
        cert = tc.product_is_toeplitz(A, B, EXACT)
        assert cert is not None and cert.outcome.is_both_zero
        assert _dense_product_toeplitz(A, B)

    def test_col_band_right_factor(self):
        A, B = tc.gen_degenerate("col_band_b", 4, 6, 2, seed=2)
        assert not np.any(B.alpha)
        assert not np.any(B.a[6 - 2 + 1:])
        assert tc.product_is_toeplitz(A, B, EXACT) is not None
        assert _dense_product_toeplitz(A, B)

    def test_both_bands_at_once(self):
        A, _ = tc.gen_degenerate("row_band_a", 3, 5, 4, seed=3)
        _, B = tc.gen_degenerate("col_band_b", 3, 5, 4, seed=4)
        assert tc.product_is_toeplitz(A, B, EXACT) is not None
        assert _dense_product_toeplitz(A, B)

    @pytest.mark.parametrize("form", tc.DEGENERATE_FORMS)
    def test_sweep_against_oracle(self, form, rng):
        for seed in range(40):
            n, m, l = (int(v) for v in rng.integers(1, 8, size=3))
            if form == "row_band_a" and n > m:
                continue
            if form == "col_band_b" and l > m:
                continue
            A, B = tc.gen_degenerate(form, n, m, l, seed=seed)
            cert = tc.product_is_toeplitz(A, B, EXACT)
            assert cert is not None and cert.outcome.is_both_zero
            assert _dense_product_toeplitz(A, B)

    def test_lambda_zero_shape(self):
        # tall right factor: everything up to the last block must vanish
        A, B = tc.gen_degenerate("lambda_zero", 3, 2, 7, seed=5)
        assert not np.any(A.a)
        assert B.a0 == 0 and not np.any(B.a)
        assert not np.any(B.alpha[:7 - 2])

    def test_lambda_infinity_shape(self):
        A, B = tc.gen_degenerate("lambda_infinity", 7, 2, 3, seed=6)
        assert not np.any(B.alpha)
        assert A.a0 == 0 and not np.any(A.alpha)
        assert not np.any(A.a[:7 - 2])

    def test_zeroed_corner_cannot_be_passed(self):
        # lambda_zero with l > m and lambda_infinity with n > m set that
        # corner to zero; a nonzero one passed there is refused, a zero kept
        with pytest.raises(tc.SpecificationError, match="b0"):
            tc.gen_degenerate("lambda_zero", 3, 2, 5, b0=3.0)
        with pytest.raises(tc.SpecificationError, match="a0"):
            tc.gen_degenerate("lambda_infinity", 5, 2, 3, a0=1j)
        _, B = tc.gen_degenerate("lambda_zero", 3, 2, 5, b0=0.0, seed=5)
        A, _ = tc.gen_degenerate("lambda_infinity", 5, 2, 3, a0=0.0, seed=6)
        assert B.a0 == 0 and A.a0 == 0
        # where the corner is free, a passed one is kept
        _, B = tc.gen_degenerate("lambda_zero", 3, 2, 2, b0=3.0)
        A, _ = tc.gen_degenerate("lambda_infinity", 2, 2, 3, a0=1j)
        assert B.a0 == 3.0 and A.a0 == 1j

    def test_rejects_invalid_combinations(self):
        with pytest.raises(tc.SpecificationError):
            tc.gen_degenerate("row_band_a", 5, 3, 2)
        with pytest.raises(tc.SpecificationError):
            tc.gen_degenerate("col_band_b", 2, 3, 5)
        with pytest.raises(tc.SpecificationError):
            tc.gen_degenerate("no_such_form", 2, 3, 2)


class TestPerturbToBreak:
    def test_breaks_r1_pair(self, rng):
        spec = tc.FamilySpec(tc.Regime.R1, 4, 5, 3, lam=2.0,
                             a_free=nonzero_fill(rng, 4),
                             b_free=nonzero_fill(rng, 4), seed=7)
        A2, B2 = tc.perturb_to_break(tc.gen_pair(spec), EXACT)
        assert tc.product_is_toeplitz(A2, B2, EXACT) is None
        assert not _dense_product_toeplitz(A2, B2)

    def test_breaks_r2_pair(self, rng):
        spec = tc.FamilySpec(tc.Regime.R2, 7, 3, 5, lam=2.0,
                             a_free=nonzero_fill(rng, 2),
                             b_free=nonzero_fill(rng, 2),
                             a0=1.0, b0=1.0, seed=8)
        A2, B2 = tc.perturb_to_break(tc.gen_pair(spec), EXACT)
        assert tc.product_is_toeplitz(A2, B2, EXACT) is None
        assert not _dense_product_toeplitz(A2, B2)

    def test_breaks_corner_driven_tall_factor(self):
        # column tail fed only by the geometric blocks: the corner is the
        # only parameter left to bump
        spec = tc.FamilySpec(tc.Regime.R2, 5, 2, 3, lam=2.0, a0=1.0, b0=1.0,
                             a_free=[0.0], b_free=[1.0])
        A, B = tc.gen_pair(spec)
        assert np.any(A.a) and not np.any(A.a[1:2])
        A2, B2 = tc.perturb_to_break((A, B), EXACT)
        assert tc.product_is_toeplitz(A2, B2, EXACT) is None
        assert not _dense_product_toeplitz(A2, B2)

    def test_rejects_degenerate_pair(self):
        pair = tc.gen_degenerate("row_band_a", 3, 5, 4, seed=9)
        with pytest.raises(ValueError):
            tc.perturb_to_break(pair)

    def test_completeness_sweep(self, rng):
        for seed in range(60):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(1, 8))
            l = int(rng.integers(2, 8))
            spec = tc.FamilySpec(tc.classify_regime(n, m, l), n, m, l, lam=2.0,
                                 a_free=nonzero_fill(rng, m - 1),
                                 b_free=nonzero_fill(rng, m - 1),
                                 a0=complex(nonzero_fill(rng, 1)[0]),
                                 b0=complex(nonzero_fill(rng, 1)[0]),
                                 seed=seed)
            pair = tc.gen_pair(spec)
            A2, B2 = tc.perturb_to_break(pair, EXACT)
            assert tc.product_is_toeplitz(A2, B2, EXACT) is None
            assert not _dense_product_toeplitz(A2, B2)


class TestRandomToeplitz:
    def test_seeded_and_integer_valued(self):
        A = tc.random_toeplitz(np.random.default_rng(123), 4, 5)
        B = tc.random_toeplitz(np.random.default_rng(123), 4, 5)
        assert A == B
        parts = np.concatenate([A.a.real, A.a.imag, A.alpha.real, A.alpha.imag])
        assert np.array_equal(parts, np.round(parts))
        assert np.max(np.abs(parts)) <= 5


class TestGenIsometry:
    @settings(deadline=None, max_examples=150)
    @given(st.integers(1, 200), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_dense_oracle(self, n, width, seed):
        # A* A = I to rounding for the matrix and for the Hankel matrix
        # A P_m, at every width m <= n; the first column is dense, not a shift
        m = max(1, round(width * n))
        A = gen_isometry(np.random.default_rng(seed), n, m)
        assert A.shape == (n, m)
        for M in (A, tc.flip_cols(A)):
            D = M.to_dense()
            defect = np.max(np.abs(D.conj().T @ D - np.eye(m)))
            assert defect <= 64 * n * np.finfo(float).eps
        column = A.to_dense()[:, 0]
        assert np.count_nonzero(np.abs(column) > 1e-3 / n) > min(n - 1, n // 2)

    def test_certified(self):
        rng = np.random.default_rng(7)
        for n, m in ((2, 2), (5, 3), (64, 64), (199, 50)):
            A = gen_isometry(rng, n, m)
            for cert in (tc.is_isometry(A), tc.hankel_is_isometry(tc.flip_cols(A))):
                assert cert.accepted and cert.match.is_proportional
                assert abs(abs(cert.lam) - 1.0) <= 1e-12

    def test_seeded(self):
        A, B = (gen_isometry(np.random.default_rng(3), 9, 4) for _ in range(2))
        assert A == B

    def test_rejects_wide(self):
        with pytest.raises(SpecificationError, match="n >= m"):
            gen_isometry(np.random.default_rng(0), 3, 4)

    def test_off_the_root(self):
        assert not hasattr(tc, "gen_isometry")
