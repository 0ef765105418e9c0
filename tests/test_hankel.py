import numpy as np
import pytest

import toepcert as tc
from helpers import EXACT, dense_eye, dense_flip, nonzero_fill


class TestHankelProduct:
    def test_identity_flips(self):
        H1 = tc.flip_cols(tc.AsymToeplitz.eye(3, 5))
        H2 = tc.flip_rows_of(tc.AsymToeplitz.eye(5, 4))
        cert = tc.hankel_product_is_toeplitz(H1, H2, EXACT)
        assert cert is not None
        assert np.array_equal(H1.to_dense() @ H2.to_dense(), dense_eye(3, 4))

    def test_matches_underlying_pair_certificate(self, rng):
        spec = tc.FamilySpec(tc.Regime.R1, 4, 5, 3, lam=2.0,
                             a_free=nonzero_fill(rng, 4),
                             b_free=nonzero_fill(rng, 4), seed=3)
        A, B = tc.gen_pair(spec)
        direct = tc.product_is_toeplitz(A, B, EXACT)
        viaflip = tc.hankel_product_is_toeplitz(tc.flip_cols(A),
                                                tc.flip_rows_of(B), EXACT)
        assert viaflip is not None
        assert viaflip.lam == direct.lam
        assert viaflip.regime is direct.regime
        assert tc.dense_is_toeplitz(
            tc.flip_cols(A).to_dense() @ tc.flip_rows_of(B).to_dense(), EXACT)

    def test_perturbed_pair_rejected(self, rng):
        spec = tc.FamilySpec(tc.Regime.R1, 4, 5, 3, lam=2.0,
                             a_free=nonzero_fill(rng, 4),
                             b_free=nonzero_fill(rng, 4), seed=4)
        A2, B2 = tc.perturb_to_break(tc.gen_pair(spec), EXACT)
        H1, H2 = tc.flip_cols(A2), tc.flip_rows_of(B2)
        assert tc.hankel_product_is_toeplitz(H1, H2, EXACT) is None
        assert not tc.dense_is_toeplitz(H1.to_dense() @ H2.to_dense(), EXACT)

    def test_oracle_sweep(self, rng):
        for _ in range(200):
            n, m, l = rng.integers(1, 7, size=3)
            H1 = tc.flip_cols(tc.random_toeplitz(rng, n, m))
            H2 = tc.flip_rows_of(tc.random_toeplitz(rng, m, l))
            structured = tc.hankel_product_is_toeplitz(H1, H2, EXACT) is not None
            dense = tc.dense_is_toeplitz(H1.to_dense() @ H2.to_dense(), EXACT)
            assert structured == dense

    def test_dimension_mismatch(self):
        with pytest.raises(tc.DimensionMismatch):
            tc.hankel_product_is_toeplitz(tc.flip_cols(tc.AsymToeplitz.eye(2, 3)),
                                          tc.flip_cols(tc.AsymToeplitz.eye(4, 2)))


class TestHankelTimesToeplitz:
    def test_flipped_identity(self):
        H = tc.flip_rows_of(tc.AsymToeplitz.eye(3, 5))
        B = tc.AsymToeplitz.eye(5, 4)
        assert tc.hankel_times_toeplitz_is_hankel(H, B, EXACT) is not None
        assert tc.dense_is_hankel(H.to_dense() @ B.to_dense(), EXACT)

    def test_generated_pair(self, rng):
        spec = tc.FamilySpec(tc.Regime.R2, 6, 2, 5, lam=2.0, seed=5,
                             a_free=nonzero_fill(rng, 1),
                             b_free=nonzero_fill(rng, 1), a0=1.0, b0=1.0)
        A, B = tc.gen_pair(spec)
        H = tc.flip_rows_of(A)
        assert tc.hankel_times_toeplitz_is_hankel(H, B, EXACT) is not None
        assert tc.dense_is_hankel(H.to_dense() @ B.to_dense(), EXACT)

    def test_perturbed_pair(self, rng):
        spec = tc.FamilySpec(tc.Regime.R4, 6, 4, 3, lam=2.0, seed=6,
                             a_free=nonzero_fill(rng, 3),
                             b_free=nonzero_fill(rng, 3), a0=1.0, b0=1.0)
        A2, B2 = tc.perturb_to_break(tc.gen_pair(spec), EXACT)
        H = tc.flip_rows_of(A2)
        assert tc.hankel_times_toeplitz_is_hankel(H, B2, EXACT) is None
        assert not tc.dense_is_hankel(H.to_dense() @ B2.to_dense(), EXACT)

    def test_oracle_sweep(self, rng):
        for _ in range(200):
            n, m, l = rng.integers(1, 7, size=3)
            H = tc.flip_rows_of(tc.random_toeplitz(rng, n, m))
            B = tc.random_toeplitz(rng, m, l)
            structured = tc.hankel_times_toeplitz_is_hankel(H, B, EXACT) is not None
            dense = tc.dense_is_hankel(H.to_dense() @ B.to_dense(), EXACT)
            assert structured == dense


class TestProductStructure:
    # one Toeplitz pair (A, B) per regime, recombined into all four factor
    # kinds: H H = A B, H B = P (A B) and A H = (A B) P all keep structure
    # exactly when A B is Toeplitz
    DIMS = {tc.Regime.R1: (4, 5, 3), tc.Regime.R2: (6, 2, 5),
            tc.Regime.R3: (3, 4, 6), tc.Regime.R4: (6, 4, 3)}

    @staticmethod
    def factors(kinds, A, B):
        return {"TT": (A, B),
                "HH": (tc.flip_cols(A), tc.flip_rows_of(B)),
                "HT": (tc.flip_rows_of(A), B),
                "TH": (A, tc.flip_cols(B))}[kinds]

    @pytest.mark.parametrize("broken", [False, True], ids=["yes", "no"])
    @pytest.mark.parametrize("kinds, expected", [
        ("TT", "toeplitz"), ("HH", "toeplitz"), ("HT", "hankel"), ("TH", "hankel")])
    def test_matches_dense_oracle(self, rng, kinds, expected, broken):
        oracle = {"toeplitz": tc.dense_is_toeplitz, "hankel": tc.dense_is_hankel}[expected]
        for seed, (regime, dims) in enumerate(self.DIMS.items()):
            m = dims[1]
            pair = tc.gen_pair(tc.FamilySpec(regime, *dims, lam=2.0, seed=seed,
                                             a_free=nonzero_fill(rng, m - 1),
                                             b_free=nonzero_fill(rng, m - 1),
                                             a0=1.0, b0=1.0))
            if broken:
                pair = tc.perturb_to_break(pair, EXACT)
            left, right = self.factors(kinds, *pair)
            kind, cert = tc.product_structure(left, right, EXACT)
            assert kind == expected
            dense = tc.dense_mul(left.to_dense(), right.to_dense())
            assert (cert is not None) == oracle(dense, EXACT) == (not broken)

    def test_toeplitz_times_hankel_dimension_mismatch(self):
        with pytest.raises(tc.DimensionMismatch):
            tc.product_structure(tc.AsymToeplitz.eye(3, 5),
                                 tc.flip_cols(tc.AsymToeplitz.eye(4, 2)))


class TestFlipAlgebra:
    def test_double_row_flip(self, rng):
        A = tc.random_toeplitz(rng, 4, 6)
        Pn = dense_flip(4)
        assert np.array_equal(Pn @ (Pn @ A.to_dense()), A.to_dense())
        assert tc.flip_rows_of(A).row_flip_core() == A

    def test_double_col_flip(self, rng):
        A = tc.random_toeplitz(rng, 4, 6)
        Pm = dense_flip(6)
        assert np.array_equal((A.to_dense() @ Pm) @ Pm, A.to_dense())
        assert tc.flip_cols(A).core == A

    def test_row_flip_core_is_dense_row_flip(self, rng):
        A = tc.random_toeplitz(rng, 5, 3)
        H = tc.flip_rows_of(A)
        assert np.array_equal(H.row_flip_core().to_dense(),
                              dense_flip(5) @ H.to_dense())
