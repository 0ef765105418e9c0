import dataclasses
import itertools
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toepcert as tc
from toepcert import product
from toepcert.hankel import hankel_product_is_toeplitz, hankel_times_toeplitz_is_hankel
from toepcert.product import (
    ProductCertificate,
    RankOneOutcome,
    comparison_vectors,
    rank_one_equal,
)
from helpers import (
    EXACT,
    TOLS,
    basis,
    corner_free_dense,
    dense_eye,
    dense_shift,
    displacement_interior,
    lam_bits,
    outer,
    product_example_dense,
    reference_comparison_vectors,
    reference_rank_one_equal,
    reference_verify,
)


class TestAlphaHat:
    # the left-factor comparison vector u of comparison_vectors(A, B): A's row
    # parameters read backwards, continued into the column tail after the
    # corner when A is tall (m < n)
    def test_short_read(self):
        A = tc.AsymToeplitz(2, 3, 0.0, [0, 1.0], [0, 2 + 1j, 5 - 2j])
        u = comparison_vectors(A, tc.AsymToeplitz.zero(3, 2))[2]
        assert np.array_equal(u, [0.0, np.conj(5 - 2j)])

    def test_tall_read_continues_into_column(self):
        a = [0, 1.0, 2.0, 3.0, 4.0]
        alpha = [0, 5j, 6j]
        A = tc.AsymToeplitz(5, 3, 7.0, a, alpha)
        u = comparison_vectors(A, tc.AsymToeplitz.zero(3, 2))[2]
        assert np.array_equal(u, [0.0, np.conj(6j), np.conj(5j), 7.0, 1.0])

    def test_zero(self):
        u = comparison_vectors(tc.AsymToeplitz.zero(4, 2), tc.AsymToeplitz.eye(2, 3))[2]
        assert not np.any(u)

    def test_dense_oracle(self, rng):
        # the shifted last column of the corner-free part, plus the corner at
        # index m when A is tall
        for _ in range(50):
            n, m, l = rng.integers(1, 8, size=3)
            A, B = tc.random_toeplitz(rng, n, m), tc.random_toeplitz(rng, m, l)
            oracle = dense_shift(n) @ corner_free_dense(A) @ basis(m - 1, m)
            if m < n:
                oracle[m] += A.a0
            assert np.array_equal(comparison_vectors(A, B)[2], oracle)


class TestBHat:
    # the right-factor comparison vector v of comparison_vectors(A, B): B's
    # column tail read backwards, continued into the row parameters after the
    # conjugated corner when B is wide (m < l)
    def test_narrow_read(self):
        b = [0, 1.0, 2.0, 3.0, 4 + 1j]
        B = tc.AsymToeplitz(5, 3, 0.0, b, [0, 0, 0])
        v = comparison_vectors(tc.AsymToeplitz.zero(2, 5), B)[3]
        assert np.array_equal(v, [0.0, np.conj(4 + 1j), 3.0])

    def test_wide_read_continues_into_row(self):
        B = tc.AsymToeplitz(2, 4, 0.0, [0, 1 - 1j], [0, 2.0, 3.0, 4.0])
        v = comparison_vectors(tc.AsymToeplitz.zero(3, 2), B)[3]
        assert np.array_equal(v, [0.0, np.conj(1 - 1j), 0.0, 2.0])

    def test_zero(self):
        v = comparison_vectors(tc.AsymToeplitz.eye(2, 3), tc.AsymToeplitz.zero(3, 5))[3]
        assert not np.any(v)

    def test_dense_oracle(self, rng):
        for _ in range(50):
            n, m, l = rng.integers(1, 8, size=3)
            A, B = tc.random_toeplitz(rng, n, m), tc.random_toeplitz(rng, m, l)
            oracle = (dense_shift(l) @ corner_free_dense(B).conj().T
                      @ basis(m - 1, m))
            if m < l:
                oracle[m] += np.conj(B.a0)
            assert np.array_equal(comparison_vectors(A, B)[3], oracle)


class TestRankOneEqual:
    def test_proportional(self):
        out = rank_one_equal([0, 2], [0, 3], [0, 1], [0, 6], EXACT)
        assert out is not None and out.lam == 2
        assert np.array_equal(outer([0, 2], [0, 3]), outer([0, 1], [0, 6]))

    def test_mismatch(self):
        assert rank_one_equal([0, 1, 2], [0, 3], [0, 2, 4], [0, 6], EXACT) is None
        # the dense outer products really differ at (1, 1): 3 vs 12
        assert outer([0, 1, 2], [0, 3])[1, 1] != outer([0, 2, 4], [0, 6])[1, 1]

    def test_both_zero(self):
        out = rank_one_equal([0, 0], [0, 5], [0, 7], [0, 0], EXACT)
        assert out is not None and out.is_both_zero
        assert out.vanished == ("x", "yp")

    def test_one_sided_zero_is_mismatch(self):
        assert rank_one_equal([0, 0], [0, 1], [0, 1], [0, 1], EXACT) is None

    def test_dimension_error(self):
        with pytest.raises(tc.DimensionMismatch, match="x and xp"):
            rank_one_equal([0, 1], [0, 1], [0, 1, 2], [0, 1], EXACT)
        with pytest.raises(tc.DimensionMismatch, match="y and yp"):
            rank_one_equal([0, 1], [0, 1], [0, 1], [0, 1, 2], EXACT)

    @pytest.mark.parametrize("vector", [1.0, [[1, 2], [3, 4]], [[1, 2, 3, 4]]])
    def test_rejects_vectors_that_are_not_one_dimensional(self, vector):
        # a 0-d input has no length, and a 2-D one would reach the fused
        # match as rows
        other = 2.0 if np.ndim(vector) == 0 else vector
        with pytest.raises(tc.DimensionMismatch, match="1-D"):
            rank_one_equal(vector, other, vector, other, EXACT)

    def test_complex_scalar_with_conjugation(self):
        lam = 1 + 2j
        xp = np.array([0, 2 - 1j, 3j])
        y = np.array([0, 4j, 1 + 1j, 2])
        x = lam * xp
        yp = np.conj(lam) * y
        out = rank_one_equal(x, y, xp, yp, EXACT)
        assert out is not None and out.lam == lam
        assert np.array_equal(outer(x, y), outer(xp, yp))

    def test_random_agreement_with_dense_outer(self, rng):
        for _ in range(200):
            n, m = rng.integers(1, 7, size=2)
            x = (rng.integers(-3, 4, size=n) + 1j * rng.integers(-3, 4, size=n)).astype(complex)
            y = (rng.integers(-3, 4, size=m) + 1j * rng.integers(-3, 4, size=m)).astype(complex)
            xp = (rng.integers(-3, 4, size=n) + 1j * rng.integers(-3, 4, size=n)).astype(complex)
            yp = (rng.integers(-3, 4, size=m) + 1j * rng.integers(-3, 4, size=m)).astype(complex)
            structured = rank_one_equal(x, y, xp, yp, EXACT) is not None
            dense = np.array_equal(outer(x, y), outer(xp, yp))
            assert structured == dense


KINDS = ["gaussian", "integer", "sparse", "zero"]


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 96), st.integers(0, 96), st.integers(0, 2**32 - 1),
       st.integers(-40, 40), st.sampled_from(KINDS), st.sampled_from(KINDS),
       st.sampled_from(["free", "proportional", "dyadic", "perturbed"]))
def test_fused_rank_one_matches_reference(p, q, seed, scale_exp, x_kind, y_kind, pairing):
    """The fused pass decides as the multi-reduction reference, bit for bit.

    Pairs are drawn unrelated, proportional (also by a dyadic scalar, so
    that exact tolerances accept), or proportional and then perturbed
    around each tolerance's threshold, so that both verdicts occur.
    Integer entries tie in modulus, so the pivot choice shows in ``lam``.
    ``ProductCertificate.verify`` is checked against the reference formula
    for the decided outcome and for claimed ones.
    """
    rng = np.random.default_rng(seed)

    def draw(k, kind):
        if kind == "zero":
            return np.zeros(k, dtype=complex)
        if kind == "integer":
            re, im = rng.integers(-3, 4, size=(2, k))
        else:
            re, im = rng.standard_normal((2, k))
        v = np.ldexp(re, scale_exp) + 1j * np.ldexp(im, scale_exp)
        if kind == "sparse":
            v[rng.random(k) < 0.5] = 0
        return v

    x, y = draw(p, x_kind), draw(q, y_kind)
    free = draw(p, "gaussian"), draw(q, "gaussian")
    e = int(rng.integers(-8, 9))
    if pairing == "dyadic":
        lam = complex(np.ldexp(1.0, e)) * (1, -1, 1j, -1j)[int(rng.integers(4))]
    else:
        lam = complex(np.ldexp(rng.standard_normal(), e), np.ldexp(rng.standard_normal(), e))

    def pairs(tol):
        if pairing == "free":
            return [free]
        xp, yp = x / lam, np.conj(lam) * y
        if pairing != "perturbed" or not (p and q):
            return [(xp, yp)]
        # defects of about a quarter or twice the threshold on each side
        dx = rng.standard_normal(p) * tol.threshold(np.max(np.abs(x))) / abs(lam)
        dy = rng.standard_normal(q) * tol.threshold(np.max(np.abs(yp)))
        return [(xp + np.ldexp(dx, kx), yp + np.ldexp(dy, ky))
                for kx, ky in ((-2, -2), (-2, 1), (1, -2))]

    for tol in TOLS:
        for xp, yp in pairs(tol):
            _check_against_reference(x, y, xp, yp, tol, lam)


def _check_against_reference(x, y, xp, yp, tol, lam):
    fused = rank_one_equal(x, y, xp, yp, tol)
    reference = reference_rank_one_equal(x, y, xp, yp, tol)
    assert (fused is None) == (reference is None)
    if reference is not None:
        assert lam_bits(fused.lam) == lam_bits(reference.lam)
        assert fused.vanished == reference.vanished
    for claimed in (reference, RankOneOutcome(None), RankOneOutcome(lam * (1 + 2**-20))):
        if claimed is None:
            continue
        cert = ProductCertificate(tc.Regime.R1, x, y, xp, yp, claimed, 0, 0)
        for check_tol in (tol, tc.Tolerance(4 * tol.atol, tol.rtol / 4)):
            assert cert.verify(check_tol) == reference_verify(cert, check_tol)


class TestOutcomesBuiltWithoutInit:
    """Outcomes filled in without the frozen dataclass's ``__init__`` are
    proper :class:`RankOneOutcome` values: equal to and hashing as the ones
    built through it, frozen, and answering both predicates."""

    @staticmethod
    def assert_proper(out, lam, vanished=()):
        built = RankOneOutcome(lam) if lam is not None else RankOneOutcome(None, vanished)
        assert type(out) is RankOneOutcome
        assert out == built and hash(out) == hash(built)
        assert (out.lam, out.vanished) == (lam, vanished)
        assert out.is_proportional is (lam is not None)
        assert out.is_both_zero is (lam is None)
        for name in ("lam", "vanished"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(out, name, 1)

    def test_product_is_toeplitz(self):
        A, B = tc.gen_pair(tc.FamilySpec(tc.Regime.R2, 6, 3, 5, lam=2.0, seed=4))
        cert = tc.product_is_toeplitz(A, B, EXACT)
        self.assert_proper(cert.outcome, cert.lam)
        assert cert.lam == 2.0
        cert = tc.product_is_toeplitz(tc.AsymToeplitz.eye(3, 5), tc.AsymToeplitz.eye(5, 4), EXACT)
        self.assert_proper(cert.outcome, None, cert.outcome.vanished)
        assert cert.outcome.vanished

    def test_rank_one_equal(self):
        self.assert_proper(rank_one_equal([0, 2], [0, 3], [0, 1], [0, 6], EXACT), 2)
        self.assert_proper(rank_one_equal([0, 0], [0, 5], [0, 7], [0, 0], EXACT),
                           None, ("x", "yp"))

    def test_verify(self, monkeypatch):
        A, B = tc.gen_pair(tc.FamilySpec(tc.Regime.R3, 3, 4, 6, lam=1j, seed=5))
        cert = tc.product_is_toeplitz(A, B, EXACT)
        match = product._match
        outs = []

        def recording_match(*args):
            outs.append(match(*args))
            return outs[-1]

        monkeypatch.setattr(product, "_match", recording_match)
        assert cert.verify(EXACT)
        assert len(outs) == 1
        self.assert_proper(outs[0], cert.lam)

    def test_is_isometry_match(self):
        shift = tc.AsymToeplitz(5, 3, 0.0, [0, 0, 1j, 0, 0], np.zeros(3))
        cert = tc.is_isometry(shift, EXACT)
        assert cert.accepted
        self.assert_proper(cert.match, None, cert.match.vanished)
        cert = tc.is_isometry(tc.AsymToeplitz.eye(3, 3), EXACT)
        assert cert.accepted and cert.match.is_both_zero
        # the rotation by 0.6 + 0.8i: alpha = -w
        A = tc.AsymToeplitz(2, 2, 0.6, [0, 0.8], [0, -0.8])
        cert = tc.is_isometry(A, EXACT)
        assert cert.lam == -1
        self.assert_proper(cert.match, cert.lam)


class TestClassifyRegime:
    def test_examples(self):
        assert tc.classify_regime(4, 5, 3) is tc.Regime.R1
        assert tc.classify_regime(5, 2, 7) is tc.Regime.R2
        assert tc.classify_regime(3, 3, 3) is tc.Regime.R1
        assert tc.classify_regime(2, 4, 6) is tc.Regime.R3
        assert tc.classify_regime(6, 4, 2) is tc.Regime.R4

    def test_total_and_single_valued(self):
        conditions = {
            tc.Regime.R1: lambda n, m, l: n <= m and l <= m,
            tc.Regime.R2: lambda n, m, l: m < n and m < l,
            tc.Regime.R3: lambda n, m, l: n <= m < l,
            tc.Regime.R4: lambda n, m, l: l <= m < n,
        }
        for n in range(1, 11):
            for m in range(1, 11):
                for l in range(1, 11):
                    holding = [r for r, cond in conditions.items() if cond(n, m, l)]
                    assert len(holding) == 1
                    assert tc.classify_regime(n, m, l) is holding[0]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            tc.classify_regime(0, 1, 1)


class TestComparisonVectors:
    def test_r1_uses_plain_hats(self, rng):
        # no corner enters: the vectors equal those of the corner-free factors
        A = tc.random_toeplitz(rng, 3, 5)
        B = tc.random_toeplitz(rng, 5, 4)
        x, y, u, v, regime = comparison_vectors(A, B)
        assert regime is tc.Regime.R1
        _, _, u0, v0, _ = comparison_vectors(replace(A, a0=0j), replace(B, a0=0j))
        assert np.array_equal(u, u0) and np.array_equal(v, v0)
        assert np.array_equal(x, A.a) and np.array_equal(y, B.alpha)

    def test_r2_corners_enter_at_index_m(self, rng):
        A = tc.random_toeplitz(rng, 5, 2)
        B = tc.random_toeplitz(rng, 2, 7)
        x, y, u, v, regime = comparison_vectors(A, B)
        assert regime is tc.Regime.R2
        _, _, u0, v0, _ = comparison_vectors(replace(A, a0=0j), replace(B, a0=0j))
        assert u[2] == u0[2] + A.a0
        assert v[2] == v0[2] + np.conj(B.a0)
        for vec, vec0 in ((u, u0), (v, v0)):
            assert np.array_equal(np.delete(vec, 2), np.delete(vec0, 2))

    def test_zero_pair(self):
        x, y, u, v, _ = comparison_vectors(tc.AsymToeplitz.zero(3, 4),
                                              tc.AsymToeplitz.zero(4, 2))
        assert not (np.any(x) or np.any(y) or np.any(u) or np.any(v))

    def test_inner_dimension_mismatch(self):
        with pytest.raises(tc.DimensionMismatch):
            comparison_vectors(tc.AsymToeplitz.eye(2, 3), tc.AsymToeplitz.eye(4, 2))

    def test_read_only_and_as_built_one_by_one(self, rng):
        for _ in range(200):
            n, m, l = (int(v) for v in rng.integers(1, 9, size=3))
            A, B = tc.random_toeplitz(rng, n, m), tc.random_toeplitz(rng, m, l)
            got = comparison_vectors(A, B)
            want = reference_comparison_vectors(A, B)
            assert got[4] is want[4]
            for mine, theirs in zip(got[:4], want[:4]):
                assert not mine.flags.writeable
                assert mine.tobytes() == theirs.tobytes()


class TestProductIsToeplitz:
    @pytest.mark.parametrize("other", [np.eye(2), [[1, 0], [0, 1]], None],
                             ids=["ndarray", "list", "None"])
    @pytest.mark.parametrize("decide", [tc.product_is_toeplitz, comparison_vectors])
    def test_other_factors_are_type_errors(self, decide, other):
        # either position; the message names the kinds taken and the one given
        factor = tc.AsymToeplitz.eye(2, 2)
        for left, right in ((other, factor), (factor, other), (other, tc.flip_cols(factor))):
            with pytest.raises(TypeError, match="AsymToeplitz or AsymHankel, got "
                               + type(other).__name__):
                decide(left, right)

    def test_worked_example(self):
        Ad, Bd = product_example_dense()
        A = tc.AsymToeplitz.from_dense(Ad)
        B = tc.AsymToeplitz.from_dense(Bd)
        cert = tc.product_is_toeplitz(A, B, EXACT)
        assert cert is not None and cert.outcome.is_proportional
        assert cert.regime is tc.Regime.R1
        # our scalar convention is the reciprocal of the one the example is
        # displayed with
        assert cert.lam == 0.5
        assert cert.verify(EXACT)
        assert tc.dense_is_toeplitz(Ad @ Bd, EXACT)

    def test_identity_pair(self):
        cert = tc.product_is_toeplitz(tc.AsymToeplitz.eye(3, 5),
                                      tc.AsymToeplitz.eye(5, 4), EXACT)
        assert cert is not None and cert.outcome.is_both_zero
        assert np.array_equal(dense_eye(3, 5) @ dense_eye(5, 4), dense_eye(3, 4))

    def test_rejected_pair(self):
        # nonzero tails but vanishing comparison vectors: the outer product
        # of the tails leaks into the displacement interior
        A = tc.AsymToeplitz(3, 4, 0.0, [0, 1.0, 0.0], np.zeros(4))
        B = tc.AsymToeplitz(4, 2, 0.0, np.zeros(4), [0, 1.0])
        assert tc.product_is_toeplitz(A, B, EXACT) is None
        assert not tc.dense_is_toeplitz(A.to_dense() @ B.to_dense(), EXACT)

    def test_zero_factor_accepted(self, rng):
        cert = tc.product_is_toeplitz(tc.AsymToeplitz.zero(3, 4),
                                      tc.random_toeplitz(rng, 4, 5), EXACT)
        assert cert is not None and cert.outcome.is_both_zero

    def test_block_counts(self, rng):
        B = tc.random_toeplitz(rng, 3, 9)
        cert = tc.product_is_toeplitz(tc.AsymToeplitz.zero(7, 3), B, EXACT)
        assert (cert.k, cert.k_prime) == (2, 2)
        assert 2 * 3 < 7 <= 3 * 3 and 2 * 3 < 9 <= 3 * 3

    def test_oracle_equivalence_sweep(self, rng):
        for _ in range(500):
            n, m, l = rng.integers(1, 7, size=3)
            A = tc.random_toeplitz(rng, n, m)
            B = tc.random_toeplitz(rng, m, l)
            cert = tc.product_is_toeplitz(A, B, EXACT)
            oracle = tc.dense_is_toeplitz(A.to_dense() @ B.to_dense(), EXACT)
            assert (cert is not None) == oracle

    def test_certificate_soundness_reassertable(self, rng):
        for seed in range(30):
            n, m, l = (int(v) for v in rng.integers(1, 7, size=3))
            spec = tc.FamilySpec(tc.classify_regime(n, m, l), n, m, l,
                                 lam=2.0, seed=seed)
            cert = tc.product_is_toeplitz(*tc.gen_pair(spec), EXACT)
            assert cert is not None and cert.verify(EXACT)
            if cert.outcome.is_proportional:
                assert np.array_equal(cert.x, cert.lam * cert.u)
                assert np.array_equal(cert.v, np.conj(cert.lam) * cert.y)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 10), st.sampled_from([1, 2, -3, 1j, 2 - 1j]))
def test_scale_covariance(n, m, l, seed, c):
    """Scaling one factor never changes the accept/reject verdict."""
    rng = np.random.default_rng(seed)
    A = tc.random_toeplitz(rng, n, m)
    B = tc.random_toeplitz(rng, m, l)
    scaled = tc.AsymToeplitz(n, m, c * A.a0, c * A.a, np.conj(c) * A.alpha)
    assert np.array_equal(scaled.to_dense(), c * A.to_dense())
    before = tc.product_is_toeplitz(A, B, EXACT) is not None
    after = tc.product_is_toeplitz(scaled, B, EXACT) is not None
    assert before == after


class TestDeltaProduct:
    # the product identity: the interior of the displacement of A B is
    # x (x) conj y - u (x) conj v, every other entry of that difference
    # being 0
    def test_identity_factors(self):
        for n, m, l in [(3, 5, 4), (4, 4, 4), (2, 6, 3)]:
            D = displacement_interior(tc.AsymToeplitz.eye(n, m), tc.AsymToeplitz.eye(m, l))
            assert np.array_equal(D, np.zeros((n - 1, l - 1)))

    def test_corner_free_r1(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 8))
            n = int(rng.integers(1, m + 1))
            l = int(rng.integers(1, m + 1))
            A = tc.AsymToeplitz(n, m, 0.0, *_tails(rng, n, m))
            B = tc.AsymToeplitz(m, l, 0.0, *_tails(rng, m, l))
            dense = tc.displacement_dense(A.to_dense() @ B.to_dense())
            assert np.array_equal(displacement_interior(A, B), dense[1:, 1:])

    def test_all_regimes_integer_exact(self, rng):
        seen = set()
        for _ in range(100):
            n, m, l = rng.integers(1, 9, size=3)
            seen.add(tc.classify_regime(n, m, l))
            A = tc.random_toeplitz(rng, n, m)
            B = tc.random_toeplitz(rng, m, l)
            dense = tc.displacement_dense(A.to_dense() @ B.to_dense())
            assert np.array_equal(displacement_interior(A, B), dense[1:, 1:])
        assert seen == set(tc.Regime)

    def test_all_regimes_float(self, rng):
        for _ in range(50):
            n, m, l = rng.integers(1, 9, size=3)
            A = tc.AsymToeplitz(n, m, complex(*rng.standard_normal(2)),
                                *_float_tails(rng, n, m))
            B = tc.AsymToeplitz(m, l, complex(*rng.standard_normal(2)),
                                *_float_tails(rng, m, l))
            dense = tc.displacement_dense(A.to_dense() @ B.to_dense())
            err = np.max(np.abs(displacement_interior(A, B) - dense[1:, 1:]), initial=0.0)
            assert err <= 1e-10

    def test_realizes_no_factor(self, rng, monkeypatch):
        # a 4 x 65536 factor would take 4 MiB dense; the interior is checked
        # against the diagonal differences of sums written out entry by entry
        n, m, l = 4, 1 << 16, 4
        A = tc.random_toeplitz(rng, n, m)
        B = tc.random_toeplitz(rng, m, l)
        entry_a = [[A.entry(i, k) for k in range(m)] for i in range(n)]
        entry_b = [[B.entry(k, j) for j in range(l)] for k in range(m)]
        product = np.array([[sum(entry_a[i][k] * entry_b[k][j] for k in range(m))
                             for j in range(l)] for i in range(n)])

        def refuse(self):
            raise AssertionError("to_dense called")

        monkeypatch.setattr(tc.AsymToeplitz, "to_dense", refuse)
        D = displacement_interior(A, B)
        assert np.array_equal(D, product[1:, 1:] - product[:-1, :-1])

    def test_dimension_mismatch(self):
        with pytest.raises(tc.DimensionMismatch):
            displacement_interior(tc.AsymToeplitz.eye(2, 3), tc.AsymToeplitz.eye(4, 2))


def _tails(rng, n, m):
    a = np.zeros(n, dtype=complex)
    a[1:] = rng.integers(-5, 6, size=n - 1) + 1j * rng.integers(-5, 6, size=n - 1)
    alpha = np.zeros(m, dtype=complex)
    alpha[1:] = rng.integers(-5, 6, size=m - 1) + 1j * rng.integers(-5, 6, size=m - 1)
    return a, alpha


def _float_tails(rng, n, m):
    a = np.zeros(n, dtype=complex)
    a[1:] = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    alpha = np.zeros(m, dtype=complex)
    alpha[1:] = rng.standard_normal(m - 1) + 1j * rng.standard_normal(m - 1)
    return a, alpha


@pytest.mark.parametrize("decide, flip", [
    (tc.product_is_toeplitz, lambda A, B: (A, B)),
    (hankel_product_is_toeplitz, lambda A, B: (tc.flip_cols(A), tc.flip_rows_of(B))),
    (hankel_times_toeplitz_is_hankel, lambda A, B: (tc.flip_rows_of(A), B)),
], ids=["toeplitz", "hankel", "hankel_toeplitz"])
def test_product_predicates_scale_near_linearly(decide, flip):
    # median time at 4096 over median at 512, for the largest dimension with
    # the others in the ratios of each regime's shape: 8 for linear cost, 64
    # for quadratic; single timings are noisy, so the repeats are interleaved
    shapes = {tc.Regime.R1: (1, 2, 1), tc.Regime.R2: (2, 1, 2),
              tc.Regime.R3: (1, 2, 4), tc.Regime.R4: (4, 2, 1)}
    for (regime, shape), broken in itertools.product(shapes.items(), (False, True)):
        pairs = []
        for size in (512, 4096):
            n, m, l = (k * size // max(shape) for k in shape)
            pair = tc.gen_pair(tc.FamilySpec(regime, n, m, l, seed=size))
            pairs.append(flip(*(tc.perturb_to_break(pair) if broken else pair)))
        times = [[], []]
        for _ in range(9):
            for (left, right), spent in zip(pairs, times):
                start = time.perf_counter()
                assert (decide(left, right) is None) == broken, (regime, broken)
                spent.append(time.perf_counter() - start)
        small, large = (statistics.median(spent) for spent in times)
        assert large / small < 24, (regime, broken, large / small)
