import copy
import dataclasses
import itertools
import pickle
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import toepcert as tc
from toepcert import product
from toepcert.product import (
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
    factors_of,
    lam_bits,
    outer,
    product_example_dense,
    reference_comparison_vectors,
    reference_product_structure,
    reference_rank_one_equal,
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
            fused = rank_one_equal(x, y, xp, yp, tol)
            reference = reference_rank_one_equal(x, y, xp, yp, tol)
            assert (fused is None) == (reference is None)
            if reference is not None:
                assert lam_bits(fused.lam) == lam_bits(reference.lam)
                assert fused.vanished == reference.vanished


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
        assert cert.verify(A, B, EXACT)
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
        assert cert.verify(A, B, EXACT)
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
            pair = tc.gen_pair(spec)
            cert = tc.product_is_toeplitz(*pair, EXACT)
            assert cert is not None and cert.verify(*pair, EXACT)
            if cert.outcome.is_proportional:
                assert np.array_equal(cert.x, cert.lam * cert.u)
                assert np.array_equal(cert.v, np.conj(cert.lam) * cert.y)


def accepted_cases():
    """Parameters (label, left, right), with the label as id, of all four kind
    pairs for a proportional pair in each regime and a both-zero pair of
    each degenerate form."""
    pairs = [(regime.name, tc.gen_pair(tc.FamilySpec(regime, n, m, l, lam=1 + 1j, seed=3)))
             for regime, (n, m, l) in ((tc.Regime.R1, (4, 6, 5)), (tc.Regime.R2, (7, 3, 5)),
                                       (tc.Regime.R3, (3, 5, 8)), (tc.Regime.R4, (8, 4, 3)))]
    pairs += [(form, tc.gen_degenerate(form, n, m, l, seed=3))
              for form, (n, m, l) in zip(tc.DEGENERATE_FORMS,
                                         ((4, 6, 5), (6, 5, 4), (7, 5, 6), (3, 5, 8)))]
    return [pytest.param(label, *factors_of(kinds, A, B), id=f"{label}-{kinds}")
            for label, (A, B) in pairs for kinds in ("TT", "HH", "HT", "TH")]


ACCEPTED_CASES = accepted_cases()


class TestCertificateBuiltLazily:
    """A decision builds only what it returns: a rejection cuts no view, and
    a certificate cuts its four vectors from the matched buffer, all
    together, when one is first read.  What a reader sees is unchanged."""

    @pytest.fixture
    def cuts(self, monkeypatch):
        calls = []
        views = product._views

        def counting(*args):
            calls.append(args)
            return views(*args)

        monkeypatch.setattr(product, "_views", counting)
        return calls

    @pytest.mark.parametrize("label, left, right", ACCEPTED_CASES)
    def test_vectors_as_the_reference_in_every_read_order(self, label, left, right):
        want = reference_product_structure(left, right)[1]
        assert want is not None
        cert = tc.product_is_toeplitz(left, right)
        assert cert.outcome.is_both_zero is (label in tc.DEGENERATE_FORMS)
        for order in itertools.permutations("xyuv"):
            cert = tc.product_is_toeplitz(left, right)
            got = {name: getattr(cert, name) for name in order}
            buffer = got["x"].base
            for name, vec in got.items():
                mine, theirs = vec, getattr(want, name)
                assert (mine.dtype, mine.shape, mine.tobytes()) == (
                    theirs.dtype, theirs.shape, theirs.tobytes())
                assert not mine.flags.writeable
                assert vec.base is buffer and np.shares_memory(vec, buffer)
                assert getattr(cert, name) is vec
            assert product._recorded(cert) == product._recorded(want)

    @pytest.mark.parametrize("label, left, right", ACCEPTED_CASES[::3])
    def test_unread_certificate_copies_and_prints_as_read(self, label, left, right):
        want = product._recorded(tc.product_is_toeplitz(left, right))
        read = tc.product_is_toeplitz(left, right)
        read.x
        for make in (dataclasses.replace, copy.copy, copy.deepcopy,
                     lambda c: pickle.loads(pickle.dumps(c))):
            cert = tc.product_is_toeplitz(left, right)
            other = make(cert)
            assert product._recorded(other) == want == product._recorded(cert)
        cert = tc.product_is_toeplitz(left, right)
        assert repr(cert) == repr(read)
        cert = tc.product_is_toeplitz(left, right)
        assert cert == cert
        cert = tc.product_is_toeplitz(left, right)
        assert dataclasses.replace(cert) == cert
        cert = tc.product_is_toeplitz(left, right)
        assert copy.copy(cert) == cert

    def test_no_other_attribute(self):
        cert = tc.product_is_toeplitz(tc.AsymToeplitz.eye(3, 4), tc.AsymToeplitz.eye(4, 2))
        assert not hasattr(cert, "no_such_field")
        assert hasattr(cert, "x")
        # an instance with no fields at all, as copy and pickle first make one
        bare = object.__new__(tc.ProductCertificate)
        assert not hasattr(bare, "x") and not hasattr(bare, "__setstate__")

    def test_views_cut_once_and_only_when_read(self, cuts):
        A, B = tc.gen_pair(tc.FamilySpec(tc.Regime.R4, 9, 4, 3, lam=2j, seed=1))
        assert tc.product_is_toeplitz(*tc.perturb_to_break((A, B))) is None
        assert cuts == []
        cert = tc.product_is_toeplitz(A, B)
        assert (cert.regime, cert.k, cert.k_prime, cert.lam) == (tc.Regime.R4, 2, 0, 2j)
        assert cert.outcome.is_proportional
        assert cuts == []
        for first in "xyuv":
            cert = tc.product_is_toeplitz(A, B)
            del cuts[:]
            getattr(cert, first)
            assert len(cuts) == 1
            for name in "xyuvxyuv":
                getattr(cert, name)
            product._recorded(cert)
            repr(cert)
            assert len(cuts) == 1
        # comparison_vectors cuts its views once, read-only
        del cuts[:]
        x, y, u, v, regime = comparison_vectors(A, B)
        assert len(cuts) == 1 and regime is tc.Regime.R4
        assert not any(vec.flags.writeable for vec in (x, y, u, v))

    def test_certificate_built_by_the_constructor_cuts_nothing(self, cuts):
        A, B = tc.gen_pair(tc.FamilySpec(tc.Regime.R1, 3, 5, 4, lam=0.5, seed=2))
        cert = tc.product_is_toeplitz(A, B)
        built = tc.ProductCertificate(cert.regime, cert.x, cert.y, cert.u, cert.v,
                                      cert.outcome, cert.k, cert.k_prime)
        del cuts[:]
        assert built.verify(A, B)
        assert product._recorded(built) == product._recorded(cert)
        # verify read the vectors of the certificate it decided, not of this one
        assert len(cuts) == 1


class TestCertificateEquality:
    """``==`` compares what ``verify`` compares, bit for bit, and never
    raises; equal certificates hash alike."""

    @pytest.mark.parametrize("label, left, right", ACCEPTED_CASES[::2])
    def test_equal_but_distinct_arrays(self, label, left, right):
        cert = tc.product_is_toeplitz(left, right)
        built = tc.ProductCertificate(cert.regime, *(getattr(cert, name).copy()
                                                     for name in "xyuv"),
                                      cert.outcome, cert.k, cert.k_prime)
        for other in (tc.product_is_toeplitz(left, right), built,
                      pickle.loads(pickle.dumps(cert)),
                      pickle.loads(pickle.dumps(tc.product_is_toeplitz(left, right)))):
            assert other.x is not cert.x
            assert cert == other and other == cert and not cert != other
            assert hash(cert) == hash(other)
        assert len({cert, built}) == 1

    @pytest.mark.parametrize("label, left, right", ACCEPTED_CASES[1::6])
    def test_unequal_on_any_recorded_bit(self, label, left, right):
        cert = tc.product_is_toeplitz(left, right)
        for other in mutations(cert):
            assert cert != other and not other == cert
        # a zero part's sign is a bit like any other
        signed = cert.x.copy()
        signed[0] = complex(-0.0, signed[0].imag)
        assert cert != replace(cert, x=signed)
        assert cert != "certificate" and cert != None  # noqa: E711


# (n, m, l) in each regime from three positive draws
REGIME_DIMS = {
    tc.Regime.R1: lambda a, b, c: (a, max(a, b) + c - 1, b),
    tc.Regime.R2: lambda a, b, c: (a + b, a, a + c),
    tc.Regime.R3: lambda a, b, c: (a, a + b - 1, a + b - 1 + c),
    tc.Regime.R4: lambda a, b, c: (a + b - 1 + c, a + b - 1, a),
}


def mutations(cert):
    """Copies of ``cert`` that each change one thing it records: one entry of
    x, y, u or v by one ulp of its real part, lam by one ulp (or, on a
    both-zero outcome, a lam given), ``vanished``, the regime, k or k'; and,
    unless its vectors are all zero, four zero vectors with all vanished."""
    for name in "xyuv":
        vec = getattr(cert, name)
        for i in {0, len(vec) // 2, len(vec) - 1}:
            changed = vec.copy()
            changed[i] = complex(np.nextafter(vec[i].real, np.inf), vec[i].imag)
            yield replace(cert, **{name: changed})
    lam, vanished = cert.lam, cert.outcome.vanished
    if lam is None:
        yield replace(cert, outcome=RankOneOutcome(1.0 + 0j))
    else:
        yield replace(cert, outcome=RankOneOutcome(complex(np.nextafter(lam.real, np.inf),
                                                           lam.imag)))
        yield replace(cert, outcome=RankOneOutcome(complex(lam.real,
                                                           np.nextafter(lam.imag, -np.inf))))
    toggled = tuple(name for name in ("x", "y", "xp", "yp")
                    if (name in vanished) != (name == "x"))
    yield replace(cert, outcome=RankOneOutcome(lam, toggled))
    regimes = list(tc.Regime)
    yield replace(cert, regime=regimes[(regimes.index(cert.regime) + 1) % 4])
    yield replace(cert, k=cert.k + 1)
    yield replace(cert, k_prime=cert.k_prime + 1)
    vectors = [getattr(cert, name) for name in "xyuv"]
    if any(np.any(vec) for vec in vectors):
        zeros = [np.zeros_like(vec) for vec in vectors]
        yield replace(cert, **dict(zip("xyuv", zeros)),
                      outcome=RankOneOutcome(None, ("x", "y", "xp", "yp")))


@pytest.mark.parametrize("regime", list(tc.Regime))
@settings(deadline=None, max_examples=100)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1),
       st.sampled_from(("pair", *tc.DEGENERATE_FORMS)),
       st.sampled_from((2.0, -0.5j, 1 + 1j, 3 - 2j)))
def test_verify_re_decides_from_the_factors(regime, a, b, c, seed, source, lam):
    """Every certificate of a generated pair, of each kind pair, verifies
    against its own factors, and no other certificate does: not one with a
    recorded part changed (:func:`mutations`), and not the pair's
    certificate against the factors of ``perturb_to_break``."""
    n, m, l = REGIME_DIMS[regime](a, b, c)
    assert tc.classify_regime(n, m, l) is regime
    if source == "pair":
        A, B = tc.gen_pair(tc.FamilySpec(regime, n, m, l, lam=lam, seed=seed))
    else:
        # row_band_a needs n <= m, col_band_b needs l <= m
        assume(not (source == "row_band_a" and n > m or source == "col_band_b" and l > m))
        A, B = tc.gen_degenerate(source, n, m, l, seed=seed)
    broken = (tc.perturb_to_break((A, B))
              if source == "pair" and np.any(A.a) and np.any(B.alpha) else None)
    for kinds in ("TT", "HH", "HT", "TH"):
        left, right = factors_of(kinds, A, B)
        cert = tc.product_is_toeplitz(left, right)
        assert cert is not None and cert.verify(left, right)
        assert replace(cert).verify(left, right)
        for changed in mutations(cert):
            assert not changed.verify(left, right)
        if broken is not None:
            assert not cert.verify(*factors_of(kinds, *broken))


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


@pytest.mark.parametrize("flip", [
    lambda A, B: (A, B),
    lambda A, B: (tc.flip_cols(A), tc.flip_rows_of(B)),
    lambda A, B: (tc.flip_rows_of(A), B),
], ids=["toeplitz", "hankel", "hankel_toeplitz"])
def test_product_predicates_scale_near_linearly(flip):
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
                assert (tc.product_is_toeplitz(left, right) is None) == broken, (regime, broken)
                spent.append(time.perf_counter() - start)
        small, large = (statistics.median(spent) for spent in times)
        assert large / small < 24, (regime, broken, large / small)
