import inspect
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toepcert as tc
from toepcert import hankel, product
from helpers import (
    CORNER_SHAPES,
    EXACT,
    TOLS,
    dense_eye,
    dense_flip,
    factors_of,
    gaussian_toeplitz,
    lam_bits,
    nonzero_fill,
    reference_product_structure,
)


KINDS = ("TT", "HH", "HT", "TH")
# dyadic scalars and inverses keep generated pairs exactly proportional
LAMS = (2.0, -2.0, 2j, 1 + 1j, 0.5, -0.5j)
SIGNED_ZEROS = (complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0))


class TestHankelProduct:
    def test_identity_flips(self):
        H1 = tc.flip_cols(tc.AsymToeplitz.eye(3, 5))
        H2 = tc.flip_rows_of(tc.AsymToeplitz.eye(5, 4))
        cert = tc.product_is_toeplitz(H1, H2, EXACT)
        assert cert is not None
        assert np.array_equal(H1.to_dense() @ H2.to_dense(), dense_eye(3, 4))

    def test_matches_underlying_pair_certificate(self, rng):
        spec = tc.FamilySpec(tc.Regime.R1, 4, 5, 3, lam=2.0,
                             a_free=nonzero_fill(rng, 4),
                             b_free=nonzero_fill(rng, 4), seed=3)
        A, B = tc.gen_pair(spec)
        direct = tc.product_is_toeplitz(A, B, EXACT)
        viaflip = tc.product_is_toeplitz(tc.flip_cols(A), tc.flip_rows_of(B), EXACT)
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
        assert tc.product_is_toeplitz(H1, H2, EXACT) is None
        assert not tc.dense_is_toeplitz(H1.to_dense() @ H2.to_dense(), EXACT)

    def test_oracle_sweep(self, rng):
        for _ in range(200):
            n, m, l = rng.integers(1, 7, size=3)
            H1 = tc.flip_cols(tc.random_toeplitz(rng, n, m))
            H2 = tc.flip_rows_of(tc.random_toeplitz(rng, m, l))
            structured = tc.product_is_toeplitz(H1, H2, EXACT) is not None
            dense = tc.dense_is_toeplitz(H1.to_dense() @ H2.to_dense(), EXACT)
            assert structured == dense

    def test_dimension_mismatch(self):
        with pytest.raises(tc.DimensionMismatch):
            tc.product_is_toeplitz(tc.flip_cols(tc.AsymToeplitz.eye(2, 3)),
                                   tc.flip_cols(tc.AsymToeplitz.eye(4, 2)))


class TestHankelTimesToeplitz:
    def test_flipped_identity(self):
        H = tc.flip_rows_of(tc.AsymToeplitz.eye(3, 5))
        B = tc.AsymToeplitz.eye(5, 4)
        assert tc.product_is_toeplitz(H, B, EXACT) is not None
        assert tc.dense_is_hankel(H.to_dense() @ B.to_dense(), EXACT)

    def test_generated_pair(self, rng):
        spec = tc.FamilySpec(tc.Regime.R2, 6, 2, 5, lam=2.0, seed=5,
                             a_free=nonzero_fill(rng, 1),
                             b_free=nonzero_fill(rng, 1), a0=1.0, b0=1.0)
        A, B = tc.gen_pair(spec)
        H = tc.flip_rows_of(A)
        assert tc.product_is_toeplitz(H, B, EXACT) is not None
        assert tc.dense_is_hankel(H.to_dense() @ B.to_dense(), EXACT)

    def test_perturbed_pair(self, rng):
        spec = tc.FamilySpec(tc.Regime.R4, 6, 4, 3, lam=2.0, seed=6,
                             a_free=nonzero_fill(rng, 3),
                             b_free=nonzero_fill(rng, 3), a0=1.0, b0=1.0)
        A2, B2 = tc.perturb_to_break(tc.gen_pair(spec), EXACT)
        H = tc.flip_rows_of(A2)
        assert tc.product_is_toeplitz(H, B2, EXACT) is None
        assert not tc.dense_is_hankel(H.to_dense() @ B2.to_dense(), EXACT)

    def test_oracle_sweep(self, rng):
        for _ in range(200):
            n, m, l = rng.integers(1, 7, size=3)
            H = tc.flip_rows_of(tc.random_toeplitz(rng, n, m))
            B = tc.random_toeplitz(rng, m, l)
            structured = tc.product_is_toeplitz(H, B, EXACT) is not None
            dense = tc.dense_is_hankel(H.to_dense() @ B.to_dense(), EXACT)
            assert structured == dense


class TestProductStructure:
    # one Toeplitz pair (A, B) per regime, recombined into all four factor
    # kinds: H H = A B, H B = P (A B) and A H = (A B) P all keep structure
    # exactly when A B is Toeplitz
    DIMS = {tc.Regime.R1: (4, 5, 3), tc.Regime.R2: (6, 2, 5),
            tc.Regime.R3: (3, 4, 6), tc.Regime.R4: (6, 4, 3)}

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
            left, right = factors_of(kinds, *pair)
            cert = tc.product_is_toeplitz(left, right, EXACT)
            dense = tc.dense_mul(left.to_dense(), right.to_dense())
            assert (cert is not None) == oracle(dense, EXACT) == (not broken)

    def test_toeplitz_times_hankel_dimension_mismatch(self):
        with pytest.raises(tc.DimensionMismatch):
            tc.product_is_toeplitz(tc.AsymToeplitz.eye(3, 5),
                                   tc.flip_cols(tc.AsymToeplitz.eye(4, 2)))

    def test_hankel_names_decide_through_product_is_toeplitz(self, monkeypatch):
        # the benchmark calls each Hankel name with the two factors alone, and
        # its self-test flips hankel-large verdicts by patching
        # hankel.product_is_toeplitz, so each name must look it up there,
        # call it once with those factors and return its result
        A, B = tc.gen_pair(tc.FamilySpec(tc.Regime.R2, 6, 2, 5, seed=7))
        calls = []

        def recording(*args):
            calls.append(args)
            return calls[-1]

        monkeypatch.setattr(hankel, "product_is_toeplitz", recording)
        for decide, kinds in ((hankel.hankel_product_is_toeplitz, "HH"),
                              (hankel.hankel_times_toeplitz_is_hankel, "HT")):
            left, right = factors_of(kinds, A, B)
            assert len(inspect.signature(decide).parameters) == 2
            calls.clear()
            result = decide(left, right)
            assert len(calls) == 1
            assert result is calls[0]
            assert calls[0][0] is left and calls[0][1] is right and len(calls[0]) == 2


class TestFlipAlgebra:
    def test_double_row_flip(self, rng):
        A = tc.random_toeplitz(rng, 4, 6)
        Pn = dense_flip(4)
        assert np.array_equal(Pn @ (Pn @ A.to_dense()), A.to_dense())
        assert tc.flip_rows_of(A).core.rot180() == A

    def test_double_col_flip(self, rng):
        A = tc.random_toeplitz(rng, 4, 6)
        Pm = dense_flip(6)
        assert np.array_equal((A.to_dense() @ Pm) @ Pm, A.to_dense())
        assert tc.flip_cols(A).core == A

    def test_row_flip_core_is_dense_row_flip(self, rng):
        A = tc.random_toeplitz(rng, 5, 3)
        H = tc.flip_rows_of(A)
        assert np.array_equal(H.core.rot180().to_dense(),
                              dense_flip(5) @ H.to_dense())


# ---------------------------------------------------------------------------
# the decision against the route through built flipped cores
# ---------------------------------------------------------------------------

def _scaled(T, scale_exp):
    """T times 2**scale_exp, exactly, signed zeros kept."""
    def scale(v):
        return np.ldexp(np.asarray(v, dtype=complex).view(float), scale_exp).view(complex)
    return tc.AsymToeplitz(T.n, T.m, complex(scale([T.a0])[0]), scale(T.a), scale(T.alpha))


def _with_signed_zeros(T, rng):
    """T with a zero corner and structural zeros of random signs."""
    a, alpha = T.a.copy(), T.alpha.copy()
    a[0], alpha[0] = (SIGNED_ZEROS[i] for i in rng.integers(4, size=2))
    return replace(T, a0=SIGNED_ZEROS[int(rng.integers(4))], a=a, alpha=alpha)


def _pair(source, n, m, l, seed, scale_exp):
    rng = np.random.default_rng(seed)
    if source in ("pair", "broken"):
        spec = tc.FamilySpec(tc.classify_regime(n, m, l), n, m, l,
                             lam=LAMS[seed % len(LAMS)], seed=seed)
        A, B = tc.gen_pair(spec)
        if source == "broken":
            try:
                A, B = tc.perturb_to_break((A, B), EXACT)
            except ValueError:
                pass  # a zero tail or row leaves no interior entry to break
    else:
        A, B = gaussian_toeplitz(n, m, seed), gaussian_toeplitz(m, l, seed + 1)
        if source == "zero_corner":
            A, B = _with_signed_zeros(A, rng), _with_signed_zeros(B, rng)
    return _scaled(A, scale_exp), _scaled(B, scale_exp)


def assert_same_certificate(got, want, left, right, tol):
    assert (got is None) == (want is None)
    if want is None:
        return
    assert got.regime is want.regime
    assert lam_bits(got.lam) == lam_bits(want.lam)
    assert got.outcome.vanished == want.outcome.vanished
    assert (got.k, got.k_prime) == (want.k, want.k_prime)
    for name in "xyuv":
        mine, theirs = getattr(got, name), getattr(want, name)
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        assert mine.tobytes() == theirs.tobytes(), name
    assert got.verify(left, right, tol)


def _corner_examples(test):
    for n, m in CORNER_SHAPES:
        for source in ("pair", "broken", "zero_corner"):
            test = example(n, m, n, 0, 0, source)(test)
    return test


@settings(deadline=None, max_examples=150)
@_corner_examples
@given(st.integers(1, 96), st.integers(1, 96), st.integers(1, 96),
       st.integers(0, 2**32 - 2), st.integers(-40, 40),
       st.sampled_from(("pair", "broken", "random", "zero_corner")))
def test_product_structure_matches_flipped_core_route(n, m, l, seed, scale_exp, source):
    """Every factor kind decides as through rot180 cores and fresh vectors, bit for bit.

    Generated pairs are accepted, broken and random ones mostly rejected;
    zero-corner factors carry negative zeros in the corner and in the
    structural zeros, which the certificate must reproduce exactly.
    ``comparison_vectors`` of the pair are the certificate's vectors.
    """
    A, B = _pair(source, n, m, l, seed, scale_exp)
    for kinds in KINDS:
        left, right = factors_of(kinds, A, B)
        for tol in TOLS:
            want = reference_product_structure(left, right, tol)[1]
            assert_same_certificate(tc.product_is_toeplitz(left, right, tol), want,
                                    left, right, tol)
            if want is not None:
                *vectors, regime = product.comparison_vectors(left, right)
                assert regime is want.regime
                for name, vec in zip("xyuv", vectors):
                    assert vec.tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("n, m, l", [(8, 1 << 16, 8)] + [(n, m, n) for n, m in CORNER_SHAPES])
def test_hankel_decisions_build_no_flipped_core(monkeypatch, n, m, l):
    spec = tc.FamilySpec(tc.classify_regime(n, m, l), n, m, l, lam=2.0, seed=n + m)
    A, B = tc.gen_pair(spec)
    cases = [factors_of(kinds, A, B) for kinds in ("HH", "HT", "TH")]
    expected = [reference_product_structure(left, right, EXACT)[1] for left, right in cases]

    def refuse(self):
        raise AssertionError("rot180 called")

    monkeypatch.setattr(tc.AsymToeplitz, "rot180", refuse)
    for (left, right), want in zip(cases, expected):
        cert = tc.product_is_toeplitz(left, right, EXACT)
        assert cert is not None
        assert_same_certificate(cert, want, left, right, EXACT)


@pytest.mark.parametrize("kinds", KINDS)
def test_certificate_vectors_read_only(kinds):
    A, B = tc.gen_pair(tc.FamilySpec(tc.Regime.R2, 6, 2, 5, seed=7))
    factors = factors_of(kinds, A, B)
    cert = tc.product_is_toeplitz(*factors, EXACT)
    for name in "xyuv":
        with pytest.raises(ValueError):
            getattr(cert, name)[1] = 9
    assert cert.verify(*factors, EXACT)


# ---------------------------------------------------------------------------
# unfilled buffers
# ---------------------------------------------------------------------------

# one shape per regime, each of which every degenerate form accepts or refuses
REGIME_DIMS = {tc.Regime.R1: (5, 8, 6), tc.Regime.R2: (9, 4, 11),
               tc.Regime.R3: (3, 5, 12), tc.Regime.R4: (13, 5, 2)}


def _unfilled_buffer_pairs():
    for seed, (regime, dims) in enumerate(REGIME_DIMS.items()):
        pair = tc.gen_pair(tc.FamilySpec(regime, *dims, lam=LAMS[seed], seed=seed))
        yield pair
        yield tc.perturb_to_break(pair, EXACT)
        for form in tc.DEGENERATE_FORMS:
            try:
                yield tc.gen_degenerate(form, *dims, seed=seed)
            except tc.SpecificationError:
                pass  # a band form needs n <= m or l <= m


def test_unfilled_buffers_are_written_in_full(monkeypatch):
    """Every entry of a buffer allocated unfilled is written, structural zeros too.

    ``numpy.empty`` returns NaN-filled arrays for the whole test, so an
    unwritten entry would reach the match as NaN: each decision must still
    equal the route through built flipped cores bit for bit, and the
    structural zeros of x, v, u and y, which lead the four segments of
    every buffer matched, accepted or not, must be exactly 0.
    """
    empty = np.empty

    def nan_empty(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.dtype.kind in "fc":
            out.fill(np.nan)
        return out

    match = product._match
    heads = []

    def recording_match(cat, p, q, tol):
        s = p + q
        heads.append(cat[[0, p, s, s + p]])
        return match(cat, p, q, tol)

    monkeypatch.setattr(np, "empty", nan_empty)
    monkeypatch.setattr(product, "_match", recording_match)
    assert np.isnan(np.empty(3, dtype=complex)).all()
    decisions = 0
    for A, B in _unfilled_buffer_pairs():
        for kinds in KINDS:
            left, right = factors_of(kinds, A, B)
            for tol in TOLS:
                want = reference_product_structure(left, right, tol)[1]
                assert_same_certificate(tc.product_is_toeplitz(left, right, tol), want,
                                        left, right, tol)
                decisions += 1
    assert len(heads) >= decisions
    for head in heads:
        assert np.array_equal(head, np.zeros(4)), head


def test_large_decision_peak_memory():
    """One large H·T decision peaks at 36 bytes or less per buffer entry.

    The buffer (x, v, u, y) holds 2(n + l) complex entries, 16 bytes each.
    The match adds their moduli (8 bytes per entry) and the defects over
    half as many entries (8 bytes per buffer entry), whose moduli overwrite
    the first half of the first: 32 bytes in all.  Defects written next to
    the scaled sides, in a second buffer of full size with a modulus of its
    own, would make 48.
    """
    n, m, l = 4096, 1024, 2048
    A, B = tc.gen_pair(tc.FamilySpec(tc.Regime.R2, n, m, l, seed=12))
    H = tc.flip_rows_of(A)
    assert tc.product_is_toeplitz(H, B) is not None  # warm-up
    tracemalloc.start()
    try:
        cert = tc.product_is_toeplitz(H, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert is not None
    assert peak <= 36 * 2 * (n + l), peak / (2 * (n + l))
