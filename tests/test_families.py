import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import toepcert as tc
from toepcert.cli import main
from toepcert.families import SpecificationError, gen_isometry
from toepcert.isometry import hankel_is_isometry
from helpers import EXACT, nonzero_fill, product_example_dense, reference_gen_pair


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


def _outcome(build, spec):
    """The pair's bytes, or the type and message of what building it raised."""
    try:
        pair = build(spec)
    except Exception as exc:  # the comparison is the point: any error counts
        return type(exc), str(exc)
    return [(M.n, M.m, np.complex128(M.a0).tobytes(), M.a.tobytes(), M.alpha.tobytes())
            for M in pair]


@st.composite
def family_specs(draw):
    """Specs in every regime, with n and l at, one past or anywhere around
    multiples of m, and blocks on both sides of the per-entry lengths."""
    m = draw(st.one_of(st.integers(1, 80), st.sampled_from((1, 7, 8, 47, 48))))

    def outer():
        kind = draw(st.sampled_from(("any", "multiple", "past")))
        if kind == "any":
            return draw(st.integers(1, 300))
        return draw(st.integers(1, 5)) * m + (kind == "past")

    n, l = outer(), outer()
    gaussian = st.builds(complex, st.integers(-5, 5), st.integers(-5, 5)).filter(bool)
    lam = draw(st.one_of(
        st.sampled_from((2.0, -0.5j, 1 + 1j)),
        st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                           allow_nan=False, allow_infinity=False),
        st.builds(lambda k1, k2: k1 / k2, gaussian, gaussian),
        # overflows the tall column tail or the wide row tail
        st.sampled_from((1e300, 1e-300j, 1e200 + 1e200j))))
    given_corners = draw(st.booleans())
    given_free = draw(st.booleans())
    vectors = st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                          allow_infinity=False),
                       min_size=m - 1, max_size=m - 1)
    return tc.FamilySpec(
        tc.classify_regime(n, m, l), n, m, l, lam=lam,
        a0=draw(st.complex_numbers(max_magnitude=10)) if given_corners else None,
        b0=draw(st.complex_numbers(max_magnitude=10)) if given_corners else None,
        a_free=np.array(draw(vectors), dtype=complex) if given_free else None,
        b_free=np.array(draw(vectors), dtype=complex) if given_free else None,
        seed=draw(st.integers(0, 2**32 - 1)))


@settings(deadline=None, max_examples=300)
@given(family_specs())
@example(tc.FamilySpec(tc.Regime.R2, 200, 1, 150, lam=0.3 + 0.7j))
@example(tc.FamilySpec(tc.Regime.R2, 96, 48, 97, lam=0.3 + 0.7j, seed=1))
@example(tc.FamilySpec(tc.Regime.R3, 8, 8, 17, lam=-0.7 + 0.2j, seed=2))
@example(tc.FamilySpec(tc.Regime.R2, 4000, 1, 3000, lam=2.0))
# quotient blocks shorter than 8, down a tail that is not whole rows of m
@example(tc.FamilySpec(tc.Regime.R3, 2, 2, 23, lam=-0.7 + 0.2j, seed=3))
@example(tc.FamilySpec(tc.Regime.R2, 30, 5, 37, lam=0.6 - 0.5j, seed=4))
@example(tc.FamilySpec(tc.Regime.R3, 4, 7, 52, lam=1.5 + 0.25j, seed=5))
# |Im| > |Re|: Smith's other branch
@example(tc.FamilySpec(tc.Regime.R3, 3, 5, 41, lam=0.2 + 0.9j, seed=6))
# the wide row tail overflows
@example(tc.FamilySpec(tc.Regime.R3, 2, 3, 40, lam=1e-300j))
def test_matches_reference_gen_pair(spec):
    # every derived entry rounds as the per-entry NumPy scalar loop's did,
    # and a pair that overflows fails with the same error
    assert _outcome(tc.gen_pair, spec) == _outcome(reference_gen_pair, spec)


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
            for cert in (tc.is_isometry(A), hankel_is_isometry(tc.flip_cols(A))):
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


# ---------------------------------------------------------------------------
# pinned outputs: seeded generator output must not drift
# ---------------------------------------------------------------------------

def _digest(*matrices) -> str:
    """SHA-256 of each matrix's (n, m, a0, a, alpha) as native bytes."""
    h = hashlib.sha256()
    for M in matrices:
        h.update(np.array([M.n, M.m], dtype=np.int64).tobytes())
        h.update(np.complex128(M.a0).tobytes())
        h.update(M.a.tobytes())
        h.update(M.alpha.tobytes())
    return h.hexdigest()


NON_DYADIC = 0.3 + 0.7j
# each regime with a dyadic and a non-dyadic scalar, a tall m = 1 pair and
# wide right factors (l >> m) with short and long geometric blocks
PINNED_SPECS = {
    "r1-2": (tc.Regime.R1, 9, 12, 7, 2.0),
    "r1-c": (tc.Regime.R1, 9, 12, 7, NON_DYADIC),
    "r2-2": (tc.Regime.R2, 150, 40, 130, 2.0),
    "r2-c": (tc.Regime.R2, 150, 40, 130, NON_DYADIC),
    "r3-2": (tc.Regime.R3, 30, 40, 170, 2.0),
    "r3-c": (tc.Regime.R3, 30, 40, 170, NON_DYADIC),
    "r4-2": (tc.Regime.R4, 170, 40, 30, 2.0),
    "r4-c": (tc.Regime.R4, 170, 40, 30, NON_DYADIC),
    "m1-tall": (tc.Regime.R2, 120, 1, 90, NON_DYADIC),
    "wide-short-blocks": (tc.Regime.R3, 5, 6, 400, NON_DYADIC),
    "wide-long-blocks": (tc.Regime.R2, 300, 64, 900, NON_DYADIC),
}


def _pinned_pair(name):
    regime, n, m, l, lam = PINNED_SPECS[name]
    return tc.gen_pair(tc.FamilySpec(regime, n, m, l, lam=lam,
                                     seed=list(PINNED_SPECS).index(name)))


def _pinned_output(case, tmp_path) -> str:
    kind, name = case.split(" ", 1)
    if kind == "gen_pair":
        return _digest(*_pinned_pair(name))
    if kind == "gen_degenerate":
        dims = {"row_band_a": (5, 9, 7), "col_band_b": (8, 9, 4),
                "lambda_zero": (6, 4, 11), "lambda_infinity": (11, 4, 6)}[name]
        return _digest(*tc.gen_degenerate(name, *dims, seed=17))
    if kind == "perturb_to_break":
        return _digest(*tc.perturb_to_break(_pinned_pair(name)))
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["generate", "--regime", "r2", "-n", "40", "-m", "7", "-l", "33",
                 "--lambda", "0.3,0.7", "--seed", "5",
                 "--out-a", str(out_a), "--out-b", str(out_b)]) == 0
    return hashlib.sha256(out_a.read_bytes() + out_b.read_bytes()).hexdigest()


# recorded from the per-entry generator (helpers.reference_gen_pair) on
# x86-64 (little-endian doubles), which CI runs; they hold wherever NumPy
# rounds as it does there
PINNED_DIGESTS = {
    "gen_pair r1-2": "600223c2863a4375ca8ed66ef0c779c3811b695195a96215301623c765c637cb",
    "gen_pair r1-c": "a373c1ce841b1d00594eeae0e73f321ba634f83635d6c4c75d8e44a4ca7cca78",
    "gen_pair r2-2": "1384ee193ecd2a467a3c802a9da024c840dbdf48a9eb429ffc62b4dde0cbbe8e",
    "gen_pair r2-c": "b9166e90559d0a3c7e011e0b5e4729e02ab22579b8905c597efb4284fb0037d6",
    "gen_pair r3-2": "5e9ff5549e6a3789c48659e0ce857c5648b04622417dafa1663999158d7d925c",
    "gen_pair r3-c": "e3b456df32f0dbc514851f523101bf2fc56b944996bcd36377bbf61f8afd7b7b",
    "gen_pair r4-2": "bf21afd4936b91ccebb6e63f8f0e01db1e1506173b8b85b90cd397c1ce0edf6b",
    "gen_pair r4-c": "511c819e0995a5d2b855a0199810a21d37a687ef209261c2690fb37174b36235",
    "gen_pair m1-tall": "4f4b02cea970de83c1faae7260db5e688d84b16bfaff344607aa745659c1140c",
    "gen_pair wide-short-blocks": "c9073c6bddacd7aa4d846ce89d5d424357b0135d267924679069e7b7c1c20c67",
    "gen_pair wide-long-blocks": "1b4304d71deed706de661a5e4ba6fc2474f6e341e673dffd39856ad69a94d06c",
    "gen_degenerate row_band_a": "13450dbb23808be7b3e7f397d4f34e4873627e7d8715f19528cf5bc7455723ef",
    "gen_degenerate col_band_b": "bd592e2d7ff254a374e71d6fc7b56c80eea4410bd539cca26277a0862bfc55f5",
    "gen_degenerate lambda_zero": "b2bf4241c1fe2c4b52585ee46a04f44860693f6371a0b3dbd77c4487ddc6bf09",
    "gen_degenerate lambda_infinity": "b8117e9738e8a686076b805f0e0a843fd574b5cbe7cd86a989ff8aa216c39383",
    "perturb_to_break r2-c": "48f9b55f2c2af4bdf609be6b0bad91d85ff4e84c0afb7ccd5d670501d76716a7",
    "perturb_to_break r3-2": "81a73b6458a3703965b99770827fc38c9b3e6480aaba947950b662c69e774386",
    "generate r2-40-7-33": "480a632afb08166ee95606769f4a786b849e52913abbfeb63c92d98574a6e782",
}


@pytest.mark.parametrize("case", sorted(PINNED_DIGESTS))
def test_pinned_output(case, tmp_path):
    assert _pinned_output(case, tmp_path) == PINNED_DIGESTS[case]
