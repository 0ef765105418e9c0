"""Exact symmetries of the product and isometry decisions.

Each relation changes the input so that the product, or its structure, is
exactly what it was, so the decision must not change with it (Chen et al.,
"Metamorphic testing: a review of challenges and opportunities", *ACM
Computing Surveys* 51(1), 2018).  None forms a dense product, so the
inputs reach 4096 in every size regime R1-R4:

* Hankel insertion: (A P)(P B) = A B, the pair (flip_cols(A), flip_rows_of(B));
* unimodular scalars: (c A) B = A (c B) = c (A B) for c in {1, -1, i, -i},
  scalings that are exact in floating point, for all four factor kinds;
* isometries: c A, flip_cols(A) and flip_rows_of(A) are isometries exactly
  when A is.

The balance (2^k A, 2^-k B), adjoint and rotation relations are left out:
they flip verdicts today (ROADMAP.md items 1, 2 and 14).
"""

import numpy as np
from hypothesis import example, given, reject, settings, strategies as st

import toepcert as tc
from toepcert.families import gen_isometry
from helpers import factors_of, lam_bits

UNIMODULAR = (1.0, -1.0, 1j, -1j)
# dyadic, unimodular and near-unimodular scalars: the non-dyadic ones give
# generated entries, and so match defects, that are rounded
LAMS = (2.0, -0.5j, 0.6 + 0.8j, complex(np.exp(0.3j)), 1 + 2.0**-20)
SIZE = st.integers(1, 4096)


def times(c: complex, T: tc.AsymToeplitz) -> tc.AsymToeplitz:
    """c T; ``alpha`` holds the conjugates of the first row, so it takes conj(c)."""
    return tc.AsymToeplitz(T.n, T.m, c * T.a0, c * T.a, np.conj(c) * T.alpha)


def outcome(cert):
    """What the relations keep: the verdict, lambda's bits and the vanished names.

    A zero part of lambda keeps its value but not its sign: with A's entries
    negated, x_p / u_p can round to 2 - 0j where A's gives 2 + 0j.  Adding
    +0 makes every zero part +0 and leaves the other bits as they are.
    """
    if cert is None:
        return None
    lam = None if cert.lam is None else cert.lam + 0j
    return cert.regime, lam_bits(lam), cert.outcome.vanished


@st.composite
def factor_pairs(draw):
    n, m, l = draw(SIZE), draw(SIZE), draw(SIZE)
    seed = draw(st.integers(0, 2**16))
    source = draw(st.sampled_from(("pair", "broken", *tc.DEGENERATE_FORMS)))
    try:
        if source in tc.DEGENERATE_FORMS:
            return tc.gen_degenerate(source, n, m, l, seed=seed)
        spec = tc.FamilySpec(tc.classify_regime(n, m, l), n, m, l,
                             lam=draw(st.sampled_from(LAMS)), seed=seed)
        pair = tc.gen_pair(spec)
        return tc.perturb_to_break(pair) if source == "broken" else pair
    except ValueError:
        # a band form needs n <= m or l <= m, a geometric block can leave
        # float64's range, and a zero tail leaves nothing to break
        reject()


def pair_example(regime, n, m, l, broken=False):
    pair = tc.gen_pair(tc.FamilySpec(regime, n, m, l, lam=0.6 + 0.8j, seed=n + m + l))
    return tc.perturb_to_break(pair) if broken else pair


@settings(deadline=None, max_examples=200)
@example(pair_example(tc.Regime.R1, 4096, 4096, 4095))
@example(pair_example(tc.Regime.R2, 4096, 17, 4001, broken=True))
@example(pair_example(tc.Regime.R3, 5, 2048, 4096))
@example(pair_example(tc.Regime.R4, 4096, 2048, 3, broken=True))
@given(factor_pairs())
def test_product_symmetries(pair):
    A, B = pair
    want = tc.product_is_toeplitz(A, B)
    inserted = tc.product_is_toeplitz(tc.flip_cols(A), tc.flip_rows_of(B))
    assert outcome(inserted) == outcome(want)
    if want is not None:
        for name in "xyuv":
            assert np.array_equal(getattr(inserted, name), getattr(want, name)), name
    for kinds in ("TT", "HH", "HT", "TH"):
        # a flip of c T is the flip of T times c
        want = outcome(tc.product_is_toeplitz(*factors_of(kinds, A, B)))
        for c in UNIMODULAR:
            for scaled in ((times(c, A), B), (A, times(c, B))):
                got = tc.product_is_toeplitz(*factors_of(kinds, *scaled))
                assert outcome(got) == want, (kinds, c)


@st.composite
def isometry_candidates(draw):
    """Shifts c S by k, isometries exactly when |c| = 1 and k <= n - m, and
    ``gen_isometry`` matrices, with row parameters nudged towards the
    tolerance or past it."""
    n, m = draw(SIZE), draw(SIZE)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()) or m > n:
        k = draw(st.integers(0, n - 1))
        c = draw(st.sampled_from((*UNIMODULAR, complex(np.exp(0.7j)), 1 + 1e-10, 2.0)))
        a = np.zeros(n, dtype=complex)
        if k:
            a[k] = c
        return tc.AsymToeplitz(n, m, c if k == 0 else 0.0, a, np.zeros(m))
    A = gen_isometry(rng, n, m)
    noise = rng.standard_normal(m) * 10.0 ** draw(st.integers(-13, -7))
    noise[0] = 0
    return tc.AsymToeplitz(n, m, A.a0, A.a, A.alpha + noise)


@settings(deadline=None, max_examples=200)
@given(isometry_candidates())
def test_isometry_symmetries(A):
    want = tc.is_isometry(A).accepted
    for M in (*(times(c, A) for c in UNIMODULAR), tc.flip_cols(A), tc.flip_rows_of(A)):
        assert tc.is_isometry(M).accepted == want
