import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toepcert as tc
from helpers import (
    EXACT,
    dense_eye,
    dense_flip,
    dense_shift,
    gaussian_toeplitz,
    outer,
    product_example_dense,
    unit_isometry_dense,
    with_shapes,
)


def compact(n, m, a0, a_tail, alpha_tail):
    a = np.zeros(n, dtype=complex)
    a[1:] = a_tail
    alpha = np.zeros(m, dtype=complex)
    alpha[1:] = alpha_tail
    return tc.AsymToeplitz(n, m, a0, a, alpha)


class TestEntry:
    def test_two_by_two(self):
        A = compact(2, 2, 5.0, [7.0], [np.conj(3.0)])
        assert A.entry(1, 0) == 7
        assert A.entry(0, 1) == 3
        assert A.entry(1, 1) == 5

    def test_zero_row_parameter_conjugates_to_zero(self):
        A = compact(1, 4, 1.0, [], [1j, 0.0, 2.0])
        assert A.entry(0, 2) == 0

    def test_diagonal_is_corner(self, rng):
        A = tc.random_toeplitz(rng, 4, 7)
        for k in range(4):
            assert A.entry(k, k) == A.a0

    def test_out_of_range(self):
        A = tc.AsymToeplitz.eye(2, 3)
        with pytest.raises(IndexError):
            A.entry(2, 0)
        with pytest.raises(IndexError):
            A.entry(0, 3)
        with pytest.raises(IndexError):
            A.entry(-1, 0)


class TestValidation:
    def test_structural_zero_enforced(self):
        with pytest.raises(ValueError):
            tc.AsymToeplitz(2, 2, 0.0, [1.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            tc.AsymToeplitz(2, 2, 0.0, [0.0, 0.0], [0.0 + 1j, 0.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            tc.AsymToeplitz(2, 2, np.nan, [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            tc.AsymToeplitz(2, 2, 0.0, [0.0, np.inf], [0.0, 0.0])

    def test_rejects_bad_lengths(self):
        with pytest.raises(tc.DimensionMismatch):
            tc.AsymToeplitz(3, 2, 0.0, [0.0, 0.0], [0.0, 0.0])

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            tc.AsymToeplitz(0, 1, 0.0, [], [0.0])

    def test_numpy_integer_dims_stored_as_int(self, rng):
        A = tc.random_toeplitz(rng, *rng.integers(1, 6, size=2))
        assert type(A.n) is int and type(A.m) is int
        assert A.to_dense().shape == A.shape

    def test_rejects_non_integer_dims(self):
        with pytest.raises(ValueError, match="integers"):
            tc.AsymToeplitz(2.0, 2, 1.0, [0, 0], [0, 0])
        with pytest.raises(ValueError, match="integers"):
            tc.AsymToeplitz(2, "2", 1.0, [0, 0], [0, 0])

    def test_arrays_are_read_only(self):
        A = tc.AsymToeplitz.eye(2, 2)
        with pytest.raises(ValueError):
            A.a[1] = 5.0


class TestFromDense:
    def test_identity(self):
        A = tc.AsymToeplitz.from_dense(np.eye(3))
        assert A.a0 == 1
        assert not np.any(A.a) and not np.any(A.alpha)

    def test_unit_isometry_example(self):
        A = tc.AsymToeplitz.from_dense(unit_isometry_dense())
        s7 = np.sqrt(7.0)
        assert A.a0 == 0.5j
        assert np.array_equal(A.a, [0.0, 0.5, s7 / 4 + 0.25j])
        assert np.array_equal(A.alpha, [0.0, np.conj(0.25 - (s7 / 4) * 1j)])

    def test_rejects_non_toeplitz_with_position(self):
        with pytest.raises(tc.StructureError) as exc:
            tc.AsymToeplitz.from_dense(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert (exc.value.row, exc.value.col) == (1, 1)

    def test_tolerance_accepts_small_perturbation(self):
        M = np.eye(4, dtype=complex)
        M[2, 2] += 1e-12
        assert tc.AsymToeplitz.from_dense(M, tc.Tolerance(1e-9, 1e-9)).a0 == 1
        with pytest.raises(tc.StructureError):
            tc.AsymToeplitz.from_dense(M, EXACT)


class TestToDense:
    def test_two_by_two(self):
        A = compact(2, 2, 5.0, [7.0], [np.conj(3.0)])
        assert np.array_equal(A.to_dense(), np.array([[5, 3], [7, 5]], dtype=complex))

    def test_rectangular_identity(self):
        assert np.array_equal(tc.AsymToeplitz.eye(3, 5).to_dense(), dense_eye(3, 5))

    def test_unit_isometry_example(self):
        M = unit_isometry_dense()
        assert np.array_equal(tc.AsymToeplitz.from_dense(M).to_dense(), M)

    def test_roundtrip_random(self, rng):
        for _ in range(25):
            n, m = rng.integers(1, 9, size=2)
            A = tc.random_toeplitz(rng, n, m)
            assert tc.AsymToeplitz.from_dense(A.to_dense(), EXACT) == A


@st.composite
def compact_toeplitz(draw, max_dim=8):
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    ints = st.integers(-5, 5)
    pair = st.tuples(ints, ints)
    a = draw(st.lists(pair, min_size=n - 1, max_size=n - 1))
    alpha = draw(st.lists(pair, min_size=m - 1, max_size=m - 1))
    a0 = draw(pair)
    return compact(n, m, complex(*a0),
                   [complex(re, im) for re, im in a],
                   [complex(re, im) for re, im in alpha])


@settings(deadline=None)
@given(compact_toeplitz())
def test_roundtrip_is_exact(A):
    assert tc.AsymToeplitz.from_dense(A.to_dense(), EXACT) == A


@settings(deadline=None)
@given(compact_toeplitz())
def test_adjoint_matches_conjugate_transpose(A):
    assert np.array_equal(A.adjoint().to_dense(), A.to_dense().conj().T)


@settings(deadline=None)
@with_shapes
def test_rot180_reverses_both_axes(n, m, seed, scale_exp):
    A = gaussian_toeplitz(n, m, seed, scale_exp)
    R = A.rot180()
    assert np.array_equal(R.to_dense(), A.to_dense()[::-1, ::-1])
    assert R.rot180() == A
    assert not R.a.flags.writeable and not R.alpha.flags.writeable
    # the fields built without validation pass it
    assert tc.AsymToeplitz(R.n, R.m, R.a0, R.a, R.alpha) == R


class TestFromFirstRowCol:
    @pytest.mark.parametrize("row, col, error, message", [
        ([], [1], ValueError, "first_row and first_col must both be nonempty"),
        ([1], [], ValueError, "first_row and first_col must both be nonempty"),
        ([[1, 2], [3, 4]], [1, 2], ValueError,
         "first_row must be one-dimensional, got shape (2, 2)"),
        ([1, 2], [[1], [3]], ValueError,
         "first_col must be one-dimensional, got shape (2, 1)"),
        ([1, np.nan], [1, 2], ValueError, "first_row contains non-finite entries"),
        ([1, 2], [1, np.inf], ValueError, "first_col contains non-finite entries"),
        ([1, 2], [2, 3], ValueError,
         "first_row[0] = (1+0j) and first_col[0] = (2+0j) must agree"),
        ([], [], ValueError, "first_row and first_col must both be nonempty"),
    ])
    def test_rejects_with_same_error(self, row, col, error, message):
        with pytest.raises(error) as info:
            tc.AsymToeplitz.from_first_row_col(row, col)
        assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 5), (5, 1), (4, 6)])
    def test_fields_read_only_and_valid(self, rng, n, m):
        row = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        col = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        col[0] = row[0]
        A = tc.AsymToeplitz.from_first_row_col(row, col)
        assert not A.a.flags.writeable and not A.alpha.flags.writeable
        assert type(A.n) is int and type(A.m) is int and type(A.a0) is complex
        # the fields built without a second validation pass it
        assert tc.AsymToeplitz(A.n, A.m, A.a0, A.a, A.alpha) == A
        assert np.array_equal(A.first_row(), row) and np.array_equal(A.first_col(), col)
        # the caller's arrays stay independent of the result
        row[-1] += 1
        col[-1] += 1
        assert not np.array_equal(A.first_row(), row)
        assert not np.array_equal(A.first_col(), col)


    @given(st.integers(1, 12), st.integers(1, 12), st.data())
    @settings(max_examples=300)
    def test_fields_bit_identical_to_concatenated_copies(self, n, m, data):
        # the fields written in place over one copy per vector are, bit for
        # bit, the zero-prefixed concatenations of the checked vectors
        part = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                         st.floats(allow_nan=False, allow_infinity=False))
        row = np.array(data.draw(st.lists(part, min_size=2 * m, max_size=2 * m))).view(complex)
        col = np.array(data.draw(st.lists(part, min_size=2 * n, max_size=2 * n))).view(complex)
        col[0] = row[0]
        A = tc.AsymToeplitz.from_first_row_col(row, col)
        zero = np.zeros(1, dtype=complex)
        assert A.a.tobytes() == np.concatenate([zero, col[1:]]).tobytes()
        assert A.alpha.tobytes() == np.concatenate([zero, np.conj(row[1:])]).tobytes()
        assert np.complex128(A.a0).tobytes() == col[:1].tobytes()


class TestAdjoint:
    def test_involution(self, rng):
        A = tc.random_toeplitz(rng, 5, 3)
        assert A.adjoint().adjoint() == A
        # the adjoint shares the read-only fields, which stay read-only
        adj = A.adjoint()
        assert adj.a is A.alpha and adj.alpha is A.a
        for T in (adj, adj.adjoint()):
            assert not T.a.flags.writeable and not T.alpha.flags.writeable
            with pytest.raises(ValueError):
                T.a[0] = 1

    def test_swaps_parameters(self):
        A = compact(2, 2, 1j, [2.0], [3j])
        assert A.adjoint().a0 == -1j
        assert np.array_equal(A.adjoint().a, [0.0, 3j])
        assert np.array_equal(A.adjoint().alpha, [0.0, 2.0])

    def test_dense_cross_check(self, rng):
        A = tc.random_toeplitz(rng, 4, 6)
        assert np.array_equal(A.adjoint().to_dense(), A.to_dense().conj().T)


class TestFlips:
    def test_flip_cols_identity_gives_exchange(self):
        H = tc.flip_cols(tc.AsymToeplitz.eye(3, 3))
        assert np.array_equal(H.to_dense(), dense_flip(3))

    def test_flip_twice_restores(self, rng):
        A = tc.random_toeplitz(rng, 3, 4)
        assert np.array_equal(tc.flip_cols(A).to_dense()[:, ::-1], A.to_dense())

    def test_flip_cols_reverses_columns(self, rng):
        A = tc.random_toeplitz(rng, 3, 4)
        assert np.array_equal(tc.flip_cols(A).to_dense(), A.to_dense()[:, ::-1])

    def test_flip_rows_reverses_rows(self, rng):
        A = tc.random_toeplitz(rng, 5, 3)
        assert np.array_equal(tc.flip_rows_of(A).to_dense(), A.to_dense()[::-1, :])

    def test_rot180(self, rng):
        A = tc.random_toeplitz(rng, 4, 6)
        assert np.array_equal(A.rot180().to_dense(), A.to_dense()[::-1, ::-1])
        assert A.rot180().rot180() == A

    def test_hankel_anti_diagonal_invariant(self, rng):
        H = tc.flip_cols(tc.random_toeplitz(rng, 4, 5))
        D = H.to_dense()
        for i in range(1, 4):
            for j in range(4):
                assert D[i, j] == D[i - 1, j + 1]

    def test_hankel_from_dense_roundtrip(self, rng):
        H = tc.flip_cols(tc.random_toeplitz(rng, 4, 5))
        assert tc.AsymHankel.from_dense(H.to_dense(), EXACT) == H

    def test_hankel_from_dense_rejects(self):
        with pytest.raises(tc.StructureError):
            tc.AsymHankel.from_dense(np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_from_dense_names_both_entries(self):
        # the first break and the entry before it on its anti-diagonal (or
        # diagonal), as one message for either kind
        for cls, M, message, position in (
                (tc.AsymHankel, [[1, 2, 3], [2, 3, 4], [3, 5, 5]],
                 "not Hankel: entry (2, 1) = (5+0j) differs from entry (1, 2) = (4+0j)",
                 (2, 1)),
                (tc.AsymToeplitz, [[1, 2, 3], [4, 1, 2], [5, 4, 7j]],
                 "not Toeplitz: entry (2, 2) = 7j differs from entry (1, 1) = (1+0j)",
                 (2, 2))):
            with pytest.raises(tc.StructureError) as exc:
                cls.from_dense(np.array(M))
            assert str(exc.value) == message
            assert (exc.value.row, exc.value.col) == position

    def test_hankel_core_must_be_toeplitz(self, rng):
        A = tc.random_toeplitz(rng, 3, 4)
        for core, name in ((np.eye(2), "ndarray"), (tc.flip_cols(A), "AsymHankel")):
            with pytest.raises(TypeError) as exc:
                tc.AsymHankel(core)
            assert str(exc.value) == f"core must be an AsymToeplitz, got {name}"

    def test_hankel_builders_keep_their_cores(self, rng, tmp_path):
        A = tc.random_toeplitz(rng, 5, 3)
        assert tc.flip_cols(A).core is A
        assert tc.flip_rows_of(A).core == A.rot180()
        for H in (tc.flip_cols(A), tc.flip_rows_of(A)):
            assert tc.AsymHankel.from_dense(H.to_dense(), EXACT) == H
            tc.save_matrix(tmp_path / "h.json", H)
            loaded = tc.load_matrix(tmp_path / "h.json")
            assert type(loaded) is tc.AsymHankel and loaded == H

    def test_compact_kinds_equal_no_other_type(self, rng):
        # a Hankel matrix never equals its Toeplitz core, nor either one a
        # dense array, a list or None: __eq__ leaves other types to Python
        # (and a dense array's == to NumPy)
        A = tc.random_toeplitz(rng, 3, 3)
        H = tc.flip_cols(A)
        for M, other in ((A, H), (H, A)):
            for value in (other, A.to_dense(), A.to_dense().tolist(), None):
                assert M.__eq__(value) is NotImplemented
            assert M != other and M != A.to_dense().tolist() and M != None  # noqa: E711


class TestDenseOracles:
    def test_identity_product_collapses(self):
        P = tc.dense_mul(dense_eye(3, 5), dense_eye(5, 4))
        assert np.array_equal(P, dense_eye(3, 4))
        assert tc.dense_is_toeplitz(P, EXACT)

    def test_identity_collapse_both_orders(self):
        # whenever the inner dimension is not the strict minimum
        for n, m, l in [(3, 5, 4), (6, 4, 3), (2, 2, 2), (5, 3, 6)]:
            if n <= m or l <= m:
                P = dense_eye(n, m) @ dense_eye(m, l)
                assert np.array_equal(P, dense_eye(n, l))

    def test_worked_product_example(self):
        Ad, Bd = product_example_dense()
        P = tc.dense_mul(Ad, Bd)
        assert tc.dense_is_toeplitz(P, EXACT)
        assert P[0, 0] == 67  # ac + bd + 5*lam + 23*lam at the chosen values

    def test_counterexample(self):
        M = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert not tc.dense_is_toeplitz(M)
        assert not tc.dense_is_hankel(M)

    def test_single_row_or_column_is_both(self, rng):
        v = rng.standard_normal((1, 5))
        assert tc.dense_is_toeplitz(v, EXACT) and tc.dense_is_hankel(v, EXACT)

    def test_dimension_mismatch(self):
        with pytest.raises(tc.DimensionMismatch):
            tc.dense_mul(np.eye(2, 3), np.eye(2, 3))
        # each operand must be 2-D, nonempty and finite
        bad = {"2-D and nonempty": (np.ones(3), np.ones((0, 2))),
               "non-finite": (np.array([[1.0, np.nan]]), np.array([[np.inf], [1.0]]))}
        for message, operands in bad.items():
            for X in operands:
                for pair in ((X, np.eye(2)), (np.eye(2), X)):
                    with pytest.raises(ValueError, match=message):
                        tc.dense_mul(*pair)


class TestShiftIdentityAlgebra:
    def test_commutation_narrow(self):
        # S_n I = I S_m whenever n <= m
        for n, m in [(1, 1), (2, 5), (4, 4), (3, 7)]:
            lhs = dense_shift(n) @ dense_eye(n, m)
            rhs = dense_eye(n, m) @ dense_shift(m)
            assert np.array_equal(lhs, rhs)

    def test_commutation_tall_needs_correction(self):
        # S_n I = I S_m + e_m (x) eps_{m-1} whenever m < n
        for n, m in [(2, 1), (5, 2), (7, 6)]:
            lhs = dense_shift(n) @ dense_eye(n, m)
            e_m = np.zeros(n, dtype=complex)
            e_m[m] = 1.0
            eps_last = np.zeros(m, dtype=complex)
            eps_last[m - 1] = 1.0
            rhs = dense_eye(n, m) @ dense_shift(m) + outer(e_m, eps_last)
            assert np.array_equal(lhs, rhs)

    def test_exchange_involution(self):
        for k in (1, 2, 5):
            assert np.array_equal(dense_flip(k) @ dense_flip(k), np.eye(k))


class TestTolerance:
    def test_threshold_scales(self):
        tol = tc.Tolerance(1e-9, 1e-9)
        assert tol.threshold(100.0) == pytest.approx(1e-9 + 1e-7)

    @pytest.mark.parametrize("atol, rtol", [
        (float("nan"), 1e-9), (1e-9, float("nan")), (-1.0, 1e-9), (1e-9, -1e-12),
        (float("inf"), 1e-9), (1e-9, float("inf"))])
    def test_rejects_nonfinite_or_negative(self, atol, rtol):
        with pytest.raises(ValueError, match="finite and non-negative"):
            tc.Tolerance(atol, rtol)

    def test_degenerate_one_by_one(self):
        A = tc.AsymToeplitz(1, 1, 2.0, [0.0], [0.0])
        assert A.entry(0, 0) == 2
        assert np.array_equal(A.to_dense(), [[2.0]])
        assert tc.AsymToeplitz.from_dense(A.to_dense(), EXACT) == A


def test_root_api_is_small_and_resolves():
    assert len(tc.__all__) <= 29
    assert all(hasattr(tc, name) for name in tc.__all__)
