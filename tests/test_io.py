import json
import re
import statistics
import time

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

import toepcert as tc
from toepcert import core
from toepcert.io import _parse_entries, matrix_to_text, parse_matrix
from helpers import reference_load_matrix, reference_matrix_to_text, reference_parse_entries

# the largest integer that float() still rounds to a finite double
MAX_FLOAT_INT = 2**1024 - 2**970 - 1
MAX_FLOAT = 1.7976931348623157e308


def roundtrip(obj):
    return parse_matrix(json.loads(matrix_to_text(obj)))


class TestRoundtrip:
    def test_toeplitz_bit_identical(self, rng):
        A = tc.random_toeplitz(rng, 4, 6)
        text = matrix_to_text(A)
        again = parse_matrix(json.loads(text))
        assert again == A
        assert matrix_to_text(again) == text

    def test_hankel_bit_identical(self, rng):
        H = tc.flip_cols(tc.random_toeplitz(rng, 5, 3))
        text = matrix_to_text(H)
        again = parse_matrix(json.loads(text))
        assert again == H
        assert matrix_to_text(again) == text

    def test_dense_bit_identical(self, rng):
        M = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        text = matrix_to_text(M)
        again = parse_matrix(json.loads(text))
        assert np.array_equal(again, M)
        assert matrix_to_text(again) == text

    def test_awkward_floats_survive(self):
        # 17 significant digits round-trip doubles exactly
        values = [0.1, 1 / 3, np.pi, 2 ** -52, 1e300, -0.0]
        M = np.array([values], dtype=complex) + 1j * np.array([values])
        assert np.array_equal(roundtrip(M).view(np.uint64), M.view(np.uint64))

    def test_negative_zero_survives(self, tmp_path):
        A = tc.AsymToeplitz(2, 3, complex(-0.0, 0.0), [0, complex(0.0, -0.0)],
                            [0, complex(-0.0, -0.0), 1])
        path = tmp_path / "z.json"
        tc.save_matrix(path, A)
        again = tc.load_matrix(path)
        for got, want in ((again.a0, A.a0), (again.a, A.a), (again.alpha, A.alpha)):
            assert np.complex128(got).tobytes() == np.complex128(want).tobytes()
        assert matrix_to_text(again) == path.read_text(encoding="utf-8")

    def test_hand_written_minus_zero_reads_as_plus_zero(self):
        # -0 is the integer 0 in JSON
        M = parse_matrix({"kind": "dense", "rows": 1, "cols": 1, "data": [[-0, -0.0]]})
        assert M.view(np.uint64).tolist() == [[0, 1 << 63]]

    def test_file_helpers(self, tmp_path, rng):
        A = tc.random_toeplitz(rng, 3, 3)
        path = tmp_path / "a.json"
        tc.save_matrix(path, A)
        assert tc.load_matrix(path) == A

    def test_keys_are_sorted(self, rng):
        doc = json.loads(matrix_to_text(tc.random_toeplitz(rng, 2, 2)))
        assert list(doc) == sorted(doc)


# every finite double, with both zeros, the smallest subnormal and the
# largest float drawn as often as the rest
FINITE_PARTS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.sampled_from([0.0, -0.0, 5e-324, -5e-324, MAX_FLOAT, -MAX_FLOAT]))


@st.composite
def written_matrices(draw):
    """A Toeplitz, Hankel or dense matrix of shape 1..40 x 1..40."""
    kind = draw(st.sampled_from(("toeplitz", "hankel", "dense")))
    n, m = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    count = n * m if kind == "dense" else n + m - 1
    values = draw(arrays(np.float64, 2 * count, elements=FINITE_PARTS)).view(complex)
    if kind == "dense":
        return values.reshape(n, m)
    A = tc.AsymToeplitz(n, m, values[0], np.concatenate([[0], values[1:n]]),
                        np.concatenate([[0], values[n:]]))
    # the writer reads a Hankel file's first row as a reversed view of the core's
    return A if kind == "toeplitz" else tc.AsymHankel(A)


class TestWriter:
    @given(written_matrices())
    @example(np.array([[MAX_FLOAT - 5e-324j]]))
    @example(tc.AsymHankel(tc.AsymToeplitz(2, 3, -0.0, [0, 5e-324], [0, -MAX_FLOAT, 0.1j])))
    def test_matches_per_part_formatting(self, obj):
        assert matrix_to_text(obj) == reference_matrix_to_text(obj)


class TestHankelFileSemantics:
    def test_borders_are_literal(self, rng):
        H = tc.flip_cols(tc.random_toeplitz(rng, 4, 5))
        doc = json.loads(matrix_to_text(H))
        dense = H.to_dense()
        first_row = np.array([complex(re, im) for re, im in doc["first_row"]])
        last_col = np.array([complex(re, im) for re, im in doc["last_col"]])
        assert np.array_equal(first_row, dense[0, :])
        assert np.array_equal(last_col, dense[:, -1])

    def test_corner_invariant_enforced(self):
        doc = {"kind": "hankel", "rows": 2, "cols": 2,
               "first_row": [[1, 0], [2, 0]],
               "last_col": [[9, 0], [3, 0]]}
        with pytest.raises(tc.MatrixFileError):
            parse_matrix(doc)


class TestValidation:
    def base_toeplitz(self):
        return {"kind": "toeplitz", "rows": 2, "cols": 2,
                "first_row": [[1, 0], [2, 0]],
                "first_col": [[1, 0], [3, 0]]}

    def test_valid_base(self):
        A = parse_matrix(self.base_toeplitz())
        assert np.array_equal(A.to_dense(), [[1, 2], [3, 1]])

    def test_unknown_key_rejected(self):
        doc = self.base_toeplitz()
        doc["comment"] = "hi"
        with pytest.raises(tc.MatrixFileError, match="unknown keys"):
            parse_matrix(doc)

    def test_missing_key_rejected(self):
        doc = self.base_toeplitz()
        del doc["first_col"]
        with pytest.raises(tc.MatrixFileError, match="missing keys"):
            parse_matrix(doc)

    def test_corner_mismatch_rejected(self):
        doc = self.base_toeplitz()
        doc["first_col"][0] = [7, 0]
        with pytest.raises(tc.MatrixFileError, match="first_col"):
            parse_matrix(doc)

    def test_bad_kind(self):
        with pytest.raises(tc.MatrixFileError, match="kind"):
            parse_matrix({"kind": "circulant"})
        # unhashable kinds are named too, not a TypeError
        for kind in ([], {}, [[1, 2]]):
            with pytest.raises(tc.MatrixFileError, match="kind") as got:
                parse_matrix({"kind": kind, "rows": 1, "cols": 1, "data": [[1, 2]]})
            assert str(got.value).endswith(f"got {kind!r}")

    def test_non_object(self):
        with pytest.raises(tc.MatrixFileError):
            parse_matrix([1, 2, 3])

    def test_bad_dimensions(self):
        doc = self.base_toeplitz()
        doc["rows"] = 0
        with pytest.raises(tc.MatrixFileError, match="rows"):
            parse_matrix(doc)
        doc["rows"] = True
        with pytest.raises(tc.MatrixFileError, match="rows"):
            parse_matrix(doc)

    def test_entry_shape_rejected(self):
        doc = self.base_toeplitz()
        doc["first_row"][1] = [1, 2, 3]
        with pytest.raises(tc.MatrixFileError, match="first_row"):
            parse_matrix(doc)
        doc["first_row"][1] = ["1", "0"]
        with pytest.raises(tc.MatrixFileError, match="first_row"):
            parse_matrix(doc)

    def test_nonfinite_rejected(self):
        doc = self.base_toeplitz()
        doc["first_row"][1] = [np.inf, 0.0]
        with pytest.raises(tc.MatrixFileError, match="finite"):
            parse_matrix(doc)

    def test_wrong_entry_count(self):
        doc = {"kind": "dense", "rows": 2, "cols": 2,
               "data": [[1, 0], [2, 0], [3, 0]]}
        with pytest.raises(tc.MatrixFileError, match="data"):
            parse_matrix(doc)

    def test_only_decoded_arrays_taken_as_they_stand(self):
        # a 1-D complex128 array of the right count, as the reader leaves one,
        # passes; any other array is refused as a non-list
        doc = {"kind": "dense", "rows": 1, "cols": 2, "data": np.array([1, 2j])}
        assert parse_matrix(doc).tobytes() == np.array([[1, 2j]]).tobytes()
        for data in (np.array([np.nan, 1.0]), np.array([[1, 2j]]), np.array([1, 2j, 3]),
                     np.array([1, 2j], dtype=np.complex64)):
            doc["data"] = data
            with pytest.raises(tc.MatrixFileError, match="'data' must be a list of 2"):
                parse_matrix(doc)
        # a decoded array is still refused at its first non-finite entry,
        # with the message the same values get as a list
        nan, inf = float("nan"), float("inf")
        for data, pos in ((np.array([nan, 1j]), 0), (np.array([1, complex(0, nan)]), 1),
                          (np.array([complex(inf, 0), 1]), 0),
                          (np.array([1, complex(1, -inf)]), 1)):
            for doc["data"] in (data, [[z.real, z.imag] for z in data.tolist()]):
                with pytest.raises(tc.MatrixFileError) as err:
                    parse_matrix(doc)
                assert str(err.value) == f"'data[{pos}]' contains a non-finite number"
        # so is one of a compact kind, at its position in the file, before a
        # Hankel file's first row is reversed
        for kind, key, other in (("toeplitz", "first_row", "first_col"),
                                 ("toeplitz", "first_col", "first_row"),
                                 ("hankel", "first_row", "last_col"),
                                 ("hankel", "last_col", "first_row")):
            # the vector under test has 3 entries, the other 2 ones
            rows, cols = (2, 3) if key == "first_row" else (3, 2)
            for data, pos in ((np.array([1, 2, complex(0, nan)]), 2), (np.array([1, inf, 3j]), 1)):
                doc = {"kind": kind, "rows": rows, "cols": cols, other: np.ones(2, dtype=complex)}
                for doc[key] in (data, [[z.real, z.imag] for z in data.tolist()]):
                    with pytest.raises(tc.MatrixFileError) as err:
                        parse_matrix(doc)
                    assert str(err.value) == f"'{key}[{pos}]' contains a non-finite number"

    def test_compact_built_from_one_check_and_one_copy(self, monkeypatch):
        # the reader's own finiteness check is the only one: the compact
        # matrix is not rebuilt through from_first_row_col's checked copies
        def refuse(*args):
            raise AssertionError("vector checked twice")

        monkeypatch.setattr(core, "_cvector", refuse)
        row, col = np.array([1, 2j, 3]), np.array([1, -4, 5j, 6])
        kept = row.copy(), col.copy()
        for doc, want in (
                ({"kind": "toeplitz", "rows": 4, "cols": 3, "first_row": row, "first_col": col},
                 [[1, 2j, 3], [-4, 1, 2j], [5j, -4, 1], [6, 5j, -4]]),
                ({"kind": "hankel", "rows": 4, "cols": 3, "first_row": row[::-1], "last_col": col},
                 [[3, 2j, 1], [2j, 1, -4], [1, -4, 5j], [-4, 5j, 6]])):
            M = parse_matrix(doc)
            assert M.to_dense().tobytes() == np.array(want, dtype=complex).tobytes()
            # an array passed in is copied, never written or aliased
            fields = M.core if isinstance(M, tc.AsymHankel) else M
            for vec in (fields.a, fields.alpha):
                assert not vec.flags.writeable
                assert not any(np.shares_memory(vec, given) for given in (row, col))
            assert row.tobytes() == kept[0].tobytes() and col.tobytes() == kept[1].tobytes()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(tc.MatrixFileError):
            tc.load_matrix(tmp_path / "nope.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(tc.MatrixFileError, match="JSON"):
            tc.load_matrix(path)


# number parts json.loads produces: ints across the float range and its
# edges, where float() rounds to nearest even, and every finite float
INT_EDGES = [0, 1, -1, 2**53 - 1, 2**53 + 1, 2**53 + 3, -(2**53 + 1), 2**63,
             2**64 + 1, -(2**64 + 1), 2**1000 + 1, MAX_FLOAT_INT, -MAX_FLOAT_INT]
PART = st.one_of(st.sampled_from(INT_EDGES),
                 st.integers(-MAX_FLOAT_INT, MAX_FLOAT_INT),
                 st.integers(-(2**64), 2**64),
                 st.floats(allow_nan=False, allow_infinity=False),
                 st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308]))
PAIRS = st.lists(st.lists(PART, min_size=2, max_size=2), min_size=1, max_size=96)

# one malformed item each; the NaN, Infinity and 1e400 tokens come from the
# JSON text, as in a file
BAD_ITEMS = [
    [True, 0], [0, False], [0, "1.5"], ["1", "0"], [None, 0], [1], [1, 2, 3], [],
    {"re": 1, "im": 2}, "1", 1.5,
    json.loads("[NaN, 0]"), json.loads("[0, -Infinity]"), json.loads("[1e400, 0]"),
    [2**1024, 0], [0, -(10**400)],
]


def assert_same_error(items, count):
    with pytest.raises(tc.MatrixFileError) as want:
        reference_parse_entries(items, count, "data")
    with pytest.raises(tc.MatrixFileError) as got:
        _parse_entries(items, count, "data")
    assert str(got.value) == str(want.value)


class TestBulkParse:
    @given(PAIRS)
    @example([[0, 0]])
    @example([[-0.0, 0.0], [2**53 + 1, -(2**63)]])
    def test_valid_lists_bit_identical(self, items):
        got = _parse_entries(items, len(items), "data")
        want = reference_parse_entries(items, len(items), "data")
        assert got.dtype == np.complex128 and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @given(PAIRS, st.lists(st.tuples(st.integers(0, 95), st.sampled_from(BAD_ITEMS)),
                           min_size=1, max_size=3))
    def test_invalid_lists_same_error(self, items, bad):
        items = list(items)
        for pos, item in bad:
            items[pos % len(items)] = item
        assert_same_error(items, len(items))

    @pytest.mark.parametrize("items, count", [
        ({"0": [1, 0]}, 1), ([[1, 0]], 2), ([[1, 0], [2, 0]], 1), (None, 1)])
    def test_list_shape_same_error(self, items, count):
        assert_same_error(items, count)

    def test_subclasses_are_refused(self):
        # only exact lists, ints and floats are read, as json.loads gives them
        class Pair(list):
            pass
        for items, pos in (([[1, 2], Pair([1, 2]), [3, 4]], 1),
                           ([[1, 2], [3, 4], [np.float64(0.1), -0.0], [np.float64(2.5), 0]], 2)):
            with pytest.raises(tc.MatrixFileError) as got:
                _parse_entries(items, len(items), "data")
            assert str(got.value) == f"'data[{pos}]' must be a [re, im] number pair"
            assert_same_error(items, len(items))


# ---------------------------------------------------------------------------
# the file reader against one json.loads of the whole text
# ---------------------------------------------------------------------------

NUMBER = r"-?(?:0|[1-9]\d*)(?:\.\d+)?(?:[eE][-+]?\d+)?"
NUMBER_TOKEN = re.compile(NUMBER)
PAIR_TOKEN = re.compile(rf"\[\s*({NUMBER})\s*,\s*({NUMBER})\s*\]")

# (item separator, key separator); None is `python -m json.tool`'s layout
LAYOUTS = {"none": (",", ":"), "spaces": (" , ", " : "), "tabs": (",\t", ":\t"),
           "newlines": (",\n", ":\n"), "crlf": (",\r\n", ":\r\n"), "json.tool": None}
# malformed or awkward number tokens, and small sizes that may miscount
TOKENS = ["true", "null", '"1"', "NaN", "-Infinity", "1e400", "9" * 401, "7" * 5000,
          "01", ".5", "1.", "+1", "-0", "1E+2", "1", "2", "3"]
VALUES = [[[1, 2]], [], {}, [[[1, 2]]], [[1, 2], 3], "[[1, 2]]", "]]", "x[[1, 2]]y", 7]
MUTATIONS = st.one_of(
    st.none(),
    st.tuples(st.just("token"), st.integers(0, 10**6), st.sampled_from(TOKENS)),
    st.tuples(st.just("arity"), st.integers(0, 10**6), st.booleans()),
    st.tuples(st.just("nest"), st.integers(0, 10**6)),
    st.tuples(st.just("bom")),
    st.tuples(st.just("trailing"), st.sampled_from([" 1", "{}", "]", "]]", ",", " x"])),
)


def serialize(items, layout: str) -> str:
    """The (key, value) items as one JSON object, duplicates kept in order."""
    if LAYOUTS[layout] is None:
        body = ",\n".join(f"    {json.dumps(key)}: "
                          + json.dumps(value, indent=4).replace("\n", "\n    ")
                          for key, value in items)
        return "{\n" + body + "\n}\n"
    item_sep, key_sep = LAYOUTS[layout]
    return "{" + item_sep.join(json.dumps(key) + key_sep
                               + json.dumps(value, separators=(item_sep, key_sep))
                               for key, value in items) + "}"


def mutate(text: str, mutation) -> str:
    """``text`` with one token, pair or end changed as ``mutation`` says."""
    if mutation is None:
        return text
    kind, *args = mutation
    if kind == "bom":
        return "\ufeff" + text
    if kind == "trailing":
        return text + args[0]
    tokens = list((NUMBER_TOKEN if kind == "token" else PAIR_TOKEN).finditer(text))
    if not tokens:
        return text
    hit = tokens[args[0] % len(tokens)]
    if kind == "token":
        new = args[1]
    elif kind == "arity":
        new = f"[{hit[1]}, {hit[2]}, 0]" if args[1] else f"[{hit[1]}]"
    else:
        new = f"[{hit[0]}]"
    return text[:hit.start()] + new + text[hit.end():]


@st.composite
def file_texts(draw):
    """A written matrix's text, relaid out, its keys shuffled or repeated, maybe mutated."""
    obj = draw(written_matrices())
    items = list(json.loads(matrix_to_text(obj)).items())
    layout = draw(st.sampled_from(["written"] + list(LAYOUTS)))
    if layout != "written":
        items = draw(st.permutations(items))
        for _ in range(draw(st.integers(0, 2))):
            key = draw(st.sampled_from(items))[0]
            value = draw(st.sampled_from([value for _, value in items] + VALUES))
            items.insert(draw(st.integers(0, len(items))), (key, value))
        text = serialize(items, layout)
    else:
        text = matrix_to_text(obj)
    return mutate(text, draw(MUTATIONS))


def read_bits(read, path):
    """What ``read(path)`` gives, down to the bits, or its error message."""
    try:
        obj = read(path)
    except tc.MatrixFileError as exc:
        return "error", str(exc)
    if isinstance(obj, np.ndarray):
        return "dense", obj.dtype.str, obj.shape, obj.tobytes()
    A = obj.core if isinstance(obj, tc.AsymHankel) else obj
    return (type(obj).__name__, A.n, A.m, np.complex128(A.a0).tobytes(),
            A.a.dtype.str, A.a.tobytes(), A.alpha.dtype.str, A.alpha.tobytes())


@pytest.fixture(scope="module")
def matrix_path(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "m.json"


def assert_reads_as_reference(path, data: bytes):
    path.write_bytes(data)
    assert read_bits(tc.load_matrix, path) == read_bits(reference_load_matrix, path)


class TestReader:
    @given(file_texts())
    @example('{"kind": [[1, 2]], "rows": 1, "cols": 1, "data": [[1, 2]]}')
    @example('{"kind": "dense", "rows": [[1, 2]], "cols": 1, "data": [[1, 2]]}')
    @example('{"kind": "dense", "rows": 1, "cols": 1, "data": [[1, 2]], "data": [[1, 2], 3]}')
    @example('{"kind": "dense", "rows": 1, "cols": 1, "data": [[1, 2], 3], "data": [[-0, 2]]}')
    @example('{"kind": "dense", "rows": 1, "cols": 1, "x": "]]", "data": [[1, 2]]}')
    @example('{"kind": "dense", "rows": 1, "cols": 1, "data": [[1, 2] ]}')
    @example('{"kind": "dense", "rows": 1, "cols": 2, "data": [[1, 2], [1, 2]]]}')
    @example('{"kind": "dense", "rows": 1, "cols": 1, "data": [[1, 2]], "k": [[1], 2]}')
    @example('{"kind": "dense", "rows": 1, "cols": 1, "data": [[1e308, 1e309]]}')
    @example('{"kind": "dense", "rows": 1, "cols": 1, "data": [[1 2, 3]]}')
    @example('{"kind": "dense", "rows": 1, "cols": 1, "data": [[, ]]}')
    @example('{"kind": "dense", "rows": 1, "cols": 1, "d\\u0061ta": [[1, 2]]}')
    @example('{"kind": "dense", "rows": 1, "cols": 1, "data": [[1, 2]]}\n')
    @example('{"kind": "dense", "rows": 1, "cols": 1, "data": [[1, 2]]}\n{')
    @example('{"kind": "toeplitz", "rows": 1, "cols": 1, "first_row": [[1, 2]], '
             '"first_col": [[1, 2], [3, 4]]}')
    @example('{"kind": "hankel", "rows": 2, "cols": 1, "first_row": [[1, 2], [3, 4]], '
             '"last_col": [[1, 2], [3, 4]]}')
    @example('{}')
    @example('[[1, 2]]')
    @example('{"kind": "toep], [litz", "rows": 1, "cols": 1, "first_row": [[1, 2]], '
             '"first_col": [[1, 2]]}')
    @example('{"kind": "dense", "rows": 1, "cols": 2, "data": [[[1, 2], [3, 4]]]}')
    @example('{"kind": "dense", "rows": 1, "cols": 1, "data": [[1e999, 2]]}')
    @example('{"kind": "dense", "rows": 1, "cols": 3, "data": [[1, 2], [3, 4],[5, 6]]}')
    def test_same_as_whole_text_loads(self, matrix_path, text):
        assert_reads_as_reference(matrix_path, text.encode("utf-8"))

    @pytest.mark.parametrize("data", [
        b'{"kind": "dense", "rows": 1, "cols": 1, "data": [[1, 2]]}\xff',
        b'{"kind": "dense",\r\n "rows": 1, "cols": 1, "data": [[1, 2]],\r\n "x": }',
        b'{"kind": "dense",\r "rows": 1, "cols": 1, "data": [[1, 2]], "x": }',
    ])
    def test_same_bytes_errors(self, matrix_path, data):
        assert_reads_as_reference(matrix_path, data)

    def test_same_missing_file_error(self, tmp_path):
        path = tmp_path / "nope.json"
        assert read_bits(tc.load_matrix, path) == read_bits(reference_load_matrix, path)

    def test_written_files_read_flat(self, tmp_path, monkeypatch, rng):
        # a file as save_matrix writes it never reaches the list-per-pair parse
        def nested(*args):
            raise AssertionError("pair array read as nested lists")

        monkeypatch.setattr("toepcert.io._parse_entries", nested)
        T = tc.random_toeplitz(rng, 5, 7)
        for obj in (T, tc.flip_cols(T), T.to_dense()):
            tc.save_matrix(tmp_path / "m.json", obj)
            assert matrix_to_text(tc.load_matrix(tmp_path / "m.json")) == matrix_to_text(obj)

    @staticmethod
    def counted_loads(monkeypatch):
        """The texts passed to the reader's ``json.loads``, in call order."""
        loads = json.loads
        texts = []

        def counted(text):
            texts.append(text)
            return loads(text)

        monkeypatch.setattr("toepcert.io.json.loads", counted)
        return texts

    def test_valid_files_decoded_once(self, tmp_path, monkeypatch, rng):
        # a file as save_matrix writes it, as python -m json.tool lays it
        # out, or with loose brackets and mixed separators is read from one
        # decode of its whole text
        T = tc.random_toeplitz(rng, 5, 7)
        written = [matrix_to_text(obj) for obj in (T, tc.flip_cols(T), T.to_dense())]
        texts = written + [json.dumps(json.loads(text), indent=4) for text in written] + [
            '{"kind": "toeplitz", "first_row": [[1, 2], [3, 4] ], '
            '"rows": 1, "cols": 2, "first_col": [[1, 2]]}',
            '{"kind": "dense", "rows": 1, "cols": 3, "data": [[1, 2], [3, 4],[5, 6]]}']
        decoded = self.counted_loads(monkeypatch)
        path = tmp_path / "m.json"
        for text in texts:
            path.write_text(text, encoding="utf-8")
            want = read_bits(reference_load_matrix, path)
            decoded.clear()
            got = read_bits(tc.load_matrix, path)
            assert got[0] != "error" and got == want, text
            assert len(decoded) == 1, text

    def test_malformed_object_decoded_at_most_twice(self, tmp_path, monkeypatch):
        # a malformed file is refused, with the whole-text reader's message,
        # after at most two decodes, each of the whole text (as it stands or
        # with '], [' blanked) and none of a single value
        body = '"kind": "dense", "rows": 1, "cols": %s, "data": %s'
        texts = [
            "{" + body % (1, "[[1, 2]]") + ', "x": [[1, 2]]}',
            "{" + body % (2, "[[1, 2]]") + "}",
            "{" + body % (1, "[[NaN, 2]]") + "}",
            "{" + body % (1, "[[1e999, 2]]") + "}",
            "{" + body % (1, "[[%s, 2]]" % ("9" * 401)) + "}",
            "{" + body % (2, "[[1, 2], [3]]") + "}",
            "{" + body % (2, "[[1, 2, 3], [4]]") + "}",
            "{" + body % (1, "[[1, 2]]") + ', "data": [[1, 2, 3]]}',
            "{" + body % (1, "[[1, 2]]") + ",}",
            '{"kind": "a], [b", "rows": 1, "cols": 1, "data": [[1, 2]]}',
            '{"kind": [[1, 2]], "rows": 1, "cols": 1, "data": [[1, 2]]}',
            '{"kind": "dense", "rows": [[1, 2]], "cols": 1, "data": [[1, 2]]}',
            "[1]",
        ]
        decoded = self.counted_loads(monkeypatch)
        path = tmp_path / "m.json"
        for text in texts:
            path.write_text(text, encoding="utf-8")
            want = read_bits(reference_load_matrix, path)
            decoded.clear()
            got = read_bits(tc.load_matrix, path)
            assert got[0] == "error" and got == want, text
            assert 1 <= len(decoded) <= 2, text
            assert set(decoded) <= {text, text.replace("], [", ",   ")}, text

    @pytest.mark.parametrize("last", ["", ', "data": [[1, 2]]'], ids=["no-close", "one-close"])
    def test_hostile_brackets_stay_linear(self, tmp_path, last):
        # every value opens '[[', and no ']]' follows or only one at the end:
        # a reader that searched afresh from each '[[', or read each stretch
        # up to that ']]', would rescan the rest of the text each time.  A
        # repeated pair key with an odd part count, '[[1, 2, 3]]', must not
        # cost a Python-level step per value either
        path = tmp_path / "m.json"
        for value in ('"k{}": [[1], 2]', '"data": [[1], 2]', '"data": [[1, 2, 3]]'):
            values = ", ".join(value.format(i) for i in range(50_000))
            path.write_text("{" + values + last + "}", encoding="utf-8")
            start = time.perf_counter()
            with pytest.raises(tc.MatrixFileError, match="kind"):
                tc.load_matrix(path)
            assert time.perf_counter() - start < 10.0, value


def test_load_matrix_scales_near_linearly(tmp_path):
    # median time at 4096 over median at 512: 8 for linear cost, 64 for
    # quadratic; single timings are noisy, so the repeats are interleaved
    rng = np.random.default_rng(5)
    paths = [tmp_path / f"{n}.json" for n in (512, 4096)]
    for path, n in zip(paths, (512, 4096)):
        tc.save_matrix(path, tc.random_toeplitz(rng, n, n))
    times = [[], []]
    for _ in range(9):
        for path, spent in zip(paths, times):
            start = time.perf_counter()
            tc.load_matrix(path)
            spent.append(time.perf_counter() - start)
    small, large = (statistics.median(spent) for spent in times)
    assert large / small < 24
