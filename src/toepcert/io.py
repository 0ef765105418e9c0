"""JSON matrix files: kinds ``toeplitz``, ``hankel`` and ``dense``.

Numbers are stored as ``[re, im]`` pairs.  Toeplitz files carry the
literal first row and first column, Hankel files the first row and last
column, dense files the row-major entries.  Writing is canonical (sorted
keys, floats with 17 significant digits), so rewriting a canonical file
reproduces it byte for byte; each vector is formatted by one ``%`` call.

Reading decodes the whole text once, with every ``], [`` blanked to a
comma and three spaces (a replacement of the same length, which
``str.replace`` makes in one pass), so a pair array as written,
``[[1, 2], [3, 4]]``, arrives as one run of parts, ``[[1, 2, 3, 4]]``,
with no Python list per pair.  From
the decoded object the reader rebuilds the skeleton that the text must
have once digits, ``-+.eE`` and whitespace are deleted (a pair array of k
pairs gives ``[[,],...,[,]]``, a dimension nothing, a kind its letters,
as in ``{"kind":"dns","rows":,"cols":,"data":[[,]]}``) and compares it
with the text's own.  They are equal only if every blanked ``], [``
stood between two pairs of a pair array and no pair, string, key,
escape, literal or repeated key was changed or hidden, so the decoded
values are those of one ``json.loads`` of the text.  One NumPy call then
converts each pair array (``data``, ``first_row``, ``first_col``,
``last_col``) from its runs, checking its parts for overflow, and
:func:`parse_matrix` refuses a non-finite one as in a list.  A pair array
laid out by ``python -m json.tool`` holds no ``], [`` and takes the same
route, one run per pair.  Any other text (a key of no kind, a value of
another type, a skeleton mismatch, an overflowing part, text that is not
one JSON object) is decoded again, as it stands, by ``json.loads`` and
read by the checks of :func:`parse_matrix`, so it is refused with their message.

In nested lists a pair must be an exact ``list`` of two parts, and a
part an exact ``int`` or ``float`` (what ``json.loads`` gives): ``true``,
strings, ``null``, ``NaN``, ``Infinity``, integers beyond the float
range, list subclasses and ``numpy.float64`` are rejected, and the message
names the first bad position, as in ``'first_row[3]'``.  Either way each
part becomes the double that ``float()`` gives, bit for bit.  Negative
zero is written ``-0.0`` and survives the round trip; a hand-written
``-0`` is the integer 0 in JSON and reads as +0.0.  On a file it cannot
read or a malformed one, :func:`load_matrix` raises a
:class:`MatrixFileError` whose message names the file.
"""

from __future__ import annotations

import json
import math
import os
from itertools import chain
from pathlib import Path

import numpy as np

from .core import CDTYPE, AsymHankel, AsymToeplitz, as_dense

__all__ = ["MatrixFileError", "load_matrix", "save_matrix", "parse_matrix", "matrix_to_text"]

_KIND_KEYS = {
    "toeplitz": {"cols", "first_col", "first_row", "kind", "rows"},
    "hankel": {"cols", "first_row", "kind", "last_col", "rows"},
    "dense": {"cols", "data", "kind", "rows"},
}


# the keys whose values are [re, im] pair arrays
_PAIR_KEYS = set().union(*_KIND_KEYS.values()) - {"cols", "kind", "rows"}


class MatrixFileError(ValueError):
    """Malformed or inconsistent matrix file."""


# deleted from the text and from the skeleton rebuilt from its decoded
# object before the two are compared
_NUMBER_CHARS = b"0123456789-+.eE \t\n\r"


def _require_dim(doc: dict, key: str) -> int:
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise MatrixFileError(f"'{key}' must be a positive integer, got {value!r}")
    return value


def _parse_entries(items, count: int, where: str) -> np.ndarray:
    if not isinstance(items, list) or len(items) != count:
        raise MatrixFileError(f"'{where}' must be a list of {count} [re, im] pairs")
    # one pass in C when every item is an exact [int | float, int | float]
    # list; NumPy alone would also convert bools and numeric strings
    if (set(map(type, items)) <= {list} and set(map(len, items)) <= {2}
            and set(map(type, chain.from_iterable(items))) <= {int, float}):
        entries = _complex_parts(items, 2 * count)
        if entries is not None and np.isfinite(entries).all():
            return entries
    raise MatrixFileError(_first_bad_entry(items, where))


def _complex_parts(runs: list, count: int) -> np.ndarray | None:
    """The complex array of the ``count`` int or float parts in the lists
    ``runs``, read as [re, im] pairs in one pass, or None when a part is
    beyond the float range."""
    try:
        parts = np.fromiter(chain.from_iterable(runs), np.float64, count=count)
    except OverflowError:
        return None
    return parts.view(CDTYPE)


def _first_bad_entry(items: list, where: str) -> str:
    """The message for the first item that the one-pass conversion refuses."""
    for pos, item in enumerate(items):
        if (type(item) is not list or len(item) != 2
                or not set(map(type, item)) <= {int, float}):
            return f"'{where}[{pos}]' must be a [re, im] number pair"
        try:
            # both parts first: a too-large integer beside a NaN is named
            finite = all([math.isfinite(part) for part in item])
        except OverflowError:
            return f"'{where}[{pos}]' contains an integer too large for a float"
        if not finite:
            return f"'{where}[{pos}]' contains a non-finite number"


def _decoded(text: str) -> dict | None:
    """The object of ``text`` from one decode with ``], [`` blanked, or None.

    Each pair array becomes a complex array.  None when the blanked text
    is not a JSON object whose keys all belong to some kind, whose ``kind``
    names a kind, dimensions are ints and pair arrays lists of runs; when
    the text's skeleton differs from the one rebuilt from the object; or
    when a part is beyond the float range.
    """
    try:
        doc = json.loads(text.replace("], [", ",   "))
    except (ValueError, RecursionError):
        return None  # a JSON error, or an integer beyond Python's digit limit
    if type(doc) is not dict:
        return None
    skeleton = []
    counts = {}
    for key, value in doc.items():
        if key in _PAIR_KEYS and type(value) is list and set(map(type, value)) <= {list}:
            # count // 2 pairs: the part an odd count leaves over shows in the text
            count = counts[key] = sum(map(len, value))
            skeleton.append('"%s":[%s]' % (key, ("[,]," * (count // 2))[:-1]))
        elif key in ("rows", "cols") and type(value) is int:
            skeleton.append('"%s":' % key)
        elif key == "kind" and type(value) is str and value in _KIND_KEYS:
            skeleton.append('"kind":"%s"' % value)
        else:
            return None
    expected = ("{%s}" % ",".join(skeleton)).encode().translate(None, _NUMBER_CHARS)
    if text.encode().translate(None, _NUMBER_CHARS) != expected:
        return None
    # every part is now a JSON number, an int or a float
    for key, count in counts.items():
        doc[key] = _complex_parts(doc[key], count)
        if doc[key] is None:
            return None
    return doc


def _flat_entries(items, count: int, where: str) -> np.ndarray:
    """A pair array from :func:`_decoded` when its count holds, else :func:`_parse_entries`,
    refusing a non-finite entry at its position in the file."""
    if type(items) is not np.ndarray or items.shape != (count,) or items.dtype != CDTYPE:
        return _parse_entries(items, count, where)
    if not (finite := np.isfinite(items)).all():
        raise MatrixFileError(f"'{where}[{int(finite.argmin())}]' contains a non-finite number")
    return items


def parse_matrix(doc) -> AsymToeplitz | AsymHankel | np.ndarray:
    """Validate a decoded matrix document and build the typed value.

    Unknown keys are rejected; the corner-sharing invariants are enforced
    exactly.  Pair arrays are read by :func:`_flat_entries`, which takes a
    complex array of the right count, as :func:`_decoded` leaves one, as it
    stands; a non-finite entry is still refused, in every kind as in a list.
    That is each vector's one finiteness check: a compact matrix is built
    from one copy of each checked vector, so no array passed in is aliased.
    """
    if not isinstance(doc, dict):
        raise MatrixFileError("matrix file must contain a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _KIND_KEYS:
        raise MatrixFileError(
            f"'kind' must be one of {sorted(_KIND_KEYS)}, got {kind!r}")
    expected = _KIND_KEYS[kind]
    if set(doc) != expected:
        unknown = sorted(set(doc) - expected)
        missing = sorted(expected - set(doc))
        parts = []
        if unknown:
            parts.append(f"unknown keys {unknown}")
        if missing:
            parts.append(f"missing keys {missing}")
        raise MatrixFileError(f"{kind} file: " + ", ".join(parts))
    rows = _require_dim(doc, "rows")
    cols = _require_dim(doc, "cols")

    if kind == "dense":
        return _flat_entries(doc["data"], rows * cols, "data").reshape(rows, cols)

    if kind == "toeplitz":
        first_row = _flat_entries(doc["first_row"], cols, "first_row")
        first_col = _flat_entries(doc["first_col"], rows, "first_col")
        if first_row[0] != first_col[0]:
            raise MatrixFileError(
                "toeplitz file: first_row[0] and first_col[0] must be identical")
        return AsymToeplitz._from_owned_row_col(first_row.copy(), first_col.copy())

    first_row = _flat_entries(doc["first_row"], cols, "first_row")
    last_col = _flat_entries(doc["last_col"], rows, "last_col")
    if first_row[cols - 1] != last_col[0]:
        raise MatrixFileError(
            "hankel file: first_row[cols - 1] and last_col[0] must be identical")
    # H = core P_m: the core's first row is H's first row reversed and the
    # core's first column is H's last column
    return AsymHankel(AsymToeplitz._from_owned_row_col(first_row[::-1].copy(), last_col.copy()))


def load_matrix(path) -> AsymToeplitz | AsymHankel | np.ndarray:
    """Read and validate a matrix file."""
    try:
        with open(os.fspath(path), "rb", buffering=0) as file:
            text = file.read().decode("utf-8")
    except OSError as exc:
        raise MatrixFileError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MatrixFileError(f"{path}: not UTF-8 text: {exc}") from exc
    if "\r" in text:
        # newlines as text mode reads them, for the positions in JSON errors
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    doc = _decoded(text)
    if doc is None:
        try:
            doc = json.loads(text)
        except ValueError as exc:
            # JSONDecodeError, or an integer literal beyond Python's digit limit
            raise MatrixFileError(f"{path}: invalid JSON: {exc}") from exc
        except RecursionError:
            raise MatrixFileError(f"{path}: JSON nested too deeply") from None
    try:
        return parse_matrix(doc)
    except MatrixFileError as exc:
        raise MatrixFileError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# canonical writing
# ---------------------------------------------------------------------------

def _pairs(values) -> str:
    parts = np.ascontiguousarray(values, dtype=CDTYPE).view(np.float64).tolist()
    text = "[" + ", ".join(["[%.17g, %.17g]"] * (len(parts) // 2)) % tuple(parts) + "]"
    # %.17g writes -0.0 as -0, which JSON reads as the integer 0
    return text.replace("[-0,", "[-0.0,").replace(" -0]", " -0.0]")


def matrix_to_text(obj) -> str:
    """Canonical file text for a compact or dense matrix."""
    if isinstance(obj, AsymToeplitz):
        doc = {"kind": '"toeplitz"', "rows": obj.n, "cols": obj.m,
               "first_row": _pairs(obj.first_row()), "first_col": _pairs(obj.first_col())}
    elif isinstance(obj, AsymHankel):
        doc = {"kind": '"hankel"', "rows": obj.n, "cols": obj.m,
               "first_row": _pairs(obj.core.first_row()[::-1]),
               "last_col": _pairs(obj.core.first_col())}
    else:
        M = as_dense(obj)
        doc = {"kind": '"dense"', "rows": M.shape[0], "cols": M.shape[1],
               "data": _pairs(M.ravel())}
    return "{\n" + ",\n".join(f'  "{key}": {doc[key]}' for key in sorted(doc)) + "\n}\n"


def save_matrix(path, obj) -> None:
    """Write a matrix file in canonical form."""
    Path(path).write_text(matrix_to_text(obj), encoding="utf-8")
