"""JSON matrix files: kinds ``toeplitz``, ``hankel`` and ``dense``.

Numbers are stored as ``[re, im]`` pairs.  Toeplitz files carry the
literal first row and first column, Hankel files the first row and last
column, dense files the row-major entries.  Writing is canonical (sorted
keys, floats with 17 significant digits), so rewriting a canonical file
reproduces it byte for byte; each vector is formatted by one ``%`` call.

Reading decodes the top-level object key by key with the ``json``
module's own scanner, and each pair array flat.  A pair key's value
(``data``, ``first_row``, ``first_col``, ``last_col``) that starts with
``[[`` and holds no quote before the next ``]]`` must, once digits,
``-+.eE`` and whitespace are deleted, be exactly ``[[,],...,[,]]``.  It
is then read by one ``json.loads`` with its inner brackets blanked: one
flat list of ``int`` and ``float`` parts, no list per pair, since JSON's
number grammar admits nothing else there.  One NumPy call converts it and
the parts are checked for overflow and finiteness.  Every other value is
decoded as ``json.loads`` decodes it; a pair array laid out otherwise (as
``python -m json.tool`` writes it) thus arrives as nested lists and takes
the nested-list conversion below.  Each ``]]`` is searched for once, past
the last one found, so hostile text stays linear.

A pair array that the flat read refuses (a skeleton mismatch, a part
that JSON's number grammar refuses, a non-finite or too large part) is
decoded in place as ``json.loads`` decodes it, so a malformed object is
decoded once and refused by the checks of :func:`parse_matrix`.  Only
text that is not one JSON object (a syntax error, trailing data, another
top-level value) is decoded whole by ``json.loads``, for its message.  In
nested lists a pair must be an exact ``list`` of two parts, and a part an
exact ``int`` or ``float`` (what ``json.loads`` gives): ``true``,
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
import re
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


_DECODE = json.JSONDecoder().raw_decode
# the object's opening brace, the comma after a value and the colon after a
# key, each with its whitespace, up to the next key's quote; group 1 is the
# closing brace at the end of the text
_OPEN = re.compile(r'[ \t\n\r]*\{[ \t\n\r]*(?:(?=")|(\}[ \t\n\r]*\Z))').match
_NEXT = re.compile(r'[ \t\n\r]*(?:,[ \t\n\r]*(?=")|(\}[ \t\n\r]*\Z))').match
_COLON = re.compile(r'[ \t\n\r]*:[ \t\n\r]*').match
# deleted from a pair array to leave its skeleton of brackets and commas
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
        try:
            parts = np.fromiter(chain.from_iterable(items), np.float64, count=2 * count)
        except OverflowError:
            pass
        else:
            if np.isfinite(parts).all():
                return parts.view(CDTYPE)
    raise MatrixFileError(_first_bad_entry(items, where))


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


def _flat_pairs(value: str) -> np.ndarray | None:
    """The pair array ``value`` (``[[`` to ``]]``, no quote) read flat, or None.

    None when the skeleton is not exactly ``[[,],...,[,]]``, JSON's number
    grammar refuses a part, or a part is beyond the float range or not
    finite.
    """
    skeleton = value.encode().translate(None, _NUMBER_CHARS)
    pairs = (len(skeleton) - 1) // 4
    if skeleton != b"[" + b"[,]," * (pairs - 1) + b"[,]]":
        return None
    try:
        flat = json.loads("[" + value[2:-2].replace("[", " ").replace("]", " ") + "]")
        parts = np.fromiter(flat, np.float64, count=2 * pairs)
    except (ValueError, OverflowError):
        return None
    return parts.view(CDTYPE) if np.isfinite(parts).all() else None


def _flat_document(text: str) -> dict | None:
    """The top-level object of ``text`` with its pair arrays read flat, or None.

    Keys and other values are decoded as ``json.loads`` decodes them, and
    so is a pair array that :func:`_flat_pairs` refuses, in place.  None
    when the text is not one JSON object.
    """
    step = _OPEN(text)
    doc = {}
    close = -1  # the last ']]' found, len(text) once there is none
    try:
        while step is not None:
            if step.group(1):
                return doc
            key, i = _DECODE(text, step.end())
            step = _COLON(text, i)
            if step is None:
                return None
            i = step.end()
            value = None
            if key in _PAIR_KEYS and text.startswith("[[", i):
                if close < i:
                    close = text.find("]]", i)
                    if close < 0:
                        close = len(text)
                # a quote before that ']]' means the stretch spans a key
                if close < len(text) and text.find('"', i, close) < 0:
                    value = _flat_pairs(text[i:close + 2])
            if value is None:
                value, i = _DECODE(text, i)
            else:
                i = close + 2
            doc[key] = value
            step = _NEXT(text, i)
    except (ValueError, RecursionError):
        pass  # a JSON error, or an integer beyond Python's digit limit
    return None


def _flat_entries(items, count: int, where: str) -> np.ndarray:
    """A pair array read flat when its count holds, else :func:`_parse_entries`."""
    if type(items) is np.ndarray and len(items) == count:
        return items
    return _parse_entries(items, count, where)


def parse_matrix(doc) -> AsymToeplitz | AsymHankel | np.ndarray:
    """Validate a decoded matrix document and build the typed value.

    Unknown keys are rejected; the corner-sharing invariants are enforced
    exactly.
    """
    return _build(doc, _parse_entries)


def _build(doc, entries) -> AsymToeplitz | AsymHankel | np.ndarray:
    """:func:`parse_matrix` with ``entries(value, count, where)`` reading each pair array."""
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
        data = entries(doc["data"], rows * cols, "data")
        return data.reshape(rows, cols)

    if kind == "toeplitz":
        first_row = entries(doc["first_row"], cols, "first_row")
        first_col = entries(doc["first_col"], rows, "first_col")
        if first_row[0] != first_col[0]:
            raise MatrixFileError(
                "toeplitz file: first_row[0] and first_col[0] must be identical")
        return AsymToeplitz.from_first_row_col(first_row, first_col)

    first_row = entries(doc["first_row"], cols, "first_row")
    last_col = entries(doc["last_col"], rows, "last_col")
    if first_row[cols - 1] != last_col[0]:
        raise MatrixFileError(
            "hankel file: first_row[cols - 1] and last_col[0] must be identical")
    # H = core P_m: the core's first row is H's first row reversed and the
    # core's first column is H's last column
    core = AsymToeplitz.from_first_row_col(first_row[::-1], last_col)
    return AsymHankel(core)


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
    doc = _flat_document(text)
    if doc is None:
        try:
            doc = json.loads(text)
        except ValueError as exc:
            # JSONDecodeError, or an integer literal beyond Python's digit limit
            raise MatrixFileError(f"{path}: invalid JSON: {exc}") from exc
        except RecursionError:
            raise MatrixFileError(f"{path}: JSON nested too deeply") from None
    try:
        return _build(doc, _flat_entries)
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
