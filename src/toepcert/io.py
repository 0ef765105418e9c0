"""JSON matrix files: kinds ``toeplitz``, ``hankel`` and ``dense``.

Numbers are stored as ``[re, im]`` pairs.  Toeplitz files carry the
literal first row and first column, Hankel files the first row and last
column, dense files the row-major entries.  Writing is canonical (sorted
keys, floats with 17 significant digits), so rewriting a canonical file
reproduces it byte for byte; each vector is formatted by one ``%`` call.

Reading accepts as a pair only an exact ``list`` of two parts, and as a
part only an exact ``int`` or ``float`` (what ``json.loads`` gives):
``true``, strings, ``null``, ``NaN``, ``Infinity``, integers beyond the
float range, list subclasses and ``numpy.float64`` are rejected.  Each
part becomes the double that ``float()`` gives, bit for bit, in one NumPy
pass.  When that pass refuses a list, a walk over its items names the
first bad position, as in ``'first_row[3]'``.  On a file it cannot read
or a malformed one, :func:`load_matrix` raises a :class:`MatrixFileError`
whose message names the file.
"""

from __future__ import annotations

import json
import math
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


class MatrixFileError(ValueError):
    """Malformed or inconsistent matrix file."""


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


def parse_matrix(doc) -> AsymToeplitz | AsymHankel | np.ndarray:
    """Validate a decoded matrix document and build the typed value.

    Unknown keys are rejected; the corner-sharing invariants are enforced
    exactly.
    """
    if not isinstance(doc, dict):
        raise MatrixFileError("matrix file must contain a JSON object")
    kind = doc.get("kind")
    if kind not in _KIND_KEYS:
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
        data = _parse_entries(doc["data"], rows * cols, "data")
        return data.reshape(rows, cols)

    if kind == "toeplitz":
        first_row = _parse_entries(doc["first_row"], cols, "first_row")
        first_col = _parse_entries(doc["first_col"], rows, "first_col")
        if first_row[0] != first_col[0]:
            raise MatrixFileError(
                "toeplitz file: first_row[0] and first_col[0] must be identical")
        return AsymToeplitz.from_first_row_col(first_row, first_col)

    first_row = _parse_entries(doc["first_row"], cols, "first_row")
    last_col = _parse_entries(doc["last_col"], rows, "last_col")
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
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MatrixFileError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MatrixFileError(f"{path}: not UTF-8 text: {exc}") from exc
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
    return "[" + ", ".join(["[%.17g, %.17g]"] * (len(parts) // 2)) % tuple(parts) + "]"


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
