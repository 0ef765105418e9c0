"""Per-layer tracing from the benchmark's side of each call.

:class:`Tracer` wraps toepcert's public functions where their callers look
them up: a module-level function is replaced in every ``toepcert`` module
that holds it (``product_is_toeplitz`` inside ``toepcert.hankel``,
``toepcert.families`` and ``toepcert.cli`` as well as its own module), and
an ``AsymToeplitz`` method is replaced on the class.  Each call records a
span ``(name, start, end, parent)``; spans stay in memory until the
benchmark drains them at the end of a timed block, converts their self
time to calibrated seconds, and archives them for the results file.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter

import numpy as np

__all__ = ["TARGETS", "Tracer"]

# (module, attribute) of every traced function; a dotted attribute is a
# method of a class in that module
TARGETS = (
    ("io", "load_matrix"),
    ("io", "save_matrix"),
    ("core", "AsymToeplitz.from_first_row_col"),
    ("core", "AsymToeplitz.from_dense"),
    ("core", "AsymToeplitz.rot180"),
    ("core", "AsymToeplitz.to_dense"),
    ("core", "dense_mul"),
    ("core", "dense_is_toeplitz"),
    ("core", "dense_is_hankel"),
    ("product", "comparison_vectors"),
    ("product", "rank_one_equal"),
    ("product", "product_is_toeplitz"),
    ("hankel", "hankel_product_is_toeplitz"),
    ("hankel", "hankel_times_toeplitz_is_hankel"),
    ("isometry", "is_isometry"),
    ("isometry", "hankel_is_isometry"),
    ("isometry", "isometry_residual"),
    ("displacement", "displacement_dense"),
    ("displacement", "is_toeplitz_by_displacement"),
    ("families", "gen_pair"),
    ("families", "gen_degenerate"),
    ("families", "perturb_to_break"),
    ("families", "random_toeplitz"),
    ("cli", "main"),
)

# counts recorded at the same boundaries
TO_DENSE_ENTRIES = "core.to_dense.entries"
LOAD_BYTES = "io.load_matrix.bytes"
AFTER_FAILED_MATCH = "isometry.isometry_residual.after_failed_match"
COUNTS = (TO_DENSE_ENTRIES, LOAD_BYTES, AFTER_FAILED_MATCH)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


NAMES = tuple(span_name(module, attr) for module, attr in TARGETS)


class Tracer:
    """Span recorder; :meth:`install` wraps, :meth:`uninstall` restores."""

    def __init__(self):
        self._restore = []
        self._spans = []            # [name_id, start, end, parent] per call
        self._stack = []
        self._failed_match = set()  # is_isometry spans whose match returned None
        self.calls = {"setup": Counter(), "rounds": Counter()}
        self.self_s = Counter()     # calibrated self seconds per name
        self.counts = {"setup": Counter(), "rounds": Counter()}
        self._pending_counts = Counter()
        self.archive = []           # drained spans, parents made global
        self._hook_table = self._hooks()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items()
                   if key == "toepcert" or key.startswith("toepcert.")]
        for name_id, (module, attr) in enumerate(TARGETS):
            home = sys.modules[f"toepcert.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(raw.__func__, name_id)))
                else:
                    setattr(cls, meth, self._wrap(raw, name_id))
                self._restore.append((cls, meth, raw))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, name_id)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def _wrap(self, fn, name_id: int):
        spans, stack = self._spans, self._stack
        hook = self._hook_table.get(NAMES[name_id])

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            record = [name_id, 0.0, 0.0, parent]
            spans.append(record)
            stack.append(idx)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, result, parent)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counts at the boundaries --------------------------------------------

    def _hooks(self):
        is_isometry = NAMES.index("isometry.is_isometry")

        def parent_is_isometry(parent):
            return parent >= 0 and self._spans[parent][0] == is_isometry

        def to_dense(args, result, parent):
            self._pending_counts[TO_DENSE_ENTRIES] += args[0].n * args[0].m

        def load_matrix(args, result, parent):
            self._pending_counts[LOAD_BYTES] += os.path.getsize(args[0])

        def rank_one_equal(args, result, parent):
            if result is None and parent_is_isometry(parent):
                self._failed_match.add(parent)

        def isometry_residual(args, result, parent):
            if parent in self._failed_match and parent_is_isometry(parent):
                self._pending_counts[AFTER_FAILED_MATCH] += 1

        return {
            "core.to_dense": to_dense,
            "io.load_matrix": load_matrix,
            "product.rank_one_equal": rank_one_equal,
            "isometry.isometry_residual": isometry_residual,
        }

    # -- aggregation ----------------------------------------------------------

    def drain(self, factor: float, phase: str) -> None:
        """Fold the recorded spans into per-name totals.

        ``factor`` converts this block's wall-clock seconds to calibrated
        seconds.  Must be called between operations, with no span open.
        """
        spans = self._spans
        child = [0.0] * len(spans)
        for name_id, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = self.calls[phase]
        for idx, (name_id, start, end, parent) in enumerate(spans):
            name = NAMES[name_id]
            calls[name] += 1
            self.self_s[name] += (end - start - child[idx]) * factor
        offset = len(self.archive)
        self.archive.extend((name_id, start, end, parent + offset if parent >= 0 else -1)
                            for name_id, start, end, parent in spans)
        self.counts[phase].update(self._pending_counts)
        self._pending_counts.clear()
        spans.clear()
        self._failed_match.clear()

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Calls, counts per one set-up plus one round; self time per call."""
        out = {}
        for name in NAMES:
            setup, measured = self.calls["setup"][name], self.calls["rounds"][name]
            out[f"{name}.calls"] = setup + measured / rounds
            total = setup + measured
            out[f"{name}.self_us"] = self.self_s[name] / total * 1e6 if total else 0.0
        for name in COUNTS:
            out[name] = self.counts["setup"][name] + self.counts["rounds"][name] / rounds
        return out

    def save(self, path) -> None:
        """Write every archived span as arrays: name id, start, end, parent."""
        table = np.array(self.archive, dtype=float).reshape(-1, 4)
        np.savez_compressed(path, names=np.array(NAMES), name_id=table[:, 0].astype(int),
                            start=table[:, 1], end=table[:, 2],
                            parent=table[:, 3].astype(int))
