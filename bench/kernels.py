"""Reference kernels that calibrate the benchmark's timings.

The benchmark interleaves the program's work with runs of a reference
kernel: a fixed amount of work that imports nothing from ``toepcert``.
Time is reported in calibrated seconds, measured time scaled by
``nominal_s / measured kernel time``, so a machine that is slower for a
while slows the kernel by the same factor and the calibrated figure holds.

That only works when the kernel is slowed by what slows the workload, so
each workload gets the kernel that resembles its own work:

* ``numpy-small``: many NumPy reductions on arrays of a few dozen entries,
  like ``rank_one_equal`` and ``comparison_vectors``.
* ``boxing``: NumPy scalars boxed one at a time into a Python list that
  goes back through ``np.array``, like ``AsymToeplitz.rot180``.
* ``dense-realize``: a 34 MB Toeplitz matrix realized into fresh memory,
  conjugated and multiplied by a vector, like ``AsymToeplitz.to_dense``
  inside ``isometry_residual``.
* ``json-parse``: ``json.loads`` of ``[re, im]`` pairs followed by a
  per-entry type check and store, like ``io.load_matrix``.

``nominal_s`` is close to the kernel's median time on the 2-core machine
described in the README, so calibrated and raw figures are close there.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["KERNELS", "Kernel"]


@dataclass(frozen=True)
class Kernel:
    name: str
    nominal_s: float
    work: Callable[[], object]

    def time(self) -> float:
        """Run the kernel once and return its wall-clock seconds."""
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0


def _numpy_small(reps: int = 120, size: int = 40) -> Callable[[], object]:
    rng = np.random.default_rng(7)
    x = (rng.integers(-5, 6, size) + 1j * rng.integers(-5, 6, size)).astype(complex)
    xp = 2.0 * x
    y = np.conj(x[::-1])

    def work():
        acc = 0.0
        for _ in range(reps):
            xa = np.asarray(x, dtype=complex)
            u = np.zeros(size, dtype=complex)
            u[1:size // 2] = np.conj(y[size - 1:size // 2:-1])
            zero = (np.max(np.abs(xa)) <= 1e-9) or (np.max(np.abs(y)) <= 1e-9)
            pivot = int(np.argmax(np.abs(xp)))
            lam = complex(xa[pivot] / xp[pivot])
            scale = float(max(np.max(np.abs(xa)), np.max(np.abs(lam * xp))))
            close = np.max(np.abs(xa - lam * xp)) <= 1e-9 + 1e-9 * scale
            acc += float(np.max(np.abs(u))) + zero + close
        return acc

    return work


def _boxing(reps: int = 5, size: int = 2048) -> Callable[[], object]:
    rng = np.random.default_rng(11)
    v = (rng.integers(-5, 6, size) + 1j * rng.integers(-5, 6, size)).astype(complex)

    def work():
        out = None
        for _ in range(reps):
            boxed = [complex(v[size - 1 - i]) for i in range(size)]
            out = np.array(boxed, dtype=complex)
        return out

    return work


def _dense_realize(n: int = 1536, m: int = 1400) -> Callable[[], object]:
    diagonals = (np.arange(n + m - 1) % 11 - 5).astype(complex)
    # row i of the Toeplitz matrix is a window of the reversed diagonals
    rows = np.lib.stride_tricks.sliding_window_view(diagonals[::-1].copy(), m)[::-1]
    vec = np.ones(n, dtype=complex)

    def work():
        # over 32 MiB, so like the program's realizations at the largest
        # sizes it always comes from fresh pages
        dense = np.array(rows)
        return dense.conj().T @ vec

    return work


def _json_parse(reps: int = 2, size: int = 1024) -> Callable[[], object]:
    text = json.dumps({"data": [[float(i % 11 - 5), float(i % 7 - 3)] for i in range(size)]})

    def work():
        out = None
        for _ in range(reps):
            items = json.loads(text)["data"]
            out = np.zeros(size, dtype=complex)
            for pos, item in enumerate(items):
                if (not isinstance(item, list) or len(item) != 2
                        or any(isinstance(p, bool) or not isinstance(p, (int, float))
                               for p in item)):
                    raise ValueError(pos)
                out[pos] = complex(float(item[0]), float(item[1]))
        return out

    return work


KERNELS = {
    "numpy-small": Kernel("numpy-small", 0.0060, _numpy_small()),
    "boxing": Kernel("boxing", 0.0060, _boxing()),
    "dense-realize": Kernel("dense-realize", 0.0290, _dense_realize()),
    "json-parse": Kernel("json-parse", 0.0050, _json_parse()),
}
