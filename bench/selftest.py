"""Self-test of the benchmark, one round per workload.

    python3 bench/selftest.py

For every workload it checks that

* one round on a second seed (2; runs default to seed 1) completes with
  zero failed operations;
* one round in which the program's first verdict is deliberately flipped
  fails exactly that one operation, so the checker catches a wrong answer;
* the checker's randomized displacement probe agrees with its own dense
  scan on products small enough to realize.

Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys

import run

SECOND_SEED = 2


def flip_first(module, name: str, flip):
    """Patch ``module.name`` so that its first call returns a flipped verdict."""
    original = getattr(module, name)
    pending = [True]

    def patched(*args, **kwargs):
        out = original(*args, **kwargs)
        if pending:
            pending.clear()
            return flip(out)
        return out

    setattr(module, name, patched)
    return lambda: setattr(module, name, original)


def one_round(workload, kernel, seed: int, work, patch=None) -> run.Measurement:
    built = workload.build(seed, run.Stopwatch(kernel), work)
    ops = workload.operations(built, work)
    m = run.Measurement(kernel)
    restore = patch() if patch else None
    try:
        m.run_round(ops)
    finally:
        if restore:
            restore()
    return m


def probe_matches_dense(checker) -> bool:
    import numpy as np
    rng = np.random.default_rng(SECOND_SEED)
    agree = True
    for trial in range(12):
        n, m, l = (int(x) for x in rng.integers(40, 120, size=3))
        c = rng.integers(-5, 6, size=n) + 0j
        r = rng.integers(-5, 6, size=m) + 0j
        r[0] = c[0]
        left = checker.Toep(c, r)
        if trial % 2:  # a Toeplitz product: the right factor is the identity
            right = checker.Toep(np.eye(m, l)[:, 0] + 0j, np.eye(m, l)[0] + 0j)
        else:
            c2 = rng.integers(-5, 6, size=m) + 0j
            r2 = rng.integers(-5, 6, size=l) + 0j
            r2[0] = c2[0]
            right = checker.Toep(c2, r2)
        for structure in ("toeplitz", "hankel"):
            dense = checker.product_has_structure(left, right, structure)
            limit = checker.DENSE_LIMIT
            checker.DENSE_LIMIT = 0
            try:
                probed = checker.product_has_structure(left, right, structure, seed=trial)
            finally:
                checker.DENSE_LIMIT = limit
            agree &= dense == probed
    return agree


def main() -> int:
    if not run.load_program():
        return 2
    import checker
    import kernels
    import workloads
    from toepcert import cli, hankel, isometry, product

    def flip_certificate(cert):
        return None if cert is not None else object()

    def flip_isometry(cert):
        return dataclasses.replace(cert, accepted=not cert.accepted)

    def flip_exit(code):
        return {0: 1, 1: 0}.get(code, code)

    # where each workload's verdicts come from: (module, name, flip)
    flips = {
        "products-small": (product, "product_is_toeplitz", flip_certificate),
        "hankel-large": (hankel, "product_is_toeplitz", flip_certificate),
        "isometry-large": (isometry, "is_isometry", flip_isometry),
        "cli-files": (cli, "main", flip_exit),
    }
    ok = True
    work = run.BENCH / "_work" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name, workload in workloads.WORKLOADS.items():
            kernel = kernels.KERNELS[workload.kernel]
            clean = one_round(workload, kernel, SECOND_SEED, work)
            module, attr, flip = flips[name]
            flipped = one_round(workload, kernel, run.DEFAULT_SEED, work,
                                lambda: flip_first(module, attr, flip))
            passed = clean.failed == 0 and flipped.failed == 1 and flipped.wrong == 1
            ok &= passed
            print(f"{'PASS' if passed else 'FAIL'} {name}: seed {SECOND_SEED} failed "
                  f"{clean.failed}; one flipped verdict failed {flipped.failed} "
                  f"(wrong {flipped.wrong})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    agree = probe_matches_dense(checker)
    ok &= agree
    print(f"{'PASS' if agree else 'FAIL'} checker: displacement probe agrees with dense scan")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
