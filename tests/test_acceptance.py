"""Acceptance suite: one test per criterion, at the stated tolerances.

Each criterion prints a PASS/FAIL line (run with ``pytest -s`` to see them
on success).  Tolerances are pinned here and nowhere else.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import toepcert as tc
from toepcert.cli import main
from helpers import (
    EXACT,
    displacement_interior,
    nonzero_fill,
    product_example_dense,
    unit_isometry_dense,
)

TOL9 = tc.Tolerance(1e-9)


@contextmanager
def criterion(num, desc):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        print(f"[criterion {num}] {status}: {desc} ({elapsed * 1e3:.1f} ms)")


def best_of(fn, repeats=5):
    """Smallest wall time of several runs, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def sweep_pairs():
    """The criterion-3 corpus: for every size triple in [1..6]^3, five
    seeded generated pairs and, where the perturbation precondition is
    satisfiable (n > 1 and l > 1), five broken pairs."""
    fill_rng = np.random.default_rng(99)
    for n in range(1, 7):
        for m in range(1, 7):
            for l in range(1, 7):
                regime = tc.classify_regime(n, m, l)
                for seed in range(5):
                    spec = tc.FamilySpec(regime, n, m, l, lam=2.0, seed=seed)
                    yield tc.gen_pair(spec), True
                if n == 1 or l == 1:
                    continue  # the column tail or row parameters are
                    # structurally zero: nothing to perturb
                for seed in range(5):
                    spec = tc.FamilySpec(
                        regime, n, m, l, lam=2.0, seed=seed,
                        a_free=nonzero_fill(fill_rng, m - 1),
                        b_free=nonzero_fill(fill_rng, m - 1),
                        a0=complex(nonzero_fill(fill_rng, 1)[0]),
                        b0=complex(nonzero_fill(fill_rng, 1)[0]))
                    yield tc.perturb_to_break(tc.gen_pair(spec), EXACT), False


def test_criterion_1_isometry_example():
    with criterion(1, "worked 3x2 isometry example certified at 1e-12"):
        M = unit_isometry_dense()
        A = tc.AsymToeplitz.from_dense(M)
        assert np.max(np.abs(M.conj().T @ M - np.eye(2))) <= 1e-12
        cert = tc.is_isometry(A, tc.Tolerance(1e-12))
        assert cert.accepted
        assert abs(abs(cert.lam) - 1.0) <= 1e-12
        assert abs(cert.column_norm_sq - 1.0) <= 1e-12
        assert best_of(lambda: tc.is_isometry(A, TOL9)) < 1e-3


def test_criterion_2_product_example():
    with criterion(2, "worked 4x5 by 5x3 product example, corner entry 67"):
        Ad, Bd = product_example_dense()
        A = tc.AsymToeplitz.from_dense(Ad, EXACT)
        B = tc.AsymToeplitz.from_dense(Bd, EXACT)
        cert = tc.product_is_toeplitz(A, B, EXACT)
        assert cert is not None
        P = Ad @ Bd
        assert P[0, 0] == 67
        assert tc.dense_is_toeplitz(P, EXACT)
        assert best_of(lambda: tc.product_is_toeplitz(A, B, EXACT)) < 1e-3


def test_criterion_3_predicate_oracle_equivalence():
    with criterion(3, "generated and broken pairs match the dense oracle "
                      "at tolerance zero over [1..6]^3"):
        t0 = time.perf_counter()
        checked = 0
        for (A, B), expect in sweep_pairs():
            verdict = tc.product_is_toeplitz(A, B, EXACT) is not None
            oracle = tc.dense_is_toeplitz(A.to_dense() @ B.to_dense(), EXACT)
            assert verdict == oracle == expect
            checked += 1
        assert checked == 216 * 5 + 150 * 5
        assert time.perf_counter() - t0 < 10.0


def test_criterion_4_delta_product_identity():
    with criterion(4, "product identity x (x) y - u (x) v within 1e-10 of the "
                      "dense displacement interior, 200 unconstrained pairs"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(4)
        seen = {r: 0 for r in tc.Regime}

        def float_compact(n, m):
            a = np.zeros(n, dtype=complex)
            a[1:] = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
            alpha = np.zeros(m, dtype=complex)
            alpha[1:] = rng.standard_normal(m - 1) + 1j * rng.standard_normal(m - 1)
            return tc.AsymToeplitz(n, m, complex(*rng.standard_normal(2)), a, alpha)

        def sample_sizes(regime):
            # sizes <= 8; the inner dimension bounds n and l per regime
            if regime is tc.Regime.R1:
                m = int(rng.integers(1, 9))
                return int(rng.integers(1, m + 1)), m, int(rng.integers(1, m + 1))
            if regime is tc.Regime.R2:
                m = int(rng.integers(1, 8))
                return int(rng.integers(m + 1, 9)), m, int(rng.integers(m + 1, 9))
            if regime is tc.Regime.R3:
                m = int(rng.integers(1, 8))
                return int(rng.integers(1, m + 1)), m, int(rng.integers(m + 1, 9))
            m = int(rng.integers(1, 8))
            return int(rng.integers(m + 1, 9)), m, int(rng.integers(1, m + 1))

        for i in range(200):
            regime = list(tc.Regime)[i % 4]
            n, m, l = sample_sizes(regime)
            A = float_compact(n, m)
            B = float_compact(m, l)
            assert tc.classify_regime(n, m, l) is regime
            seen[regime] += 1
            dense = tc.displacement_dense(A.to_dense() @ B.to_dense())
            err = np.max(np.abs(displacement_interior(A, B) - dense[1:, 1:]), initial=0.0)
            assert err <= 1e-10
        assert all(count == 50 for count in seen.values())
        assert time.perf_counter() - t0 < 2.0


def test_criterion_6_displacement_characterization():
    with criterion(6, "displacement interior vanishes exactly when the direct "
                      "diagonal check says Toeplitz, on 1000 random + 100 "
                      "Toeplitz matrices"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(6)
        agree = 0

        def interior_vanishes(M):
            return not np.any(tc.displacement_dense(M)[1:, 1:])

        for _ in range(1000):
            M = rng.standard_normal((6, 7)) + 1j * rng.standard_normal((6, 7))
            agree += (interior_vanishes(M) == tc.dense_is_toeplitz(M, EXACT)
                      == tc.dense_is_toeplitz(M) == False)
        for _ in range(100):
            M = tc.random_toeplitz(rng, 6, 7).to_dense()
            agree += (interior_vanishes(M) == tc.dense_is_toeplitz(M, EXACT)
                      == tc.dense_is_toeplitz(M) == True)
        assert agree == 1100
        assert time.perf_counter() - t0 < 1.0


def test_criterion_7_isometry_necessary_condition():
    with criterion(7, "all accepted isometries have unit column norm and "
                      "match the dense oracle (1e4+ candidates)"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)

        def check(A):
            cert = tc.is_isometry(A, TOL9)
            defect = float(np.max(np.abs(
                A.to_dense().conj().T @ A.to_dense() - np.eye(A.m))))
            assert cert.accepted == (defect <= 1e-9)
            if cert.accepted:
                assert abs(cert.column_norm_sq - 1.0) <= 1e-9
            return cert.accepted

        accepted = 0
        accepted += check(tc.AsymToeplitz.from_dense(unit_isometry_dense()))
        for theta in np.linspace(0.0, 2 * np.pi, 100):
            accepted += check(tc.AsymToeplitz(1, 1, np.exp(1j * theta), [0], [0]))
        for _ in range(50):
            n = int(rng.integers(1, 7))
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v /= np.linalg.norm(v)
            a = np.zeros(n, dtype=complex)
            a[1:] = v[1:]
            accepted += check(tc.AsymToeplitz(n, 1, complex(v[0]), a, [0.0]))
        for _ in range(10_000):
            n, m = rng.integers(1, 6, size=2)
            check(tc.random_toeplitz(rng, n, m))
        assert accepted == 151  # every curated candidate is an isometry
        assert time.perf_counter() - t0 < 5.0


def test_criterion_8_hankel_corollaries():
    with criterion(8, "hankel reductions give verdicts identical to the "
                      "underlying pairs and to the dense oracles"):
        t0 = time.perf_counter()
        for (A, B), _ in sweep_pairs():
            direct = tc.product_is_toeplitz(A, B, EXACT)
            H1, H2 = tc.flip_cols(A), tc.flip_rows_of(B)
            viaflip = tc.product_is_toeplitz(H1, H2, EXACT)
            assert (direct is None) == (viaflip is None)
            if direct is not None:
                assert viaflip.regime is direct.regime
                assert viaflip.lam == direct.lam
                assert viaflip.outcome.is_proportional == direct.outcome.is_proportional
            assert (viaflip is not None) == tc.dense_is_toeplitz(
                H1.to_dense() @ H2.to_dense(), EXACT)

            HB = tc.flip_rows_of(A)
            mixed = tc.product_is_toeplitz(HB, B, EXACT)
            assert (mixed is None) == (direct is None)
            assert (mixed is not None) == tc.dense_is_hankel(
                HB.to_dense() @ B.to_dense(), EXACT)
        assert time.perf_counter() - t0 < 10.0


def test_criterion_9_cli_end_to_end(tmp_path, capsys):
    with criterion(9, "cli generate/product/oracle round trips with the "
                      "documented exit codes, never 3"):
        t0 = time.perf_counter()
        fa, fb = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        codes = []

        cases = [("r1", 3, 5, 4), ("r2", 7, 3, 8), ("r3", 2, 4, 7),
                 ("r4", 8, 4, 3), ("form-a", 3, 5, 4), ("form-b", 4, 5, 3),
                 ("lambda-zero", 4, 3, 6), ("lambda-infinity", 6, 3, 4)]
        for regime, n, m, l in cases:
            code = main(["generate", "--regime", regime, "-n", str(n),
                         "-m", str(m), "-l", str(l), "--seed", "1",
                         "--out-a", fa, "--out-b", fb])
            codes.append(code)
            assert code == 0
            code = main(["product", fa, fb, "--oracle"])
            codes.append(code)
            assert code == 0

        rng = np.random.default_rng(9)
        for regime, n, m, l in [("r1", 3, 5, 4), ("r2", 7, 3, 8)]:
            spec = tc.FamilySpec(tc.Regime[regime.upper()], n, m, l, lam=2.0,
                                 a_free=nonzero_fill(rng, m - 1),
                                 b_free=nonzero_fill(rng, m - 1),
                                 a0=1.0, b0=1.0, seed=2)
            A2, B2 = tc.perturb_to_break(tc.gen_pair(spec), EXACT)
            tc.save_matrix(fa, A2)
            tc.save_matrix(fb, B2)
            code = main(["product", fa, fb, "--oracle"])
            codes.append(code)
            assert code == 1

        bad = tmp_path / "bad.json"
        bad.write_text("{malformed", encoding="utf-8")
        code = main(["product", str(bad), fb, "--oracle"])
        codes.append(code)
        assert code == 2

        assert all(code in (0, 1, 2) for code in codes)
        assert 3 not in codes
        capsys.readouterr()
        assert time.perf_counter() - t0 < 5.0
