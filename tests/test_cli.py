import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import toepcert as tc
from toepcert import cli
from toepcert.cli import main
from toepcert.families import gen_isometry
from helpers import (
    EXACT,
    factors_of,
    nonzero_fill,
    reference_main,
    reference_product_structure,
    unit_isometry_dense,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, (json.loads(out) if out.startswith("{") else out)


def assert_input_error(capsys, *argv):
    """The command exits 2 with a single 'error:' line and no traceback.

    Returns that line.
    """
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def run_fresh(*argv):
    """``python -m toepcert argv`` in a fresh process: (exit code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "toepcert", *map(str, argv)],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


# both parts finite, modulus beyond float64's range
BIG = 1.5e308 + 1.5e308j
# no constant diagonal or anti-diagonal: (0, 0) and (2, 0) are BIG, (1, 1) is 1
BIG_UNSTRUCTURED = np.array([[BIG, 7, BIG], [5, 1, -2], [BIG, 8, -BIG]])


class TestCheck:
    def test_dense_identity(self, tmp_path, capsys):
        f = tmp_path / "m.json"
        tc.save_matrix(f, np.eye(4, dtype=complex))
        code, verdict = run(capsys, "check", str(f))
        assert code == 0
        assert verdict == {"structure": "toeplitz", "via": "displacement"}

    def test_dense_unit_isometry(self, tmp_path, capsys):
        f = tmp_path / "m.json"
        tc.save_matrix(f, unit_isometry_dense())
        code, verdict = run(capsys, "check", str(f))
        assert code == 0 and verdict["structure"] == "toeplitz"

    def test_dense_unstructured(self, tmp_path, capsys):
        f = tmp_path / "m.json"
        tc.save_matrix(f, np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex))
        code, verdict = run(capsys, "check", str(f))
        assert code == 1 and verdict["structure"] == "none"

    def test_dense_hankel(self, tmp_path, capsys, rng):
        f = tmp_path / "m.json"
        H = tc.flip_cols(tc.random_toeplitz(rng, 3, 4))
        tc.save_matrix(f, H.to_dense())
        code, verdict = run(capsys, "check", str(f))
        assert code == 0 and verdict["structure"] == "hankel"

    def test_structured_kind_short_circuits(self, tmp_path, capsys, rng):
        f = tmp_path / "m.json"
        A = tc.random_toeplitz(rng, 3, 4)
        for M, structure in ((A, "toeplitz"), (tc.flip_cols(A), "hankel")):
            tc.save_matrix(f, M)
            code, verdict = run(capsys, "check", str(f))
            assert code == 0
            assert verdict == {"structure": structure, "via": "direct"}

    def test_overflowing_difference_is_a_break_not_a_warning(self, tmp_path):
        # 1e308 - (-1e308) overflows on the diagonal: a break, so the dense
        # file is Hankel, and nothing reaches stderr, in a fresh process
        f = tmp_path / "m.json"
        tc.save_matrix(f, np.array([[1e308, 0], [0, -1e308]], dtype=complex))
        proc = subprocess.run([sys.executable, "-m", "toepcert", "check", str(f)],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout) == {"structure": "hankel", "via": "direct"}

    def test_overflowing_modulus_is_not_structure(self, tmp_path):
        # an entry whose modulus overflows must not make every difference
        # pass; in the second matrix only the anti-diagonals are constant
        # within tau * (1 + max|M|)
        f = tmp_path / "m.json"
        tc.save_matrix(f, BIG_UNSTRUCTURED)
        assert run_fresh("check", f) == (1, '{"structure": "none", "via": "direct"}\n', "")
        tc.save_matrix(f, np.array([[BIG, 7, 3], [5, 1, -2], [9, 8, 6]]))
        assert run_fresh("check", f) == (0, '{"structure": "hankel", "via": "direct"}\n', "")

    def test_dense_file_promoted_as_product_promotes_it(self, tmp_path, capsys, monkeypatch,
                                                        rng):
        # check answers through the promotion product uses, not the dense
        # product's oracle
        def refuse(*args, **kwargs):
            raise AssertionError("check called the dense product oracle")

        monkeypatch.setattr(cli, "_product_break", refuse)
        T = tc.random_toeplitz(rng, 3, 4)
        f = tmp_path / "m.json"
        for M, code, verdict in (
                (T.to_dense(), 0, {"structure": "toeplitz", "via": "displacement"}),
                (tc.flip_cols(T).to_dense(), 0, {"structure": "hankel", "via": "direct"}),
                (np.array([[1, 2], [3, 4]], dtype=complex), 1,
                 {"structure": "none", "via": "direct"})):
            tc.save_matrix(f, M)
            assert run(capsys, "check", str(f)) == (code, verdict)

    def test_dense_toeplitz_and_hankel_is_toeplitz(self, tmp_path, capsys):
        # a constant matrix or a single row is both; check and product
        # promote it Toeplitz first
        f = tmp_path / "m.json"
        for M in (np.full((3, 3), 2 - 1j), np.array([[1, 2, 3]], dtype=complex)):
            tc.save_matrix(f, M)
            assert run(capsys, "check", str(f)) == (
                0, {"structure": "toeplitz", "via": "displacement"})
        tc.save_matrix(f, np.full((3, 3), 2 - 1j))
        code, verdict = run(capsys, "product", str(f), str(f), "--json")
        assert code == 0 and verdict["product"] == "toeplitz"

    def test_malformed_file(self, tmp_path, capsys):
        f = tmp_path / "m.json"
        f.write_text("{broken", encoding="utf-8")
        assert main(["check", str(f)]) == 2


class TestProduct:
    def _write_pair(self, tmp_path, A, B):
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        tc.save_matrix(fa, A)
        tc.save_matrix(fb, B)
        return str(fa), str(fb)

    def test_generated_pair_proportional(self, tmp_path, capsys, rng):
        spec = tc.FamilySpec(tc.Regime.R1, 3, 5, 4, lam=2.0, seed=1,
                             a_free=nonzero_fill(rng, 4),
                             b_free=nonzero_fill(rng, 4))
        fa, fb = self._write_pair(tmp_path, *tc.gen_pair(spec))
        code, verdict = run(capsys, "product", fa, fb, "--oracle", "--json")
        assert code == 0
        assert verdict["case"] == "proportional"
        assert verdict["lambda"] == [2.0, 0.0]
        assert verdict["oracle_agrees"] is True

    @pytest.mark.parametrize("sign", [1, -1], ids=["A", "minus_A"])
    def test_lambda_zero_part_prints_positive(self, tmp_path, capsys, sign):
        # x_p / u_p is 2 + 0j for this pair and 2 - 0j with A negated; both
        # print the same lambda
        A = tc.AsymToeplitz.from_dense(sign * np.array([[4 + 2j], [8 + 4j]]))
        B = tc.AsymToeplitz.from_dense([[-3j, -1.5j]])
        fa, fb = self._write_pair(tmp_path, A, B)
        code, verdict = run(capsys, "product", fa, fb, "--json")
        assert code == 0 and verdict["case"] == "proportional"
        assert verdict["lambda"] == [2.0, 0.0]
        assert np.signbit(verdict["lambda"]).tolist() == [False, False]

    def test_identity_pair_both_zero(self, tmp_path, capsys):
        fa, fb = self._write_pair(tmp_path, tc.AsymToeplitz.eye(3, 5),
                                  tc.AsymToeplitz.eye(5, 4))
        code, verdict = run(capsys, "product", fa, fb, "--json")
        assert code == 0 and verdict["case"] == "both_zero"

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tolerance_is_input_error(self, tmp_path, capsys, tol):
        # a NaN or negative tolerance answered "no" on this certified pair
        fa, fb = self._write_pair(tmp_path, *tc.gen_pair(
            tc.FamilySpec(tc.Regime.R1, 3, 5, 4, lam=2.0, seed=1)))
        assert main(["product", fa, fb, "--oracle", "--tol", tol]) == 2
        assert "tolerance" in capsys.readouterr().err

    def test_perturbed_pair_exits_one_never_three(self, tmp_path, capsys, rng):
        spec = tc.FamilySpec(tc.Regime.R1, 3, 5, 4, lam=2.0, seed=2,
                             a_free=nonzero_fill(rng, 4),
                             b_free=nonzero_fill(rng, 4))
        A2, B2 = tc.perturb_to_break(tc.gen_pair(spec), EXACT)
        fa, fb = self._write_pair(tmp_path, A2, B2)
        code, verdict = run(capsys, "product", fa, fb, "--oracle", "--json")
        assert code == 1
        assert verdict["structured"] is False and verdict["oracle_agrees"] is True

    def test_hankel_pair(self, tmp_path, capsys, rng):
        A = tc.random_toeplitz(rng, 3, 5)
        B = tc.random_toeplitz(rng, 5, 4)
        fa, fb = self._write_pair(tmp_path, tc.flip_cols(tc.AsymToeplitz.zero(3, 5)),
                                  tc.flip_rows_of(B))
        code, verdict = run(capsys, "product", fa, fb, "--oracle", "--json")
        assert code == 0 and verdict["product"] == "toeplitz"
        assert A.n == 3  # fixture use

    def test_mixed_hankel_toeplitz(self, tmp_path, capsys):
        H = tc.flip_rows_of(tc.AsymToeplitz.eye(3, 5))
        B = tc.AsymToeplitz.eye(5, 4)
        fa, fb = self._write_pair(tmp_path, H, B)
        code, verdict = run(capsys, "product", fa, fb, "--oracle", "--json")
        assert code == 0 and verdict["product"] == "hankel"
        assert verdict["oracle_agrees"] is True

    def test_mixed_toeplitz_hankel(self, tmp_path, capsys):
        A = tc.AsymToeplitz.eye(3, 5)
        H = tc.flip_cols(tc.AsymToeplitz.eye(5, 4))
        fa, fb = self._write_pair(tmp_path, A, H)
        code, verdict = run(capsys, "product", fa, fb, "--oracle", "--json")
        assert code == 0 and verdict["product"] == "hankel"
        assert verdict["oracle_agrees"] is True

    def test_dense_inputs_are_promoted(self, tmp_path, capsys):
        fa, fb = self._write_pair(tmp_path, np.eye(3, 5, dtype=complex),
                                  np.eye(5, 4, dtype=complex))
        code, verdict = run(capsys, "product", fa, fb, "--json")
        assert code == 0 and verdict["product"] == "toeplitz"

    def test_overflowing_dense_operand_prints_no_warning(self, tmp_path):
        # the operand's diagonal difference overflows while from_dense scans
        # it, which is a break, not a warning; as the right operand, the
        # match's defect overflows too, a rejection with NumPy's warning kept
        # off stderr: a fresh process's stderr is empty in both orders
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        tc.save_matrix(fa, np.array([[1e308, 0], [0, -1e308]], dtype=complex))
        tc.save_matrix(fb, np.array([[1, 2], [3, 1]], dtype=complex))
        for argv in ((fa, fb), (fb, fa)):
            assert run_fresh("product", *argv) == (1, "product hankel: no\n", "")

    def test_overflowing_modulus_operand_is_input_error(self, tmp_path):
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        tc.save_matrix(fa, BIG_UNSTRUCTURED)
        tc.save_matrix(fb, np.eye(3, dtype=complex))
        for argv in ((fa, fb), (fb, fa)):
            code, out, err = run_fresh("product", *argv)
            assert (code, out) == (2, "")
            assert err == f"error: {fa}: dense matrix is neither Toeplitz nor Hankel\n"

    def test_unstructured_file_a_reported_before_missing_file_b(self, tmp_path, capsys):
        fa = tmp_path / "a.json"
        tc.save_matrix(fa, np.array([[1, 2], [3, 4]], dtype=complex))
        err = assert_input_error(capsys, "product", str(fa), str(tmp_path / "missing.json"))
        assert err == f"error: {fa}: dense matrix is neither Toeplitz nor Hankel\n"

    def test_unstructured_dense_input_errors(self, tmp_path, capsys):
        fa, fb = self._write_pair(tmp_path,
                                  np.array([[1, 2], [3, 4]], dtype=complex),
                                  np.eye(2, 2, dtype=complex))
        assert main(["product", fa, fb]) == 2

    def test_dimension_mismatch_is_input_error(self, tmp_path):
        fa = tmp_path / "a.json"
        fb = tmp_path / "b.json"
        tc.save_matrix(fa, tc.AsymToeplitz.eye(3, 5))
        tc.save_matrix(fb, tc.AsymToeplitz.eye(4, 2))
        assert main(["product", str(fa), str(fb)]) == 2

    @pytest.mark.parametrize("kinds", ["TT", "TH", "HT", "HH"])
    def test_product_kind_is_reference_kind(self, tmp_path, capsys, kinds):
        # factors of the same kind ask for a Toeplitz product, mixed kinds
        # for a Hankel one, whether the pair is certified or broken
        pair = tc.gen_pair(tc.FamilySpec(tc.Regime.R2, 6, 3, 5, lam=2.0, seed=4,
                                         a_free=[1.0, 2.0], b_free=[3.0, 1j],
                                         a0=1.0, b0=1.0))
        for A, B in (pair, tc.perturb_to_break(pair, EXACT)):
            left, right = factors_of(kinds, A, B)
            kind, cert = reference_product_structure(left, right, EXACT)
            fa, fb = self._write_pair(tmp_path, left, right)
            code, verdict = run(capsys, "product", fa, fb, "--tol", "0", "--oracle", "--json")
            assert verdict["product"] == kind
            assert verdict["structured"] is (cert is not None)
            assert verdict["oracle_agrees"] is True
            assert code == (0 if cert is not None else 1)

    def test_oracle_disagreement_exits_three(self, tmp_path, capsys, monkeypatch):
        # the oracle's verdict is flipped, so the structured "yes" disagrees
        fa, fb = self._write_pair(tmp_path, tc.AsymToeplitz.eye(3, 5),
                                  tc.AsymToeplitz.eye(5, 4))
        monkeypatch.setattr(cli, "_product_break", lambda left, right, tol: (1, 1))
        assert main(["product", fa, fb, "--oracle", "--json"]) == 3
        captured = capsys.readouterr()
        assert json.loads(captured.out)["oracle_agrees"] is False
        assert captured.err == "structured verdict disagrees with the dense oracle\n"

    def test_human_readable_default(self, tmp_path, capsys):
        fa, fb = self._write_pair(tmp_path, tc.AsymToeplitz.eye(2, 3),
                                  tc.AsymToeplitz.eye(3, 2))
        code, out = run(capsys, "product", fa, fb)
        assert code == 0 and isinstance(out, str) and "yes" in out


def _scaled(T: tc.AsymToeplitz, power: int) -> tc.AsymToeplitz:
    s = 2.0 ** power
    return tc.AsymToeplitz(T.n, T.m, T.a0 * s, T.a * s, T.alpha * s)


class TestOracleOverflow:
    """``--oracle`` on finite files whose dense product overflows float64.

    Each factor is scaled by 2^power, which is exact, so the exit code must
    be the one at scale 1, with nothing on stderr: no overflow warning and
    no input error.
    """

    @pytest.mark.parametrize("regime,n,m,l", [
        (tc.Regime.R1, 3, 5, 4), (tc.Regime.R2, 6, 3, 5), (tc.Regime.R2, 7, 3, 8),
        (tc.Regime.R3, 2, 4, 7), (tc.Regime.R4, 8, 4, 3)])
    @pytest.mark.parametrize("power", [520, 600, 1000])
    @pytest.mark.parametrize("kinds", ["TT", "HH", "HT", "TH"])
    def test_exit_code_as_at_scale_one(self, tmp_path, capsys, regime, n, m, l, power,
                                       kinds):
        pair = tc.gen_pair(tc.FamilySpec(regime, n, m, l, lam=0.5 + 1j, seed=n + l))
        for (A, B), expected in ((pair, 0), (tc.perturb_to_break(pair, EXACT), 1)):
            codes = []
            for k in (0, power):
                left, right = factors_of(kinds, _scaled(A, k), _scaled(B, k))
                fa, fb = str(tmp_path / "a.json"), str(tmp_path / "b.json")
                tc.save_matrix(fa, left)
                tc.save_matrix(fb, right)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    codes.append(main(["product", fa, fb, "--oracle"]))
                assert capsys.readouterr().err == ""
            assert codes == [expected, expected]

    def test_fresh_process_stderr_empty(self, tmp_path):
        pair = tc.gen_pair(tc.FamilySpec(tc.Regime.R2, 6, 3, 5, seed=1))
        runs = []
        for k in (0, 520):
            fa, fb = str(tmp_path / f"a{k}.json"), str(tmp_path / f"b{k}.json")
            tc.save_matrix(fa, _scaled(pair[0], k))
            tc.save_matrix(fb, _scaled(pair[1], k))
            proc = subprocess.run([sys.executable, "-m", "toepcert", "product", fa, fb,
                                   "--oracle", "--json"], capture_output=True, text=True)
            runs.append((proc.returncode, proc.stderr, json.loads(proc.stdout)["oracle_agrees"]))
        assert runs[1] == runs[0] == (0, "", True)


class TestGenerate:
    @pytest.mark.parametrize("regime,n,m,l", [
        ("r1", 3, 5, 4), ("r2", 7, 3, 8), ("r3", 2, 4, 7), ("r4", 8, 4, 3),
        ("form-a", 3, 5, 4), ("form-b", 4, 5, 3),
        ("lambda-zero", 4, 3, 6), ("lambda-infinity", 6, 3, 4),
    ])
    def test_generate_then_product_passes(self, tmp_path, capsys, regime, n, m, l):
        fa, fb = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["generate", "--regime", regime, "-n", str(n), "-m", str(m),
                     "-l", str(l), "--lambda", "2,0", "--seed", "3",
                     "--out-a", fa, "--out-b", fb]) == 0
        capsys.readouterr()
        assert main(["product", fa, fb, "--oracle"]) == 0

    def test_invalid_regime_combination(self, tmp_path):
        code = main(["generate", "--regime", "r1", "-n", "6", "-m", "4", "-l", "3",
                     "--out-a", str(tmp_path / "a.json"),
                     "--out-b", str(tmp_path / "b.json")])
        assert code == 2

    def test_bad_lambda_syntax(self, tmp_path):
        code = main(["generate", "--regime", "r1", "-n", "2", "-m", "4", "-l", "3",
                     "--lambda", "two", "--out-a", str(tmp_path / "a.json"),
                     "--out-b", str(tmp_path / "b.json")])
        assert code == 2

    @pytest.mark.parametrize("lam, field", [("1e308,1e308", "a"), ("1e-320", "alpha")])
    def test_overflowing_lambda_is_one_error_line(self, tmp_path, lam, field):
        # a fresh process, where a NumPy warning would reach stderr as it
        # does for a user
        proc = subprocess.run(
            [sys.executable, "-m", "toepcert", "generate", "--regime", "r1", "-n", "2",
             "-m", "2", "-l", "2", "--lambda", lam, "--out-a", str(tmp_path / "a.json"),
             "--out-b", str(tmp_path / "b.json")], capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr == f"error: {field} contains non-finite entries\n"

    def test_unknown_regime_is_usage_error(self, tmp_path, capsys):
        code = main(["generate", "--regime", "r9", "-n", "2", "-m", "4", "-l", "3",
                     "--out-a", str(tmp_path / "a.json"),
                     "--out-b", str(tmp_path / "b.json")])
        assert code == 2

    @pytest.mark.parametrize("regime", ["r1", "form-a"])
    def test_oversized_refused_before_generating(self, tmp_path, capsys,
                                                 monkeypatch, regime):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        # the generators are stubbed, so no size here allocates anything
        monkeypatch.setattr(cli, "gen_pair", reached)
        monkeypatch.setattr(cli, "gen_degenerate", reached)
        outs = ["--out-a", str(tmp_path / "a.json"), "--out-b", str(tmp_path / "b.json")]
        assert_input_error(capsys, "generate", "--regime", regime, "-n", "4",
                           "-m", "300000000", "-l", "4", *outs)
        m = cli.MAX_DENSE_ENTRIES - 8
        assert_input_error(capsys, "generate", "--regime", regime, "-n", "4",
                           "-m", str(m + 1), "-l", "4", *outs)
        with pytest.raises(Reached):
            main(["generate", "--regime", regime, "-n", "4", "-m", str(m),
                  "-l", "4", *outs])
        assert not (tmp_path / "a.json").exists()

    @pytest.mark.parametrize("regime, corner, n, l", [("lambda-zero", "--b0", 3, 5),
                                                      ("lambda-infinity", "--a0", 5, 3)])
    def test_degenerate_zeroed_corner_is_input_error(self, tmp_path, capsys,
                                                     regime, corner, n, l):
        # the form sets this corner to zero, so a nonzero one is refused
        outs = ["--out-a", str(tmp_path / "a.json"), "--out-b", str(tmp_path / "b.json")]
        err = assert_input_error(capsys, "generate", "--regime", regime, "-n", str(n),
                                 "-m", "2", "-l", str(l), corner, "3,0", *outs)
        assert corner[2:] in err
        assert not (tmp_path / "a.json").exists()
        assert main(["generate", "--regime", regime, "-n", str(n), "-m", "2",
                     "-l", str(l), corner, "0,0", *outs]) == 0


class TestClosure:
    def test_generate_product_closure_all_sizes(self, tmp_path, capsys):
        # every size triple in [1..8]^3, generated under its own regime,
        # must survive the full file round trip with the oracle engaged
        fa, fb = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for n in range(1, 9):
            for m in range(1, 9):
                for l in range(1, 9):
                    regime = tc.classify_regime(n, m, l).name.lower()
                    assert main(["generate", "--regime", regime,
                                 "-n", str(n), "-m", str(m), "-l", str(l),
                                 "--seed", str(n * 64 + m * 8 + l),
                                 "--out-a", fa, "--out-b", fb]) == 0
                    assert main(["product", fa, fb, "--oracle"]) == 0
        capsys.readouterr()

    def test_generate_product_closure_degenerate_forms(self, tmp_path, capsys):
        fa, fb = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for form, needs in [("form-a", "n<=m"), ("form-b", "l<=m"),
                            ("lambda-zero", ""), ("lambda-infinity", "")]:
            for n in range(1, 9, 2):
                for m in range(1, 9, 2):
                    for l in range(1, 9, 2):
                        if needs == "n<=m" and n > m:
                            continue
                        if needs == "l<=m" and l > m:
                            continue
                        assert main(["generate", "--regime", form,
                                     "-n", str(n), "-m", str(m), "-l", str(l),
                                     "--seed", "7", "--out-a", fa,
                                     "--out-b", fb]) == 0
                        assert main(["product", fa, fb, "--oracle"]) == 0
        capsys.readouterr()


class TestIsometry:
    def test_unit_example_accepted(self, tmp_path, capsys):
        f = tmp_path / "m.json"
        tc.save_matrix(f, tc.AsymToeplitz.from_dense(unit_isometry_dense()))
        code, verdict = run(capsys, "isometry", str(f))
        assert code == 0
        assert verdict["accepted"] is True
        assert abs(verdict["column_norm_sq"] - 1.0) <= 1e-12
        assert verdict["lambda"] == [0.0, 1.0]

    def test_hankel_kind(self, tmp_path, capsys):
        f = tmp_path / "m.json"
        H = tc.flip_rows_of(tc.AsymToeplitz.from_dense(unit_isometry_dense()))
        tc.save_matrix(f, H)
        code, verdict = run(capsys, "isometry", str(f))
        assert code == 0 and verdict["accepted"] is True

    def test_scaled_identity_rejected(self, tmp_path, capsys):
        f = tmp_path / "m.json"
        tc.save_matrix(f, tc.AsymToeplitz(2, 2, 2.0, [0, 0], [0, 0]))
        code, verdict = run(capsys, "isometry", str(f))
        assert code == 1 and verdict["accepted"] is False
        # the column norm 4 decides before the residual is computed
        assert verdict["residual_norm"] is None and verdict["column_norm_sq"] == 4.0

    @pytest.mark.parametrize("flip", [None, tc.flip_cols, tc.flip_rows_of],
                             ids=["T", "flip_cols", "flip_rows_of"])
    def test_column_norm_rejection_prints_the_match_lambda(self, tmp_path, capsys, flip):
        # twice the 4 x 4 cyclic shift: column norm 4 rejects it before the
        # self-match, whose lambda 1 the command still prints, made when read,
        # with a +0 zero part for each form, though flip_rows_of's core, 2 S^T,
        # divides to 1 - 0j
        A = tc.AsymToeplitz(4, 4, 0.0, [0, 2, 0, 0], [0, 0, 0, 2])
        f = tmp_path / "m.json"
        tc.save_matrix(f, A if flip is None else flip(A))
        assert main(["isometry", str(f)]) == 1
        assert capsys.readouterr().out == (
            '{"accepted": false, "column_norm_sq": 4.0, "lambda": [1.0, 0.0], '
            '"residual_norm": null}\n')

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tolerance_is_input_error(self, tmp_path, capsys, tol):
        # 2 I is no isometry (residual 1.5), and an infinite tolerance accepted it
        f = tmp_path / "m.json"
        tc.save_matrix(f, tc.AsymToeplitz(2, 2, 2.0, [0, 0], [0, 0]))
        assert main(["isometry", str(f), "--tol", tol]) == 2
        assert "tolerance" in capsys.readouterr().err

    def test_failed_match_reports_no_residual(self, tmp_path, capsys):
        f = tmp_path / "m.json"
        tc.save_matrix(f, tc.AsymToeplitz(1, 2, 1.0, [0.0], [0.0, 0.0]))
        code, verdict = run(capsys, "isometry", str(f))
        assert code == 1 and verdict["residual_norm"] is None

    def test_dense_kind_rejected(self, tmp_path, capsys):
        # a dense file is promoted within --tol, as check and product promote
        # it: the identity with one diagonal entry off by 1e-6 is neither
        # kind under the default tolerance, and the identity under 1e-3
        M = np.eye(3, dtype=complex)
        M[2, 2] += 1e-6
        f = tmp_path / "m.json"
        tc.save_matrix(f, M)
        assert_input_error(capsys, "isometry", str(f))
        code, verdict = run(capsys, "isometry", str(f), "--tol", "1e-3")
        assert code == 0 and verdict["accepted"] is True and verdict["residual_norm"] == 0.0

    def test_malformed(self, tmp_path):
        f = tmp_path / "m.json"
        f.write_text("[]", encoding="utf-8")
        assert main(["isometry", str(f)]) == 2

    @pytest.mark.parametrize("flip", [tc.flip_cols, tc.flip_rows_of])
    def test_hankel_file_same_as_is_isometry(self, tmp_path, capsys, flip):
        # one call decides both compact kinds; a Hankel file's JSON is
        # that of is_isometry's certificate of the loaded matrix
        rng = np.random.default_rng(5)
        cases = [tc.AsymToeplitz.from_dense(unit_isometry_dense()),
                 tc.AsymToeplitz(40, 24, 0.0, np.eye(40)[3] * 1j, np.zeros(24)),
                 gen_isometry(rng, 33, 20), tc.random_toeplitz(rng, 6, 9)]
        for A in cases:
            f = tmp_path / "h.json"
            tc.save_matrix(f, flip(A))
            cert = tc.is_isometry(tc.load_matrix(f))
            expected = json.dumps({"accepted": cert.accepted,
                                   "lambda": None if cert.lam is None
                                   else [cert.lam.real, cert.lam.imag],
                                   "residual_norm": cert.residual_norm,
                                   "column_norm_sq": cert.column_norm_sq}, sort_keys=True)
            assert main(["isometry", str(f)]) == (0 if cert.accepted else 1)
            assert capsys.readouterr().out == expected + "\n"

    def test_exact_long_column_independent_of_blas_threads(self, tmp_path):
        # a 2**18 x 1 column of (1 + 2i, 1 + i, 2) times 2**-10 in the counts
        # 2**17, 2**16, 2**16, each turned by a power of i and conjugated at
        # random: every square is a multiple of 2**-20 and they sum to exactly
        # 1, so however OpenBLAS splits the dot, c and the verdict are exact
        rng = np.random.default_rng(26)
        n = 1 << 18
        column = np.repeat([1 + 2j, 1 + 1j, 2], [n // 2, n // 4, n // 4]) * 2.0**-10
        column *= np.array([1, 1j, -1, -1j])[rng.integers(0, 4, n)]
        column = np.where(rng.integers(0, 2, n) == 1, column, column.conj())
        rng.shuffle(column)
        f = tmp_path / "long.json"
        tc.save_matrix(f, tc.AsymToeplitz.from_first_row_col(column[:1], column))
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-m", "toepcert", "isometry", str(f),
                                   "--tol", "0"], capture_output=True, text=True, env=env)
            assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["column_norm_sq"] == 1.0

    @pytest.mark.parametrize("flip", [None, tc.flip_cols, tc.flip_rows_of],
                             ids=["T", "flip_cols", "flip_rows_of"])
    @pytest.mark.parametrize("a0, tail", [(1e200, 0.0), (1e200j, 0.0), (0.0, 1e200)],
                             ids=["corner", "imaginary-corner", "tail"])
    def test_overflowing_column_norm_is_null(self, tmp_path, capsys, flip, a0, tail):
        # the first column's squares overflow to inf, which strict JSON
        # cannot carry: the norm is reported as null.  The tail entry also
        # stands in the first row, so that the core that flip_rows_of's
        # Hankel file is decided on, A's rot180, has it in its first column
        A = tc.AsymToeplitz(2, 2, a0, [0, tail], [0, tail])
        f = tmp_path / "m.json"
        tc.save_matrix(f, A if flip is None else flip(A))
        assert main(["isometry", str(f)]) == 1
        out = capsys.readouterr().out

        def refuse(name):
            raise ValueError(f"not JSON: {name}")

        verdict = json.loads(out, parse_constant=refuse)
        assert verdict["accepted"] is False
        assert verdict["column_norm_sq"] is None and verdict["residual_norm"] is None

    def test_dense_kind_is_one_error_line(self, tmp_path, capsys):
        # a dense file that is neither kind gets product's message
        f = tmp_path / "m.json"
        tc.save_matrix(f, np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex))
        assert assert_input_error(capsys, "isometry", str(f)) == (
            f"error: {f}: dense matrix is neither Toeplitz nor Hankel\n")

    def test_dense_file_same_as_compact(self, tmp_path, capsys):
        # a dense Toeplitz or Hankel file prints the bytes and exit code of
        # its compact form: accepted, the 3 x 2 worked example, the 3 x 3
        # identity, a shift's two Hankel forms and the worked example's row
        # flip; rejected, 2 I and a random Toeplitz matrix
        U = tc.AsymToeplitz.from_dense(unit_isometry_dense())
        S = tc.AsymToeplitz(6, 4, 0.0, np.eye(6)[2] * 1j, np.zeros(4))
        cases = [U, tc.AsymToeplitz.eye(3, 3), tc.flip_cols(S), tc.flip_rows_of(S),
                 tc.flip_rows_of(U), tc.AsymToeplitz(2, 2, 2.0, [0, 0], [0, 0]),
                 tc.random_toeplitz(np.random.default_rng(4), 5, 3)]
        codes = []
        for M in cases:
            results = []
            for obj in (M, M.to_dense()):
                f = tmp_path / "m.json"
                tc.save_matrix(f, obj)
                results.append((main(["isometry", str(f)]), capsys.readouterr()))
            assert results[0] == results[1], M
            assert results[0][1].err == ""
            codes.append(results[0][0])
        assert codes == [0, 0, 0, 0, 0, 1, 1]


class TestHostileFiles:
    @pytest.mark.parametrize("command", ["check", "isometry", "displacement"])
    def test_deep_nesting(self, tmp_path, capsys, command):
        f = tmp_path / "m.json"
        f.write_text("[" * 200_000, encoding="utf-8")
        assert_input_error(capsys, command, str(f))

    @pytest.mark.parametrize("command", ["check", "isometry", "displacement"])
    def test_integer_beyond_float_range(self, tmp_path, capsys, command):
        f = tmp_path / "m.json"
        huge = "-" + "9" * 401
        f.write_text('{"kind": "toeplitz", "rows": 1, "cols": 2, '
                     f'"first_row": [[1, 0], [{huge}, 0]], "first_col": [[1, 0]]}}',
                     encoding="utf-8")
        assert_input_error(capsys, command, str(f))

    @pytest.mark.parametrize("kind", ["[]", "{}", "[[1, 2]]"])
    def test_non_string_kind(self, tmp_path, capsys, kind):
        f = tmp_path / "m.json"
        f.write_text(f'{{"kind": {kind}, "rows": 1, "cols": 1, "data": [[1, 2]]}}',
                     encoding="utf-8")
        assert assert_input_error(capsys, "check", str(f)).endswith(f"got {kind}\n")

    def test_product_operand(self, tmp_path, capsys):
        good, bad = tmp_path / "a.json", tmp_path / "b.json"
        tc.save_matrix(good, tc.AsymToeplitz.eye(2, 2))
        bad.write_text("[" * 200_000, encoding="utf-8")
        assert_input_error(capsys, "product", str(good), str(bad))

    @pytest.mark.parametrize("command", ["check", "isometry", "displacement"])
    def test_integer_beyond_digit_limit_names_file(self, tmp_path, capsys, command):
        # json.loads refuses an integer literal beyond Python's digit limit
        # (4300 by default) with a plain ValueError
        f = tmp_path / "m.json"
        f.write_text('{"kind": "toeplitz", "rows": 1, "cols": 1, '
                     f'"first_row": [[{"7" * 5000}, 0]], "first_col": [[1, 0]]}}',
                     encoding="utf-8")
        assert str(f) in assert_input_error(capsys, command, str(f))

    @pytest.mark.parametrize("command", ["check", "isometry", "displacement"])
    def test_not_utf8_names_file(self, tmp_path, capsys, command):
        f = tmp_path / "m.json"
        f.write_bytes(b'{"kind": "toeplitz", "rows": 1, "cols": 1, '
                      b'"first_row": [[1, 0]], "first_col": [[1, 0]]}\xff')
        assert str(f) in assert_input_error(capsys, command, str(f))


    @pytest.mark.parametrize("command", ["check", "isometry", "displacement", "product"])
    def test_out_of_memory_is_input_error(self, tmp_path, capsys, monkeypatch, command):
        f = tmp_path / "m.json"
        tc.save_matrix(f, tc.AsymToeplitz.eye(2, 2))

        def exhausted(text):
            raise MemoryError

        monkeypatch.setattr("toepcert.io.json.loads", exhausted)
        files = [str(f)] * (2 if command == "product" else 1)
        assert "out of memory" in assert_input_error(capsys, command, *files)


@pytest.fixture(scope="module")
def huge_identity(tmp_path_factory):
    """A 100000 x 100000 identity: 1.7 MB compact, 149 GiB dense."""
    f = tmp_path_factory.mktemp("huge") / "eye.json"
    tc.save_matrix(f, tc.AsymToeplitz.eye(100_000, 100_000))
    return str(f)


class TestDenseSizeGuard:
    def test_isometry_needs_no_dense_matrix(self, huge_identity, capsys):
        code, verdict = run(capsys, "isometry", huge_identity)
        assert code == 0 and verdict["accepted"] is True
        assert verdict["residual_norm"] == 0.0

    def test_displacement_refused(self, huge_identity, capsys):
        assert main(["displacement", huge_identity]) == 2
        assert "100000x100000" in capsys.readouterr().err

    def test_oracle_refused(self, huge_identity, capsys):
        assert main(["product", huge_identity, huge_identity, "--oracle"]) == 2
        assert "100000x100000" in capsys.readouterr().err


class TestDisplacement:
    def test_dumps_displacement_of_dense(self, tmp_path, capsys):
        from toepcert.io import parse_matrix
        f = tmp_path / "m.json"
        tc.save_matrix(f, np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex))
        assert main(["displacement", str(f)]) == 0
        D = parse_matrix(json.loads(capsys.readouterr().out))
        assert np.array_equal(D, np.array([[1, 2], [3, 3]], dtype=complex))

    def test_structured_input_realized(self, tmp_path, capsys, rng):
        from toepcert.io import parse_matrix
        A = tc.random_toeplitz(rng, 3, 4)
        f = tmp_path / "m.json"
        tc.save_matrix(f, A)
        assert main(["displacement", str(f)]) == 0
        D = parse_matrix(json.loads(capsys.readouterr().out))
        assert np.array_equal(D, tc.displacement_dense(A.to_dense()))

    def test_overflowing_displacement_is_one_error_line(self, tmp_path):
        # 1e308 - (-1e308) overflows: the non-finite check reports it alone,
        # with no NumPy warning before it, in a fresh process
        f = tmp_path / "m.json"
        tc.save_matrix(f, np.array([[1e308, 0], [0, -1e308]], dtype=complex))
        proc = subprocess.run([sys.executable, "-m", "toepcert", "displacement", str(f)],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
        # a library caller still gets NumPy's warning
        with pytest.warns(RuntimeWarning, match="overflow"):
            tc.displacement_dense(tc.load_matrix(f))


class TestParserReuse:
    """The parser is built once per process; a call must not see the last one.

    Each sequence runs in this process, one call after the other, and every
    call must print and exit as it does in a fresh process.
    """

    @pytest.fixture
    def paths(self, tmp_path, monkeypatch):
        # argparse wraps help to $COLUMNS, here and in the child process
        monkeypatch.setenv("COLUMNS", "80")
        spec = tc.FamilySpec(tc.Regime.R1, 3, 5, 4, lam=2.0, seed=1)
        paths = {}
        for name, obj in (("a", tc.gen_pair(spec)[0]), ("b", tc.gen_pair(spec)[1]),
                          # (1 + 2^-20) I: an isometry within 1e-3, not within 1e-9
                          ("near", tc.AsymToeplitz(2, 2, 1 + 2**-20, [0, 0], [0, 0]))):
            paths[name] = str(tmp_path / f"{name}.json")
            tc.save_matrix(paths[name], obj)
        return paths

    @pytest.mark.parametrize("sequence", [
        [["product", "{a}", "{b}", "--oracle", "--json"], ["product", "{a}", "{b}"]],
        [["isometry", "{near}", "--tol", "1e-3"], ["isometry", "{near}"]],
        [["isometry", "--tol", "abc", "{near}"], ["isometry", "{near}"]],
        [["--help"], ["product", "{a}", "{b}", "--json"]],
        [["product", "{a}", "{b}", "--bogus"], ["product", "{a}", "{b}"]],
    ], ids=["oracle-json-then-text", "tol-then-default", "usage-error-then-valid",
            "help-then-valid", "leftover-then-valid"])
    def test_consecutive_calls_match_fresh_process(self, paths, capsys, sequence):
        argvs = [[arg.format(**paths) for arg in argv] for argv in sequence]
        parser = cli._build_parser()
        in_process = []
        for argv in argvs:
            code = main(argv)
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        assert cli._build_parser() is parser
        fresh = []
        for argv in argvs:
            proc = subprocess.run([sys.executable, "-m", "toepcert", *argv],
                                  capture_output=True, text=True)
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
        assert in_process == fresh
        # the two calls of each sequence differ, so a leak would show
        assert in_process[0] != in_process[1]


class TestParseParity:
    """``main`` parses a leading subcommand with that subcommand's own parser.

    Every argv must give the exit code, stdout and stderr that the
    top-level parser's one parse gives (``reference_main``): valid calls,
    help, usage errors, leftovers and abbreviations alike.
    """

    CORPUS = [
        ["check", "{t}"],
        ["check", "{t}", "--json", "--tol", "1e-3"],
        ["check", "{t}", "--tol", "1e-3"],
        ["product", "{a}", "{b}"],
        ["product", "{a}", "{b}", "--oracle", "--json"],
        ["product", "--json", "{a}", "{b}"],
        ["isometry", "{t}"],
        ["isometry", "{t}", "--tol=1e-3"],
        ["displacement", "{t}"],
        ["generate", "--regime", "r2", "-n", "6", "-m", "3", "-l", "5",
         "--out-a", "{out_a}", "--out-b", "{out_b}"],
        ["check", "-h"],
        ["product", "-h"],
        ["product", "{a}", "{b}", "--help"],
        ["isometry", "-h"],
        ["displacement", "-h"],
        ["generate", "-h"],
        ["-h"],
        ["--help"],
        [],
        ["frobnicate", "{t}"],
        ["Check", "{t}"],
        ["--tol", "1", "check", "{t}"],
        ["product", "{a}"],
        ["product"],
        ["check"],
        ["check", "{t}", "--tol", "abc"],
        ["check", "{t}", "--tol"],
        ["product", "{a}", "{b}", "--bogus"],
        ["product", "{a}", "{b}", "extra"],
        ["product", "{a}", "{b}", "--", "--bogus"],
        ["product", "{a}", "{b}", "--oracle=1"],
        ["check", "--", "{t}"],
        ["check", "--"],
        ["product", "{a}", "{b}", "--js"],
        ["product", "{a}", "{b}", "--or", "--j"],
        ["generate", "--regime", "r9", "-n", "6", "-m", "3", "-l", "5",
         "--out-a", "{out_a}", "--out-b", "{out_b}"],
        ["generate", "--regime", "r2"],
        ["generate", "--regime", "r2", "-n", "six", "-m", "3", "-l", "5",
         "--out-a", "{out_a}", "--out-b", "{out_b}"],
        ["isometry", "{missing}"],
    ]

    @pytest.fixture
    def paths(self, tmp_path, monkeypatch):
        # argparse wraps help to $COLUMNS
        monkeypatch.setenv("COLUMNS", "80")
        A, B = tc.gen_pair(tc.FamilySpec(tc.Regime.R1, 3, 5, 4, lam=2.0, seed=1))
        paths = {name: str(tmp_path / f"{name}.json")
                 for name in ("a", "b", "t", "out_a", "out_b", "missing")}
        tc.save_matrix(paths["a"], A)
        tc.save_matrix(paths["b"], B)
        tc.save_matrix(paths["t"], tc.AsymToeplitz.eye(4, 3))
        return paths

    @pytest.mark.parametrize("argv", CORPUS, ids=[" ".join(a) or "empty" for a in CORPUS])
    def test_same_as_top_level_parse(self, paths, capsys, argv):
        argv = [arg.format(**paths) for arg in argv]
        results = []
        for run_main in (main, reference_main):
            code = run_main(list(argv))
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        assert results[0] == results[1]

    @pytest.mark.parametrize("argv", [
        ["product", "{a}", "{b}", "--json"], ["check", "--", "{t}"],
        ["generate", "--regime", "r2", "-n", "6", "-m", "3", "-l", "5",
         "--out-a", "{out_a}", "--out-b", "{out_b}"]])
    def test_valid_call_skips_top_level_parser(self, paths, capsys, monkeypatch, argv):
        parser, _ = cli._build_parser()

        def refuse(*args, **kwargs):
            raise AssertionError("top-level parser called")
        monkeypatch.setattr(parser, "parse_args", refuse)
        monkeypatch.setattr(parser, "parse_known_args", refuse)
        assert main([arg.format(**paths) for arg in argv]) == 0


class TestHarness:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    # a valid call of each subcommand; {t} is the 3 x 3 identity
    VALID = {
        "check": ["{t}"], "product": ["{t}", "{t}"], "isometry": ["{t}"],
        "displacement": ["{t}"],
        "generate": ["--regime", "r1", "-n", "3", "-m", "5", "-l", "4",
                     "--out-a", "{out}", "--out-b", "{out}"],
    }

    @pytest.fixture
    def paths(self, tmp_path):
        paths = {"t": str(tmp_path / "t.json"), "out": str(tmp_path / "out.json")}
        tc.save_matrix(paths["t"], tc.AsymToeplitz.eye(3, 3))
        return paths

    @pytest.mark.parametrize("command", VALID)
    def test_every_option_is_read(self, paths, capsys, command):
        # each subcommand's parser, and so its -h, holds only what its
        # command function reads from the parsed arguments
        parser = cli._build_parser()[1][command]
        args = parser.parse_args([arg.format(**paths) for arg in self.VALID[command]])
        read = set()

        class Recording:
            def __getattr__(self, name):
                read.add(name)
                return getattr(args, name)

        assert args.func(Recording()) == 0
        capsys.readouterr()
        assert read == {action.dest for action in parser._actions if action.dest != "help"}

    @pytest.mark.parametrize("command, option", [
        ("check", ["--json"]), ("isometry", ["--json"]), ("displacement", ["--json"]),
        ("displacement", ["--tol", "1"]), ("generate", ["--json"]), ("generate", ["--tol", "1"])],
        ids=lambda value: value if isinstance(value, str) else value[0])
    def test_option_the_command_would_ignore_is_usage_error(self, paths, capsys,
                                                             command, option):
        argv = [command, *(arg.format(**paths) for arg in self.VALID[command]), *option]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not os.path.exists(paths["out"])
        usage, error = captured.err.splitlines()
        assert usage.startswith("usage: toepcert")
        assert error == f"toepcert: error: unrecognized arguments: {' '.join(option)}"

    def test_numpy_error_state_restored(self, tmp_path):
        f = tmp_path / "m.json"
        tc.save_matrix(f, np.eye(3, dtype=complex))
        x = tmp_path / "x.json"
        tc.save_matrix(x, np.array([[1, 2], [3, 4]], dtype=complex))
        before = np.geterr()
        for argv, code in ((["check", str(f)], 0), (["check", str(x)], 1),
                           (["product", str(x), str(f)], 2),
                           (["check", str(tmp_path / "missing.json")], 2)):
            assert main(argv) == code
            assert np.geterr() == before, argv

    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_module_entry_point(self, tmp_path):
        f = tmp_path / "m.json"
        tc.save_matrix(f, np.eye(3, dtype=complex))
        proc = subprocess.run([sys.executable, "-m", "toepcert", "check", str(f)],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["structure"] == "toeplitz"
