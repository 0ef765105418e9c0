"""The benchmark's four workloads.

Each workload has a ``build`` step, which makes its inputs from the seed
through toepcert's own generators, constructors and ``save_matrix`` (the
time spent inside those calls is the set-up time), and an ``operations``
step, which asks the independent checker for every expected answer and
returns the fixed sequence of operations one round runs.

Operations look toepcert functions up through their module at call time,
so the tracer sees every call.  All inputs are Gaussian integers at
scale 1 (or dyadic fractions of them), where the checker is exact.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from toepcert import cli, core, families, hankel, isometry, product
from toepcert import io as tio

import checker

__all__ = ["WORKLOADS", "Op", "Workload"]

# certificate scalars whose inverses are dyadic, so generated entries stay exact
LAMS = (2.0, -2.0, 2j, 1 + 1j, 1 - 1j, -1.0, 1j, 0.5, -0.5j)
UNIMODULAR = (1.0, -1.0, 1j, -1j)
NON_UNIMODULAR = (2.0, -2j, 1 + 1j, 0.5)
REGIMES = (product.Regime.R1, product.Regime.R2, product.Regime.R3, product.Regime.R4)


@dataclass(frozen=True)
class Op:
    label: str
    expect_yes: bool
    call: Callable[[], object]
    check: Callable[[object], bool]


@dataclass(frozen=True)
class Workload:
    name: str
    kernel: str        # calibrates the operations
    setup_kernel: str  # calibrates the set-up
    # build(seed, sw, work): sw(fn, *args) makes and times each toepcert call
    build: Callable[[int, Callable, Path], dict]
    operations: Callable[[dict, Path], list]


def _draw(rng, options):
    return options[int(rng.integers(len(options)))]


def _seed(rng) -> int:
    return int(rng.integers(2 ** 31))


def _latin(rng, count: int) -> np.ndarray:
    """``count`` points in the unit cube [0, 1)^3, one per stratum on each axis.

    Latin hypercube sampling: the seed moves every point, but each axis is
    covered evenly, so the total size of a seeded set barely changes.
    """
    return np.column_stack([(rng.permutation(count) + rng.random(count)) / count
                            for _ in range(3)])


def _dims(regime, lo: int, hi: int, u) -> tuple[int, int, int]:
    """(n, m, l) in [lo, hi] that falls in ``regime``, placed by ``u`` in [0, 1)^3."""
    def span(a, b, x):
        return a + int(x * (b - a + 1))
    if regime is product.Regime.R1:
        m = span(lo, hi, u[0])
        return span(lo, m, u[1]), m, span(lo, m, u[2])
    m = span(lo, hi - 1, u[0])
    if regime is product.Regime.R2:
        return span(m + 1, hi, u[1]), m, span(m + 1, hi, u[2])
    if regime is product.Regime.R3:
        return span(lo, m, u[1]), m, span(m + 1, hi, u[2])
    return span(m + 1, hi, u[1]), m, span(lo, m, u[2])


def _pair(sw, rng, regime, dims):
    """A generated pair, its broken copy and the generator's scalar."""
    lam = complex(_draw(rng, LAMS))
    spec = families.FamilySpec(regime, *dims, lam=lam, seed=_seed(rng))
    pair = sw(families.gen_pair, spec)
    broken = sw(families.perturb_to_break, pair)
    return pair, broken, lam


def _certificate_check(expect_yes: bool, lam: complex | None):
    """A product certificate must exist exactly when expected and carry ``lam``.

    ``lam`` is the generator's scalar, or ``None`` for a both-zero pair.
    """
    def check(cert) -> bool:
        if not expect_yes:
            return cert is None
        if cert is None:
            return False
        if lam is None:
            return cert.lam is None
        return cert.lam is not None and abs(cert.lam - lam) <= 1e-9 * abs(lam)
    return check


# ---------------------------------------------------------------------------
# products-small: T.T decisions, 8 <= n, m, l <= 64
# ---------------------------------------------------------------------------

SMALL_PROPORTIONAL = 12   # per regime, per round
SMALL_BROKEN = 16         # per regime, per round
SMALL_DEGENERATE = 4      # per form, per round
# regimes whose sizes each degenerate form accepts
DEGENERATE_REGIMES = {
    "row_band_a": (product.Regime.R1, product.Regime.R3),
    "col_band_b": (product.Regime.R1, product.Regime.R4),
    "lambda_zero": REGIMES,
    "lambda_infinity": REGIMES,
}


def build_products_small(seed: int, sw, work: Path) -> dict:
    rng = np.random.default_rng(seed)
    cases = []
    for regime in REGIMES:
        for u in _latin(rng, SMALL_PROPORTIONAL):
            pair, _, lam = _pair(sw, rng, regime, _dims(regime, 8, 64, u))
            cases.append((pair, lam))
        for u in _latin(rng, SMALL_BROKEN):
            _, broken, _ = _pair(sw, rng, regime, _dims(regime, 8, 64, u))
            cases.append((broken, None))
    for form in families.DEGENERATE_FORMS:
        regimes = DEGENERATE_REGIMES[form]
        for i, u in enumerate(_latin(rng, SMALL_DEGENERATE)):
            dims = _dims(regimes[i % len(regimes)], 8, 64, u)
            cases.append((sw(families.gen_degenerate, form, *dims, seed=_seed(rng)), None))
    order = rng.permutation(len(cases))
    return {"cases": [cases[i] for i in order]}


def products_small_operations(built: dict, work: Path) -> list:
    ops = []
    for idx, ((A, B), lam) in enumerate(built["cases"]):
        yes = checker.product_has_structure(
            checker.from_program(A), checker.from_program(B), "toeplitz", seed=idx)
        ops.append(Op(f"TT {A.n}x{A.m}x{B.m}", yes,
                      lambda A=A, B=B: product.product_is_toeplitz(A, B),
                      _certificate_check(yes, lam)))
    return ops


# ---------------------------------------------------------------------------
# hankel-large: H.H and H.T decisions, 512 <= n, m, l <= 4096
# ---------------------------------------------------------------------------

# two fixed size triples per regime, so every seed does the same amount of work
HANKEL_DIMS = {
    product.Regime.R1: ((2048, 4096, 1024), (512, 1024, 1024)),
    product.Regime.R2: ((4096, 1024, 2048), (1536, 512, 1024)),
    product.Regime.R3: ((1024, 2048, 4096), (512, 512, 1536)),
    product.Regime.R4: ((4096, 2048, 1024), (1024, 512, 512)),
}


def build_hankel_large(seed: int, sw, work: Path) -> dict:
    rng = np.random.default_rng(seed)
    cases = []
    for regime, triples in HANKEL_DIMS.items():
        for dims in triples:
            (A, B), (broken, _), lam = _pair(sw, rng, regime, dims)
            # H1 = A P_m and H2 = P_m B multiply to A B; H = P_n A times B is
            # P_n (A B)
            right = sw(core.flip_rows_of, B)
            for left, yes_lam in ((A, lam), (broken, None)):
                cases.append(("HH", sw(core.flip_cols, left), right, yes_lam))
                cases.append(("HT", sw(core.flip_rows_of, left), B, yes_lam))
    order = rng.permutation(len(cases))
    return {"cases": [cases[i] for i in order]}


def hankel_large_operations(built: dict, work: Path) -> list:
    ops = []
    for idx, (kind, left, right, lam) in enumerate(built["cases"]):
        structure = "toeplitz" if kind == "HH" else "hankel"
        yes = checker.product_has_structure(
            checker.from_program(left), checker.from_program(right), structure, seed=idx)
        if kind == "HH":
            def call(left=left, right=right):
                return hankel.hankel_product_is_toeplitz(left, right)
        else:
            def call(left=left, right=right):
                return hankel.hankel_times_toeplitz_is_hankel(left, right)
        ops.append(Op(f"{kind} {left.n}x{left.m}x{right.m}", yes, call,
                      _certificate_check(yes, lam)))
    return ops


# ---------------------------------------------------------------------------
# isometry-large: is_isometry and hankel_is_isometry, 512 <= m <= 2048
# ---------------------------------------------------------------------------

ISOMETRY_SIZES = ((576, 512), (1152, 1024), (2304, 2048))


def _shift(sw, n: int, m: int, k: int, c: complex):
    """c times the n x m rectangular shift with ones at (j + k, j)."""
    a = np.zeros(n, dtype=complex)
    if k:
        a[k] = c
    return sw(core.AsymToeplitz, n, m, c if k == 0 else 0.0, a, np.zeros(m, dtype=complex))


def build_isometry_large(seed: int, sw, work: Path) -> dict:
    """Per size: four isometries, four non-isometries.

    A shift by k <= n - m keeps every column's one, so ``c`` times it is an
    isometry exactly when |c| = 1.  A shift by k > n - m loses the last
    columns (the rank-one match fails); |c| != 1 keeps the match and fails
    the residual; random matrices fail both.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for n, m in ISOMETRY_SIZES:
        def pick(a, b):
            return int(rng.integers(a, b + 1))
        fits = n - m
        cases += [
            ("T", _shift(sw, n, m, 0, _draw(rng, UNIMODULAR)), True),
            ("T", _shift(sw, n, m, pick(1, fits), _draw(rng, UNIMODULAR)), True),
            ("H", sw(core.flip_cols, _shift(sw, n, m, 0, _draw(rng, UNIMODULAR))), True),
            ("H", sw(core.flip_cols, _shift(sw, n, m, pick(1, fits), _draw(rng, UNIMODULAR))),
             True),
            ("T", sw(families.random_toeplitz, rng, n, m), False),
            ("T", _shift(sw, n, m, pick(fits + 1, fits + m // 4), _draw(rng, UNIMODULAR)),
             False),
            ("H", sw(core.flip_cols, _shift(sw, n, m, pick(fits + 1, fits + m // 4),
                                             _draw(rng, UNIMODULAR))), False),
            ("T", _shift(sw, n, m, pick(0, fits), _draw(rng, NON_UNIMODULAR)), False),
        ]
    order = rng.permutation(len(cases))
    return {"cases": [cases[i] for i in order]}


def isometry_large_operations(built: dict, work: Path) -> list:
    ops = []
    for idx, (kind, M, constructed) in enumerate(built["cases"]):
        yes = checker.is_isometry(checker.from_program(M), constructed, seed=idx)
        if kind == "T":
            def call(M=M):
                return isometry.is_isometry(M)
        else:
            def call(M=M):
                return isometry.hankel_is_isometry(M)
        ops.append(Op(f"iso-{kind} {M.n}x{M.m}", yes, call,
                      lambda cert, yes=yes: cert.accepted == yes))
    return ops


# ---------------------------------------------------------------------------
# cli-files: in-process toepcert.cli.main over files written in set-up
# ---------------------------------------------------------------------------

# fixed sizes, so every seed parses the same amount of text
CLI_DIMS = {
    product.Regime.R1: (32, 48, 40),
    product.Regime.R2: (40, 24, 48),
    product.Regime.R3: (24, 32, 48),
    product.Regime.R4: (48, 32, 16),
}
CLI_LARGE_DIMS = (4096, 512, 256)     # R4; one 4096-row file per product
CLI_DENSE_DIMS = (96, 80)
CLI_GENERATE = (
    # (regime argument, n, m, l, lambda argument, lambda or None when both-zero)
    ("r3", 24, 32, 40, "1,1", 1 + 1j),
    ("lambda-zero", 30, 20, 36, "2,0", None),
)


def build_cli_files(seed: int, sw, work: Path) -> dict:
    rng = np.random.default_rng(seed)
    products = []

    def write(name, obj):
        path = work / f"{name}.json"
        sw(tio.save_matrix, path, obj)
        return str(path)

    pairs = [(regime.name, regime, dims) for regime, dims in CLI_DIMS.items()]
    pairs.append(("big", product.Regime.R4, CLI_LARGE_DIMS))
    for tag, regime, dims in pairs:
        (A, B), (broken, _), lam = _pair(sw, rng, regime, dims)
        a, b, x = write(f"tt-{tag}-a", A), write(f"tt-{tag}-b", B), write(f"tt-{tag}-x", broken)
        products += [("TT", regime, a, b, lam), ("TT", regime, x, b, None)]
        if tag == "big":
            continue
        hh_b = write(f"hh-{tag}-b", sw(core.flip_rows_of, B))
        th_b = write(f"th-{tag}-b", sw(core.flip_cols, B))
        for left, yes_lam, suffix in ((A, lam, "a"), (broken, None, "x")):
            left_path = a if suffix == "a" else x
            products += [
                ("HH", regime, write(f"hh-{tag}-{suffix}", sw(core.flip_cols, left)), hh_b,
                 yes_lam),
                ("HT", regime, write(f"ht-{tag}-{suffix}", sw(core.flip_rows_of, left)), b,
                 yes_lam),
                ("TH", regime, left_path, th_b, yes_lam),
            ]

    n, m = 64, 48
    k = int(rng.integers(1, n - m + 1))
    iso = _shift(sw, n, m, k, _draw(rng, UNIMODULAR))
    isometries = [
        (write("iso-t", iso), True),
        (write("iso-h", sw(core.flip_cols, _shift(sw, n, m, 0, _draw(rng, UNIMODULAR)))), True),
        (write("iso-x", sw(families.random_toeplitz, rng, n, m)), False),
    ]

    rows, cols = CLI_DENSE_DIMS
    T = sw(families.random_toeplitz, rng, rows, cols)
    H = sw(core.flip_cols, sw(families.random_toeplitz, rng, rows, cols))
    fill = rng.integers(-5, 6, size=(2, rows, cols))
    checks = [
        write("check-compact-t", T),
        write("check-compact-h", H),
        write("check-dense-t", sw(T.to_dense)),
        write("check-dense-h", sw(H.to_dense)),
        write("check-dense-x", (fill[0] + 1j * fill[1]).astype(complex)),
    ]
    displacement = write("disp", sw(families.random_toeplitz, rng, 40, 32))
    generate = [(spec, _seed(rng)) for spec in CLI_GENERATE]
    return {"products": products, "isometries": isometries, "checks": checks,
            "displacement": displacement, "generate": generate}


def _run_cli(argv):
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_op(label, expect_yes, argv, check_doc):
    """Exit code 0 exactly when yes; the JSON on stdout must pass ``check_doc``."""
    def check(result) -> bool:
        code, stdout = result
        if code != (0 if expect_yes else 1):
            return False
        return check_doc(json.loads(stdout))
    return Op(label, expect_yes, lambda: _run_cli(argv), check)


def _product_doc_check(kind, yes, regime_name, lam):
    structure = "toeplitz" if kind in ("TT", "HH") else "hankel"

    def check(doc) -> bool:
        if doc["product"] != structure or doc["structured"] != yes:
            return False
        if not yes:
            return doc["lambda"] is None
        if lam is None:
            return doc["case"] == "both_zero" and doc["lambda"] is None
        return (doc["case"] == "proportional" and doc["regime"] == regime_name
                and abs(complex(*doc["lambda"]) - lam) <= 1e-9 * abs(lam))
    return check


def cli_files_operations(built: dict, work: Path) -> list:
    ops = []
    for idx, (kind, regime, a, b, lam) in enumerate(built["products"]):
        structure = "toeplitz" if kind in ("TT", "HH") else "hankel"
        yes = checker.product_has_structure(
            checker.read_file(a), checker.read_file(b), structure, seed=idx)
        ops.append(_cli_op(f"product {kind} {regime.name}", yes,
                           ["product", a, b, "--json"],
                           _product_doc_check(kind, yes, regime.name, lam)))

    for idx, (path, constructed) in enumerate(built["isometries"]):
        yes = checker.is_isometry(checker.read_file(path), constructed, seed=idx)
        ops.append(_cli_op("isometry", yes, ["isometry", path],
                           lambda doc, yes=yes: doc["accepted"] == yes))

    for path in built["checks"]:
        M = checker.read_file(path)
        if isinstance(M, checker.Toep):
            structure = "toeplitz"
        elif isinstance(M, checker.Hank):
            structure = "hankel"
        elif checker.is_toeplitz_dense(M):
            structure = "toeplitz"
        elif checker.is_hankel_dense(M):
            structure = "hankel"
        else:
            structure = "none"
        ops.append(_cli_op(f"check {structure}", structure != "none", ["check", path],
                           lambda doc, s=structure: doc["structure"] == s))

    expected = checker.displacement(checker.dense(checker.read_file(built["displacement"])))

    def displacement_check(result) -> bool:
        code, stdout = result
        doc = json.loads(stdout)
        data = np.array([complex(re, im) for re, im in doc["data"]])
        return (code == 0 and (doc["rows"], doc["cols"]) == expected.shape
                and np.array_equal(data.reshape(expected.shape), expected))
    ops.append(Op("displacement", True, lambda: _run_cli(["displacement", built["displacement"]]),
                  displacement_check))

    for idx, ((regime, n, m, l, lam_arg, lam), seed) in enumerate(built["generate"]):
        a, b = str(work / f"gen-{idx}-a.json"), str(work / f"gen-{idx}-b.json")
        argv = ["generate", "--regime", regime, "-n", str(n), "-m", str(m), "-l", str(l),
                "--lambda", lam_arg, "--seed", str(seed), "--out-a", a, "--out-b", b]

        def generated_check(doc, a=a, b=b, regime=regime, seed=seed, n=n, m=m, l=l,
                            lam_arg=lam_arg):
            re, im = (float(part) for part in lam_arg.split(","))
            if (doc["out_a"], doc["out_b"], doc["regime"], doc["seed"]) != (a, b, regime, seed):
                return False
            if doc["lambda"] != [re, im]:
                return False
            # re-read what generate wrote: two Toeplitz factors of the asked
            # sizes whose product is Toeplitz
            A, B = checker.read_file(a), checker.read_file(b)
            return (isinstance(A, checker.Toep) and isinstance(B, checker.Toep)
                    and A.shape == (n, m) and B.shape == (m, l)
                    and checker.product_has_structure(A, B, "toeplitz"))
        ops.append(_cli_op(f"generate {regime}", True, argv, generated_check))
        regime_name = regime.upper() if regime.startswith("r") else None
        ops.append(_cli_op(f"product generated {regime}", True, ["product", a, b, "--json"],
                           _product_doc_check("TT", True, regime_name, lam)))
    return ops


WORKLOADS = {
    # the product layer's fixed per-call cost; no Hankel flip, dense
    # realization or file I/O runs here
    "products-small": Workload("products-small", "numpy-small", "numpy-small",
                               build_products_small, products_small_operations),
    # the Hankel flip: AsymToeplitz.rot180's per-entry loop is nearly all of it
    "hankel-large": Workload("hankel-large", "boxing", "boxing",
                             build_hankel_large, hankel_large_operations),
    # isometry_residual's dense realization: time and peak memory; its set-up
    # is only small constructors
    "isometry-large": Workload("isometry-large", "dense-realize", "numpy-small",
                               build_isometry_large, isometry_large_operations),
    # file parse and validation in io.load_matrix, plus the CLI's own work
    "cli-files": Workload("cli-files", "json-parse", "json-parse",
                          build_cli_files, cli_files_operations),
}
