"""Command-line front end for JSON matrix files.

Subcommands: ``check`` (structure detection), ``product`` (is the product
Toeplitz/Hankel; ``--oracle`` cross-validates it by one call to the dense
oracle of :mod:`toepcert.core`, which keeps the product finite), ``generate``
(families with guaranteed Toeplitz products), ``isometry`` and
``displacement``.  ``check``, ``product`` and ``isometry`` take ``--tol``
and promote a dense file to its compact form the same way, Toeplitz first;
only ``product`` takes ``--json``.  Exit codes: 0 predicate true, 1
predicate false, 2 input error, 3 structured verdict disagrees with the
dense oracle.  :func:`main` keeps NumPy's floating-point warnings off stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .core import AsymHankel, AsymToeplitz, StructureError, Tolerance, _product_break
from .displacement import displacement_dense
from .families import FamilySpec, gen_degenerate, gen_pair
from .io import load_matrix, matrix_to_text, save_matrix
from .isometry import is_isometry
from .product import Regime, product_is_toeplitz

__all__ = ["main"]

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_ERROR = 2
EXIT_DISAGREE = 3

# Largest matrix, in entries, that a subcommand realizes densely: 256 MiB
# of complex128.  Compact files describe far larger matrices in little
# space, so a dense step beyond this is refused as an input error, and so
# is a generated pair whose dimensions n + m + l exceed it.
MAX_DENSE_ENTRIES = 1 << 24

_GENERATE_FORMS = {
    "form-a": "row_band_a",
    "form-b": "col_band_b",
    "lambda-zero": "lambda_zero",
    "lambda-infinity": "lambda_infinity",
}


def _parse_complex(text: str) -> complex:
    """Parse 're,im' (or a bare real part) into a complex number."""
    try:
        return complex(*map(float, text.split(",")))  # a third part is a TypeError
    except (TypeError, ValueError):
        raise ValueError(f"expected a complex number as 're,im', got {text!r}") from None


def _cpair(z: complex | None):
    return None if z is None else [z.real, z.imag]


def _emit(doc: dict) -> None:
    # strict JSON: a non-finite float raises here instead of printing Infinity
    print(json.dumps(doc, sort_keys=True, allow_nan=False))


def _check_dense_size(what: str, *shapes: tuple[int, int]) -> None:
    """Refuse a dense step on any matrix larger than MAX_DENSE_ENTRIES."""
    for rows, cols in shapes:
        if rows * cols > MAX_DENSE_ENTRIES:
            raise ValueError(
                f"{what} needs a dense {rows}x{cols} matrix, more than "
                f"{MAX_DENSE_ENTRIES} entries")


def _as_structured(obj, tol: Tolerance):
    """A file's matrix as read when compact, else promoted Toeplitz first, or None."""
    if not isinstance(obj, np.ndarray):
        return obj
    for kind in (AsymToeplitz, AsymHankel):
        try:
            return kind.from_dense(obj, tol)
        except StructureError:
            pass
    return None


def _load_structured(path: str, tol: Tolerance):
    """:func:`_as_structured` of the file at ``path``, where None is an input error."""
    structured = _as_structured(load_matrix(path), tol)
    if structured is None:
        raise ValueError(f"{path}: dense matrix is neither Toeplitz nor Hankel")
    return structured


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_check(args) -> int:
    obj = load_matrix(args.file)
    structured = _as_structured(obj, Tolerance(args.tol))
    structure = ("none" if structured is None
                 else "hankel" if isinstance(structured, AsymHankel) else "toeplitz")
    # a promoted dense file is Toeplitz by the displacement's interior, diagonal by diagonal
    via = "displacement" if structure == "toeplitz" and structured is not obj else "direct"
    _emit({"structure": structure, "via": via})
    return EXIT_FALSE if structured is None else EXIT_TRUE


def _cmd_product(args) -> int:
    tol = Tolerance(args.tol)
    # in file order, so file_a's error comes before file_b is read
    left, right = (_load_structured(path, tol) for path in (args.file_a, args.file_b))
    mixed = isinstance(left, AsymHankel) != isinstance(right, AsymHankel)
    product_kind = "hankel" if mixed else "toeplitz"
    cert = product_is_toeplitz(left, right, tol)
    structured = cert is not None
    oracle_agrees = None
    if args.oracle:
        _check_dense_size("--oracle", left.shape, right.shape, (left.n, right.m))
        oracle_agrees = (_product_break(left, right, tol) is None) == structured

    verdict = {
        "product": product_kind,
        "structured": structured,
        "regime": cert.regime.name if cert else None,
        "case": (None if cert is None
                 else "proportional" if cert.outcome.is_proportional
                 else "both_zero"),
        "lambda": _cpair(cert.lam) if cert else None,
        "k": cert.k if cert else None,
        "k_prime": cert.k_prime if cert else None,
        "oracle_agrees": oracle_agrees,
    }
    if args.json:
        _emit(verdict)
    else:
        outcome = "yes" if structured else "no"
        detail = "" if cert is None else f" ({verdict['regime']}, {verdict['case']})"
        print(f"product {product_kind}: {outcome}{detail}")
    if oracle_agrees is False:
        print("structured verdict disagrees with the dense oracle", file=sys.stderr)
        return EXIT_DISAGREE
    return EXIT_TRUE if structured else EXIT_FALSE


def _cmd_generate(args) -> int:
    total = args.n + args.m + args.l
    if total > MAX_DENSE_ENTRIES:
        raise ValueError(
            f"generate: n + m + l = {total} exceeds {MAX_DENSE_ENTRIES}")
    lam = _parse_complex(args.lam)
    a0 = _parse_complex(args.a0) if args.a0 is not None else None
    b0 = _parse_complex(args.b0) if args.b0 is not None else None
    if args.regime in _GENERATE_FORMS:
        A, B = gen_degenerate(_GENERATE_FORMS[args.regime], args.n, args.m, args.l,
                              a0=a0, b0=b0, seed=args.seed)
    else:
        spec = FamilySpec(Regime[args.regime.upper()], args.n, args.m, args.l,
                          lam=lam, a0=a0, b0=b0, seed=args.seed)
        A, B = gen_pair(spec)
    save_matrix(args.out_a, A)
    save_matrix(args.out_b, B)
    _emit({"out_a": args.out_a, "out_b": args.out_b, "regime": args.regime,
           "lambda": _cpair(lam), "seed": args.seed})
    return EXIT_TRUE


def _cmd_isometry(args) -> int:
    tol = Tolerance(args.tol)
    cert = is_isometry(_load_structured(args.file, tol), tol)
    _emit({
        "accepted": cert.accepted,
        "lambda": _cpair(cert.lam),
        "residual_norm": cert.residual_norm,
        # null when the first column's squares overflow
        "column_norm_sq": cert.column_norm_sq if math.isfinite(cert.column_norm_sq) else None,
    })
    return EXIT_TRUE if cert.accepted else EXIT_FALSE


def _cmd_displacement(args) -> int:
    obj = load_matrix(args.file)
    _check_dense_size("displacement", obj.shape)
    dense = obj if isinstance(obj, np.ndarray) else obj.to_dense()
    # an overflowing difference is refused by matrix_to_text's non-finite check
    sys.stdout.write(matrix_to_text(displacement_dense(dense)))
    return EXIT_TRUE


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's own parser by name.

    Built once per process; parsing leaves them unchanged.
    """
    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument("--tol", type=float, default=1e-9, metavar="T",
                           help="comparison tolerance tau: a difference passes "
                                "within tau * (1 + scale) (default 1e-9)")

    parser = argparse.ArgumentParser(
        prog="toepcert",
        description="Structure checks and certificates for rectangular "
                    "Toeplitz/Hankel matrix files.",
        epilog="Exit codes: 0 predicate true, 1 predicate false, 2 input "
               "error, 3 structured/oracle disagreement.  Reported lambda "
               "always satisfies x = lambda * u and v = conj(lambda) * y "
               "for the certificate vectors.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[tolerance],
                       help="detect toeplitz/hankel structure in a matrix file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("product", parents=[tolerance],
                       help="decide whether the product of two matrix files "
                            "is Toeplitz (Hankel for mixed kinds)")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable JSON verdict")
    p.add_argument("--oracle", action="store_true",
                   help="cross-validate against the dense product")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("generate", help="write a factor pair whose product is Toeplitz")
    p.add_argument("--regime", required=True,
                   choices=["r1", "r2", "r3", "r4", *_GENERATE_FORMS],
                   help="size regime for proportional pairs, or a degenerate "
                        "form")
    p.add_argument("-n", type=int, required=True, help="rows of the left factor")
    p.add_argument("-m", type=int, required=True,
                   help="inner dimension (left cols = right rows)")
    p.add_argument("-l", type=int, required=True, help="cols of the right factor")
    p.add_argument("--lambda", dest="lam", default="2,0", metavar="RE,IM",
                   help="certificate scalar for proportional pairs (default 2,0)")
    p.add_argument("--a0", metavar="RE,IM", help="left corner value (default: seeded)")
    p.add_argument("--b0", metavar="RE,IM", help="right corner value (default: seeded)")
    p.add_argument("--seed", type=int, default=0, help="fill seed (default 0)")
    p.add_argument("--out-a", required=True, help="output file for the left factor")
    p.add_argument("--out-b", required=True, help="output file for the right factor")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("isometry", parents=[tolerance],
                       help="certify orthonormal columns of a toeplitz/hankel file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_isometry)

    p = sub.add_parser("displacement",
                       help="print the displacement of a matrix file as a "
                            "dense matrix file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_displacement)
    return parser, sub.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` once when it starts with a subcommand name.

    Argparse's subcommand action parses the rest with that subcommand's
    parser and copies the result back, so calling that parser directly
    gives the same namespace in one parse.  Every other argv, and one that
    leaves an argument over, goes through the top-level parser, so every
    message and exit code is the top-level parser's own.
    """
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    try:
        # an overflow is refused or fails a comparison: NumPy's warning only adds to stderr
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
