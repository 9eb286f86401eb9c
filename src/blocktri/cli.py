"""Command-line front end.

Subcommands: embed-check, recover, verify, diagonalize, gallery. Reports go
to stdout as canonical JSON (or short text), diagnostics to stderr. Exit
codes are a stable contract: 0 success, 2 input error, 3 no embedding,
4 not a Jordan embedding, 5 repeated eigenvalues, 6 not in algebra. Any
library error without a code of its own, a bad document or composition
included, exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys

from .algebra import (
    Embedding,
    block_algebra,
    jordan_iso_class,
    membership,
    parse_composition,
    project,
    embeds,
)
from .canonical import diagonalize_in_algebra
from .documents import (
    canonical_json,
    load_json,
    map_from_document,
    matrix_from_document,
)
from .errors import BlockTriError, NotJordanEmbedding, RepeatedEigenvalues
from .gallery import GALLERY, run_gallery_suite
from .maps import _recover_certified
from .preservers import full_report

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_EMBEDDING = 3
EXIT_NOT_JORDAN = 4
EXIT_REPEATED_EIGENVALUES = 5
EXIT_NOT_IN_ALGEBRA = 6

# Largest --budget, the number of random probes each check of verify and
# gallery draws. It bounds a run: at the cap, verify on a d = 160 map takes
# 7 to 8 s and a gallery suite up to about 15 s (gallery compares
# budget^2 / 2 pairs of images; 2-core x86, CPython 3.11, one BLAS thread).
MAX_BUDGET = 10_000


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _cmd_embed_check(args) -> int:
    a = block_algebra(parse_composition(args.a))
    b = block_algebra(parse_composition(args.b))
    verdict = embeds(a, b)
    iso = jordan_iso_class(a, b)
    if args.json:
        sys.stdout.write(
            canonical_json({"embedding": verdict.value, "jordan_isomorphism": iso.value})
        )
    else:
        print(verdict.value)
        print(iso.value)
    return EXIT_OK if verdict is not Embedding.NONE else EXIT_NO_EMBEDDING


def _cmd_recover(args) -> int:
    m = map_from_document(load_json(args.map_file))
    try:
        form, residual = _recover_certified(m)
    except NotJordanEmbedding as exc:
        return _fail(EXIT_NOT_JORDAN, f"recover: not a Jordan embedding: {exc}")
    sys.stdout.write(canonical_json({"orientation": form.orientation.value, "T": form.t, "residual": residual}))
    return EXIT_OK


def _cmd_verify(args) -> int:
    m = map_from_document(load_json(args.map_file))
    report = full_report(m, budget=args.budget, seed=args.seed, tol=args.tol)
    sys.stdout.write(canonical_json(dataclasses.asdict(report)))
    return EXIT_OK


def _cmd_diagonalize(args) -> int:
    algebra = block_algebra(parse_composition(args.algebra))
    matrix = matrix_from_document(load_json(args.matrix_file))
    if matrix.shape != (algebra.n, algebra.n) or not membership(algebra, matrix, tol=1e-12):
        return _fail(EXIT_NOT_IN_ALGEBRA, "diagonalize: matrix is not in the algebra")
    try:
        result = diagonalize_in_algebra(algebra, project(algebra, matrix), args.constraint)
    except RepeatedEigenvalues as exc:
        return _fail(EXIT_REPEATED_EIGENVALUES, f"diagonalize: {exc}")
    sys.stdout.write(canonical_json({"T": result.similarity, "diagonal": result.diagonal}))
    return EXIT_OK


def _cmd_gallery(args) -> int:
    if args.name not in GALLERY:
        return _fail(EXIT_INPUT, f"gallery: unknown name {args.name!r}")
    report = run_gallery_suite(args.name, budget=args.budget, seed=args.seed)
    sys.stdout.write(canonical_json(report))
    return EXIT_OK


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _budget(text: str) -> int:
    value = _non_negative_int(text)
    if value > MAX_BUDGET:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_BUDGET}, got {text!r}")
    return value


def _tol(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:  # also rejects NaN
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


@functools.cache  # one parser per process, shared by every main call: do not modify it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocktri",
        description="Block upper-triangular algebra toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed-check", help="classify how one composition embeds in another")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_embed_check)

    p = sub.add_parser("recover", help="recover the similarity behind a linear map document")
    p.add_argument("map_file")
    p.set_defaults(fn=_cmd_recover)

    p = sub.add_parser("verify", help="run the preserver-property report on a map document")
    p.add_argument("map_file")
    p.add_argument("--budget", type=_budget, default=100)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--tol", type=_tol, default=1e-8)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("diagonalize", help="diagonalize a matrix within its block algebra")
    p.add_argument("algebra")
    p.add_argument("matrix_file")
    p.add_argument("--constraint", type=int, default=None, help="0-based diagonal index")
    p.set_defaults(fn=_cmd_diagonalize)

    p = sub.add_parser("gallery", help="run one counterexample's certified property suite")
    p.add_argument("name")
    p.add_argument("--budget", type=_budget, default=100)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.set_defaults(fn=_cmd_gallery)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a diagnostic; normalize its exit code
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (BlockTriError, ValueError) as exc:  # any other library or argument error is an input error
        return _fail(EXIT_INPUT, f"{args.command}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
