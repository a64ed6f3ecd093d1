"""Command-line front end: JSON in, JSON (or plain numbers) out.

Exit codes: 0 success, 1 invalid input, 2 internal invariant violation.
Diagnostics go to stderr only, so stdout is always machine-readable, and
identical inputs produce byte-identical output.  ``entry`` (the ``severi``
command) also exits 1 with one ``error:`` line when stdout is closed or its
reader leaves early (``severi corpus --max-coord 4 | head -1``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence

from . import severi
from .corpus import CorpusSpec, iter_corpus
from .errors import DomainError, InvariantViolation
from .intmat import IntMat, hsnf, snf
from .polygons import LatticePolygon
from .verify import run_verification

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_INVARIANT_VIOLATION = 2

# The input box of snf and hsnf.  Certificate entries grow with the size and
# the entries of the matrix; at the corner of this box (16 x 16, entries in
# [-1000, 1000]) the longest entry of a seeded random matrix's certificates
# had 848 digits over 50 seeds, well under Python's 4300-digit limit on
# printing an int, and the reduction took under 0.05 s.  Larger input is
# refused before any reduction runs.
MATRIX_MAX_ROWS = 16
MATRIX_MAX_COLS = 16
MATRIX_MAX_ENTRY = 1000


def _dump(data, pretty: bool) -> str:
    try:
        if pretty:
            return json.dumps(data, indent=2)
        return json.dumps(data, separators=(",", ":"))
    except ValueError as exc:  # an integer beyond the int-to-str digit limit
        raise DomainError(f"result too large to print: {exc}") from exc


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or nesting
        raise DomainError(f"{path} is not valid JSON: {exc}") from exc


def _load_polygon(path: str) -> LatticePolygon:
    data = _load_json(path)
    if not isinstance(data, dict) or "vertices" not in data:
        raise DomainError(f'{path}: polygon JSON must be {{"vertices": [[x, y], ...]}}')
    vertices = data["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, list) for v in vertices):
        raise DomainError(f"{path}: vertices must be a list of [x, y] pairs")
    return LatticePolygon([tuple(v) for v in vertices])


def _load_matrix(path: str) -> IntMat:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise DomainError(f"{path}: matrix JSON must be an object")
    m = IntMat.from_json_dict(data)
    if (
        m.rows > MATRIX_MAX_ROWS
        or m.cols > MATRIX_MAX_COLS
        or max(map(abs, m.entries)) > MATRIX_MAX_ENTRY
    ):
        raise DomainError(
            f"{path}: a {m.rows} x {m.cols} matrix is outside the accepted box "
            f"(at most {MATRIX_MAX_ROWS} x {MATRIX_MAX_COLS}, "
            f"|entry| <= {MATRIX_MAX_ENTRY})"
        )
    return m


def _cmd_analyze(args) -> int:
    polygon = _load_polygon(args.file)
    doc = severi.analyze(polygon).to_json_dict()  # checked against the oracle
    if args.command == "components":  # the report's descriptors only
        doc = doc["components"]
    print(_dump(doc, args.pretty))
    return EXIT_OK


def _cmd_count(args) -> int:
    polygon = _load_polygon(args.file)
    if args.oracle:  # analyze checks its count against the oracle
        print(severi.analyze(polygon).component_count)
    else:
        print(severi.count_components(polygon))
    return EXIT_OK


def _cmd_normal_form(args) -> int:
    res = args.normal_form(_load_matrix(args.file))
    # the result's matrices in field order: Q, D, P or Q, A, P
    out = {name: getattr(res, name).to_json_dict() for name in res.__slots__}
    print(_dump(out, args.pretty))
    return EXIT_OK


def _cmd_corpus(args) -> int:
    spec = CorpusSpec(args.max_coord, args.dedup, args.limit)
    # compact JSON lines, as _dump writes them, without building the lists
    docs = (
        '{"vertices":[' + ",".join(f"[{x},{y}]" for x, y in poly.vertices) + "]}\n"
        for poly in iter_corpus(spec)
    )
    if not args.out:
        sys.stdout.writelines(docs)
        return EXIT_OK
    try:
        os.makedirs(args.out, exist_ok=True)
        for i, doc in enumerate(docs):
            path = os.path.join(args.out, f"polygon_{i:06d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(doc)
    except OSError as exc:
        raise DomainError(f"cannot write to {args.out}: {exc}") from exc
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = run_verification(
        max_coord=args.max_coord, trials=args.trials, seed=args.seed
    )
    print(report.table())
    return EXIT_OK if report.ok else EXIT_INVARIANT_VIOLATION


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="severi",
        description=(
            "Count and label the irreducible components of genus-one Severi "
            "varieties of polarized toric surfaces, from the defining lattice "
            "polygon."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pretty(p):
        p.add_argument("--pretty", action="store_true", help="indented JSON")

    p = sub.add_parser("analyze", help="full component report for a polygon")
    p.add_argument("file", help="polygon JSON file")
    add_pretty(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("count", help="number of irreducible components")
    p.add_argument("file", help="polygon JSON file")
    p.add_argument(
        "--oracle", action="store_true", help="also run the brute-force count"
    )
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("components", help="component descriptors only")
    p.add_argument("file", help="polygon JSON file")
    add_pretty(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("snf", help="Smith normal form with certificates")
    p.add_argument("file", help="matrix JSON file")
    add_pretty(p)
    p.set_defaults(func=_cmd_normal_form, normal_form=snf)

    p = sub.add_parser("hsnf", help="homogeneous Smith normal form")
    p.add_argument("file", help="matrix JSON file (zero row sums)")
    add_pretty(p)
    p.set_defaults(func=_cmd_normal_form, normal_form=hsnf)

    p = sub.add_parser("corpus", help="enumerate box polygons as JSON lines")
    p.add_argument("--max-coord", type=int, required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--out", default=None, help="write one file per polygon")
    p.add_argument("--dedup", choices=("translation", "none"), default="translation")
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("--max-coord", type=int, default=4)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT_VIOLATION


def entry() -> None:
    # sys.exit(message) prints the message on stderr and exits with code 1
    if sys.stdout is None:  # severi ... >&-
        sys.exit("error: stdout is closed")
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the Python docs' SIGPIPE idiom: devnull on fd 1 keeps the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit("error: stdout was closed before all output was written")
    sys.exit(code)


if __name__ == "__main__":
    entry()
