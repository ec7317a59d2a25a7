"""Command line front end.

Subcommands: count, enumerate, analyze, render, rankpattern.  Results go
to standard output (render also accepts --out), diagnostics to standard
error.  Exit codes: 0 success, 2 usage or parse errors, 3 self-check
mismatch, 4 irrational eigenvalues, 5 output I/O failure, 6 invalid rank
pattern.
"""

import argparse
import itertools
import json
import os
import sys

from .jordan import IrrationalEigenvalueError, JordanSpec, analyze
from .linalg import matrix_from_json_dict
from .rank_analysis import (NonMonotoneGrowthError, RankPattern,
                            blocks_from_rank_pattern, nullity_growth)
from .render import _ascii_lines, _svg_pieces, grid_of
from .segre import count_segre_gf, count_segre_sum, format_segre, iter_segre

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_IRRATIONAL = 4
EXIT_IO = 5
EXIT_BAD_PATTERN = 6

MAX_PATTERN_DIMENSION = 10**6  # rankpattern prints up to n block sizes
MAX_WEIGHT = 10**4  # count and render allocate and sum n + 1 counts


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _integer(text: str) -> int:
    # -?[0-9]+ only: int() also takes non-ASCII digits, padding, "+" and "_"
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(
            f"invalid integer {text!r}: use ASCII digits 0-9")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segre",
        description="Enumerate, count, analyze, and draw Jordan structures "
                    "(Segre characteristics) with exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser(
        "count", help="number of equivalence classes of n x n structures")
    p_count.add_argument("n", type=_integer)
    p_count.add_argument("--method", choices=("gf", "sum", "both"),
                         default="gf",
                         help="generating function, partition sum, or both "
                              "(both cross-checks and fails on mismatch)")

    p_enum = sub.add_parser(
        "enumerate", help="list every Segre characteristic of weight n")
    p_enum.add_argument("n", type=_integer)
    p_enum.add_argument("--format", choices=("text", "json"), default="text")

    p_analyze = sub.add_parser(
        "analyze", help="Segre characteristic of a rational matrix")
    p_analyze.add_argument("matrix_file",
                           help="JSON file: {\"rows\": n, \"cols\": n, "
                                "\"entries\": [[int or \"p/q\", ...], ...]}")
    p_analyze.add_argument("--format", choices=("text", "json"), default="text")

    p_render = sub.add_parser(
        "render", help="draw every weight-n structure as SVG or ASCII")
    p_render.add_argument("n", type=_integer)
    p_render.add_argument("--out", help="output path (default: stdout)")
    p_render.add_argument("--columns", type=_integer, default=4)
    p_render.add_argument("--format", choices=("svg", "ascii"), default="svg")

    p_rank = sub.add_parser(
        "rankpattern", help="Jordan blocks from a measured rank pattern")
    p_rank.add_argument("pattern",
                        help="textual form, e.g. \"n=10: 10,7,5,3,2,1,0\"")

    return parser


def cmd_count(args) -> int:
    if args.n < 0:
        return _fail("n must be >= 0", EXIT_USAGE)
    if args.n > MAX_WEIGHT:
        return _fail(f"n exceeds the limit of {MAX_WEIGHT}", EXIT_USAGE)
    methods = {"gf": (count_segre_gf,), "sum": (count_segre_sum,),
               "both": (count_segre_gf, count_segre_sum)}[args.method]
    counts = [count(args.n) for count in methods]
    print(*counts, sep="\n")
    if len(set(counts)) > 1:
        return _fail("counting methods disagree: gf={} sum={}".format(*counts),
                     EXIT_MISMATCH)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if args.n < 1:
        return _fail("n must be >= 1", EXIT_USAGE)
    items = iter_segre(args.n)
    if args.format == "json":
        # the bytes of json.dumps(list), 1024 items per write: a write per
        # item is a system call per item when stdout is unbuffered
        texts = map(format_segre, items)
        sep = "["
        while batch := list(itertools.islice(texts, 1024)):
            sys.stdout.write(sep + json.dumps(batch)[1:-1])
            sep = ", "
        sys.stdout.write("]\n")
    else:
        total = 0
        for total, s in enumerate(items, 1):
            sys.stdout.write(format_segre(s) + "\n")
        sys.stdout.write(f"total: {total}\n")
    return EXIT_OK


def cmd_analyze(args) -> int:
    try:
        with open(args.matrix_file, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        return _fail(f"cannot read {args.matrix_file}: {exc}", EXIT_USAGE)
    except UnicodeDecodeError as exc:
        return _fail(f"{args.matrix_file} is not UTF-8 text: {exc}", EXIT_USAGE)
    except json.JSONDecodeError as exc:
        return _fail(f"{args.matrix_file} is not valid JSON: {exc}", EXIT_USAGE)
    except RecursionError:  # json.load recurses once per nested [ or {
        return _fail(f"{args.matrix_file} is nested too deeply", EXIT_USAGE)
    except ValueError as exc:
        # int() refuses decimal literals beyond sys.get_int_max_str_digits()
        return _fail(f"{args.matrix_file} holds a number too long to read: {exc}",
                     EXIT_USAGE)
    try:
        matrix = matrix_from_json_dict(data)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    if matrix.rows != matrix.cols:
        return _fail(f"matrix must be square, got {matrix.rows}x{matrix.cols}",
                     EXIT_USAGE)
    try:
        report = analyze(matrix)
    except IrrationalEigenvalueError as exc:
        return _fail(str(exc), EXIT_IRRATIONAL)
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        print(f"segre: {report.segre}")
        for entry in report.per_eigenvalue:
            print(f"eigenvalue {entry.eigenvalue}:")
            print(f"  rank pattern: {entry.rank_pattern}")
            print(f"  blocks: {entry.blocks}")
    return EXIT_OK


def cmd_render(args) -> int:
    if args.n < 1:
        return _fail("n must be >= 1", EXIT_USAGE)
    if args.n > MAX_WEIGHT:
        return _fail(f"n exceeds the limit of {MAX_WEIGHT}", EXIT_USAGE)
    if args.columns < 1:
        return _fail("--columns must be >= 1", EXIT_USAGE)
    items = iter_segre(args.n)
    if args.format == "svg":
        # the header needs the grid count up front; _svg_pieces checks it
        # against the number of characteristics enumerated
        pieces = _svg_pieces((grid_of(JordanSpec.positional(s)) for s in items),
                             count_segre_gf(args.n), args.n, args.columns)
    else:
        pieces = (line + "\n" for i, s in enumerate(items)
                  for lines in ([("\n" if i else "") + format_segre(s)],
                                _ascii_lines(grid_of(JordanSpec.positional(s))))
                  for line in lines)
    if not args.out:
        # a closed pipe raises BrokenPipeError here, which run() handles
        sys.stdout.writelines(pieces)
        return EXIT_OK
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc}", EXIT_IO)
    return EXIT_OK


def cmd_rankpattern(args) -> int:
    try:
        pattern = RankPattern.parse(args.pattern)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    if pattern.dimension > MAX_PATTERN_DIMENSION:
        return _fail(f"dimension {pattern.dimension} exceeds the limit of "
                     f"{MAX_PATTERN_DIMENSION}", EXIT_USAGE)
    try:
        growth = nullity_growth(pattern)
    except NonMonotoneGrowthError as exc:
        return _fail(str(exc), EXIT_BAD_PATTERN)
    blocks = blocks_from_rank_pattern(pattern)
    print("growth: [" + ",".join(map(str, growth)) + "]")
    print(f"blocks: {blocks}")
    return EXIT_OK


_COMMANDS = {
    "count": cmd_count,
    "enumerate": cmd_enumerate,
    "analyze": cmd_analyze,
    "render": cmd_render,
    "rankpattern": cmd_rankpattern,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return _COMMANDS[args.command](args)


def run() -> None:
    """Console script entry point.

    A reader that closes the pipe early (`segre enumerate 12 | head -1`)
    ends the run quietly with exit code 0.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; point it at devnull
        # so that flush cannot fail too (recipe from the `signal` docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_OK
    sys.exit(code)


if __name__ == "__main__":
    run()
