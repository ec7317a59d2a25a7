"""Command line front end.

Subcommands: count, enumerate, analyze, render, rankpattern.  Results go
to standard output (render also accepts --out), diagnostics to standard
error.  Exit codes: 0 success, 2 usage or parse errors, 3 self-check
mismatch, 4 irrational eigenvalues, 5 output I/O failure, 6 invalid rank
pattern.  Each command imports only the library modules it runs.
"""

import os
import sys
from types import SimpleNamespace

from .partitions import _shown

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_IRRATIONAL = 4
EXIT_IO = 5
EXIT_BAD_PATTERN = 6

MAX_PATTERN_DIMENSION = 10**6  # rankpattern prints up to n block sizes
MAX_WEIGHT = 10**4  # count and render allocate and sum n + 1 counts
WRITE_CHARS = 2**16  # enumerate and render join output into writes this long


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _integer(text: str) -> int:
    # -?[0-9]+ only: int() also takes non-ASCII digits, padding, "+" and "_"
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {_shown(text)}: use ASCII digits 0-9")
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ValueError("integer too long") from None


def cmd_count(args) -> int:
    from .segre import count_segre_gf, count_segre_sum
    if args.n < 0:
        return _fail("n must be >= 0", EXIT_USAGE)
    if args.n > MAX_WEIGHT:
        return _fail(f"n exceeds the limit of {MAX_WEIGHT}", EXIT_USAGE)
    methods = {"gf": (count_segre_gf,), "sum": (count_segre_sum,),
               "both": (count_segre_gf, count_segre_sum)}[args.method]
    counts = [count(args.n) for count in methods]
    sys.stdout.write("".join(f"{c}\n" for c in counts))
    if len(set(counts)) > 1:
        return _fail("counting methods disagree: gf={} sum={}".format(*counts),
                     EXIT_MISMATCH)
    return EXIT_OK


def _write(out, pieces) -> None:
    """Write and flush the first of `pieces` at once, so that a reader sees
    output start, then the rest joined about WRITE_CHARS characters per
    write: with stdout unbuffered, each write is a system call."""
    pieces = iter(pieces)
    out.write(next(pieces, ""))
    out.flush()
    batch, size = [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= WRITE_CHARS:
            out.write("".join(batch))
            batch, size = [], 0
    if batch:
        out.write("".join(batch))


def _lines(texts):
    total = 0
    for total, text in enumerate(texts, 1):
        yield text + "\n"
    yield f"total: {total}\n"


def _json_list(texts):
    # the bytes of json.dumps(list(texts)), one item per piece: Segre text
    # is digits, commas, parentheses and brackets, none of them escaped
    sep = '["'
    for text in texts:
        yield sep + text
        sep = '", "'
    yield '"]\n' if sep != '["' else "[]\n"


def cmd_enumerate(args) -> int:
    from .segre import _texts
    if args.n < 1:
        return _fail("n must be >= 1", EXIT_USAGE)
    _write(sys.stdout, (_json_list if args.format == "json" else _lines)(
        _texts(args.n)))
    return EXIT_OK


def cmd_analyze(args) -> int:
    import json
    from .jordan import IrrationalEigenvalueError, _eigenvalue_text, analyze
    from .linalg import matrix_from_json_dict
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
    except ValueError:
        # int() refuses decimal literals beyond sys.get_int_max_str_digits()
        return _fail(f"{args.matrix_file} holds an integer too long to read",
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
        sys.stdout.write(json.dumps(report.to_json_dict(), indent=2) + "\n")
    else:
        sys.stdout.write(f"segre: {report.segre}\n" + "".join(
            f"eigenvalue {_eigenvalue_text(entry.eigenvalue)}:\n"
            f"  rank pattern: {entry.rank_pattern}\n"
            f"  blocks: {entry.blocks}\n" for entry in report.per_eigenvalue))
    return EXIT_OK


def cmd_render(args) -> int:
    from .render import _ascii_lines, _grid, _svg_pieces
    from .segre import _groups, _groups_text, count_segre_gf
    if args.n < 1:
        return _fail("n must be >= 1", EXIT_USAGE)
    if args.n > MAX_WEIGHT:
        return _fail(f"n exceeds the limit of {MAX_WEIGHT}", EXIT_USAGE)
    if args.columns < 1:
        return _fail("--columns must be >= 1", EXIT_USAGE)
    items = _groups(args.n)
    if args.format == "svg":
        # the header needs the grid count up front; _svg_pieces checks it
        # against the number of characteristics enumerated
        pieces = _svg_pieces(map(_grid, items),
                             count_segre_gf(args.n), args.n, args.columns)
    else:
        pieces = (line + "\n" for i, groups in enumerate(items)
                  for lines in ([("\n" if i else "") + _groups_text(groups)],
                                _ascii_lines(_grid(groups)))
                  for line in lines)
    if not args.out:
        # a closed pipe raises BrokenPipeError here, which run() handles
        _write(sys.stdout, pieces)
        return EXIT_OK
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write(fh, pieces)
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc}", EXIT_IO)
    return EXIT_OK


def cmd_rankpattern(args) -> int:
    from .rank_analysis import (NonMonotoneGrowthError, RankPattern,
                                blocks_from_rank_pattern, nullity_growth)
    try:
        pattern = RankPattern.parse(args.pattern)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    if pattern.dimension > MAX_PATTERN_DIMENSION:
        return _fail(f"dimension {_shown(pattern.dimension)} exceeds the "
                     f"limit of {MAX_PATTERN_DIMENSION}", EXIT_USAGE)
    try:
        growth = nullity_growth(pattern)
    except NonMonotoneGrowthError as exc:
        return _fail(str(exc), EXIT_BAD_PATTERN)
    blocks = blocks_from_rank_pattern(pattern)
    sys.stdout.write("growth: [" + ",".join(map(str, growth))
                     + f"]\nblocks: {blocks}\n")
    return EXIT_OK


# command: (handler, (positional, converter), {option: (choices or
# converter, default)}, the usage that --help prints after "segre command")
COMMANDS = {
    "count": (cmd_count, ("n", _integer),
              {"--method": (("gf", "sum", "both"), "gf")},
              "N [--method gf|sum|both]\n    number of weight-n structures"),
    "enumerate": (cmd_enumerate, ("n", _integer),
                  {"--format": (("text", "json"), "text")},
                  "N [--format text|json]\n    every structure of weight n"),
    "analyze": (cmd_analyze, ("matrix_file", str),
                {"--format": (("text", "json"), "text")},
                "MATRIX_FILE [--format text|json]\n    Segre characteristic "
                'of {"rows": n, "cols": n, "entries": [[int or "p/q"]]}'),
    "render": (cmd_render, ("n", _integer),
               {"--out": (str, None), "--columns": (_integer, 4),
                "--format": (("svg", "ascii"), "svg")},
               "N [--out PATH] [--columns C] [--format svg|ascii]\n"
               "    every weight-n structure drawn as SVG or ASCII"),
    "rankpattern": (cmd_rankpattern, ("pattern", str), {},
                    'PATTERN\n    Jordan blocks from ranks, "n=4: 4,2,1,0"'),
}


def cmd_help(command) -> int:
    usage = "".join(f"segre {name} {COMMANDS[name][3]}\n"
                    for name in ([command] if command else COMMANDS))
    sys.stdout.write("usage: " + usage if command else (
        "usage: segre COMMAND ARGUMENT [--OPTION VALUE ...]\n\nEnumerate, "
        "count, analyze, and draw Jordan structures (Segre\ncharacteristics) "
        "with exact arithmetic.\n\n" + usage))
    return EXIT_OK


def _is_option(token: str, options) -> bool:
    # as under argparse, "-", a negative integer, and a token with a space
    # that names no option are values
    return len(token) > 1 and token[0] == "-" and not (
        token[1:].isascii() and token[1:].isdigit()) and (
        " " not in token or token.partition("=")[0] in options)


def _convert(convert, text: str, name: str):
    try:
        return convert(text)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def parse_args(argv):
    """The handler that argv names and the arguments to call it with.  A
    usage error raises ValueError with its one-line message."""
    command, *tokens = argv or [""]
    if "-h" in argv or "--help" in argv:
        return cmd_help, command if command in COMMANDS else None
    if command not in COMMANDS:
        what = f"unknown command {_shown(command)}" if argv else "no command"
        raise ValueError(f"{what}; choose from {', '.join(COMMANDS)}")
    handler, (positional, convert), options, _ = COMMANDS[command]
    args = {"command": command, **{o[2:]: d for o, (_, d) in options.items()}}
    tokens = iter(tokens)
    for token in tokens:
        if not _is_option(token, options):
            if positional in args:
                raise ValueError(f"unexpected argument {_shown(token)}")
            args[positional] = _convert(convert, token, positional.upper())
            continue
        option, equals, value = token.partition("=")
        if option not in options:
            raise ValueError(f"unknown option {_shown(option)} for {command}")
        # the end of argv reads as "--", which is no value
        if not equals and _is_option(value := next(tokens, "--"), options):
            raise ValueError(f"{option} needs a value")
        kind = options[option][0]
        if isinstance(kind, tuple) and value not in kind:
            raise ValueError(
                f"{option} takes {'|'.join(kind)}, not {_shown(value)}")
        args[option[2:]] = (value if isinstance(kind, tuple)
                            else _convert(kind, value, option))
    if positional not in args:
        raise ValueError(f"{command} needs its argument {positional.upper()}")
    return handler, SimpleNamespace(**args)


def main(argv=None) -> int:
    try:
        handler, args = parse_args(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    return handler(args)


def run() -> None:
    """Console script entry point.

    A reader that closes the pipe early (`segre enumerate 12 | head -1`)
    ends the run quietly with exit code 0.  Any other failure to write
    standard output (a full disk, /dev/full) ends it with one error line
    and exit code 5.
    """
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        # the interpreter flushes stdout again at exit; point it at devnull
        # so that flush cannot fail too (recipe from the `signal` docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_OK if isinstance(exc, BrokenPipeError) else _fail(
            f"cannot write standard output: {exc.strerror}", EXIT_IO)
    sys.exit(code)


if __name__ == "__main__":
    run()
