"""Traced stand-in for `python -m segrekit`.

Usage: python bench/cli_child.py SPANS_OUT JOB_ID ARGS...

Imports the package, wraps its public functions, runs cli.main(ARGS) and
writes the spans and counters to SPANS_OUT before exiting with main's code.
"""

import sys

from tracing import Tracer

from segrekit import cli


def run(argv: list[str]) -> int:
    out, job, args = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer()
    tracer.job = job
    tracer.install()
    try:
        code = cli.main(args)
        sys.stdout.flush()
    finally:
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
