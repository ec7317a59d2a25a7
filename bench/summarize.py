"""Summarize sets of benchmark runs: median, quartiles and spread per metric.

    python3 bench/summarize.py RUN_OUTPUT... [--against RUN_OUTPUT...] [--json FILE]

Each RUN_OUTPUT is a file holding the stdout of one `bench/run.py` run.
Runs are grouped by workload (the name on their first line).  For every
end-to-end metric this prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the distance
between the quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json.  With --against, it also prints each median over the
median of the other set of runs, which is how two sets of the same code,
or a parent and a change, are compared.  --json writes the summary.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths) -> dict:
    """workload -> metric -> list of values, in the order of paths."""
    out = {}
    for path in paths:
        lines = Path(path).read_text().splitlines()
        name = lines[0].removeprefix("# ").split(":")[0]
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"warning: {path} reports failed jobs", file=sys.stderr)
        for key, metric in result["metrics"].items():
            out.setdefault(name, {}).setdefault(key, []).append(metric["value"])
    return out


def summary(values) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "runs": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("runs", nargs="+")
    parser.add_argument("--against", nargs="+", default=[])
    parser.add_argument("--json")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    sets = load(args.runs)
    other = load(args.against)
    report = {}
    for workload, metrics in sets.items():
        print(workload)
        for key, values in metrics.items():
            s = report.setdefault(workload, {})[key] = summary(values)
            line = (f"  {key:14s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                    f"q3 {s['q3']:.6g}  spread {s['spread']:.3f}")
            if key in bounds:
                line += f" (bound {bounds[key]})"
            base = other.get(workload, {}).get(key)
            if base:
                s["median_over_against"] = s["median"] / statistics.median(base)
                line += f"  median / against {s['median_over_against']:.3f}"
            print(line)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
