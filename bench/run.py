"""segrekit benchmark: seeded, closed-loop workloads with exact output checks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):
  analyze-kernels  in-process analyze() on conjugated n = 12..24 matrices
  analyze-roots    in-process analyze() on n = 4..8 matrices whose
                   characteristic polynomial has a 38..46-bit trailing
                   coefficient
  cli              one `python -m segrekit` process per job, PYTHONPATH=src

Each workload is a closed loop with one client: the next job starts when
the previous one ends and the workload has been set up again (timed, for
setup_s), and the cli workload runs at most one child process at a time.
A run repeats the seeded job list in passes until --seconds is up and at
least one pass is complete, and a job's time is the median of its passes.
The 2-CPU hosts this was built on change speed by up to 2x for seconds
to minutes at a time, so a fixed piece of calibration work
(calibration.py) runs before the first set-up and after every job, and
the gated times are rescaled to the reference host speed: a job's time
is multiplied by calibration.REFERENCE_S over the mean of the
calibrations just before and after it, a set-up's time by REFERENCE_S
over the calibration just before it.  The unscaled figures are printed
as comment lines.
Every output is checked exactly against references that never come from
the code under test; a wrong or failed job run counts in `failed`.

--trace 0 measures the end-to-end metrics.  --trace 1 runs each job twice
in turn, with every public segrekit function wrapped (tracing.py) and
without, to get the tracing overhead, and reports per-layer metrics.
Spans and counters of a traced run, and the unscaled job, set-up and
calibration times of an untraced run, are written to .bench_out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it name each metric with
its unit and what it should move.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibration
import inputs
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
OUT = ROOT / ".bench_out"
EXPECTED = BENCH / "expected.json"

TAIL_BEYOND = 10
JOB_TIMEOUT_S = 60
# job-list lengths: one pass over a list takes 8..25 s on the seed commit
KERNEL_JOBS = 24
ROOT_JOBS = 18

clock = time.perf_counter

# name -> (unit, what it should move); end-to-end metrics first
END_TO_END = {
    "setup_s": ("s", "median of the set-ups in a run (one up front, one "
                "after each job), at reference host speed: import segrekit "
                "plus input generation (analyze workloads); input "
                "generation (cli)"),
    "job_p50_ms": ("ms", "median over the job list of each job's median "
                   "wall time at reference host speed"),
    "jobs_per_s": ("1/s", "jobs per second of their median time at "
                   "reference host speed: closed-loop throughput"),
    "peak_rss_mb": ("MB", "peak RSS of the workload process; cli: of the "
                    "largest child"),
    "first_line_ms": ("ms", "cli: geometric mean over n = 10..15 of the time "
                      "to the first stdout line of `enumerate n`; analyze "
                      "workloads: median time until the report's first line "
                      "can be formatted; both at reference host speed"),
}
PER_LAYER = {
    "linalg.mat_mul.calls": ("calls/job", "job_p50_ms, jobs_per_s on analyze-kernels"),
    "linalg.mat_mul.self_s": ("s/job", "job_p50_ms, jobs_per_s on analyze-kernels"),
    "linalg.mat_mul.mults": ("mults/job", "computed from shapes as sum n*k*m; "
                             "job_p50_ms, jobs_per_s on analyze-kernels"),
    "linalg.char_poly.self_s": ("s/job", "excluding mat_mul; analyze-kernels"),
    "linalg.rank.calls": ("calls/job", "analyze-kernels"),
    "linalg.rank.self_s": ("s/job", "analyze-kernels"),
    "linalg.max_int_bits": ("bits", "largest numerator or denominator in mat_mul "
                            "outputs and char_poly coefficients; explains "
                            "kernel cost on analyze-kernels"),
    "linalg.rational_roots.self_s": ("s/job", "job_p50_ms, job_tail_ms, jobs_per_s "
                                     "on analyze-roots; near zero on "
                                     "analyze-kernels"),
    "jordan.analyze.self_s": ("s/job", "both analyze workloads"),
    "jordan.rank_pattern_of.calls": ("calls/job", "both analyze workloads"),
    "jordan.rank_pattern_of.self_s": ("s/job", "excluding rank and mat_mul; "
                                      "both analyze workloads"),
    "rank_analysis.blocks_from_rank_pattern.self_s": (
        "s/job", "near zero everywhere: the expected-no-change control"),
    "segre.count_segre_sum.self_s": ("s/job", "job_tail_ms on cli"),
    "segre.count_segre_gf.self_s": ("s/job", "job_tail_ms on cli"),
    "partitions.partition_count.self_s": ("s/job", "job_tail_ms on cli"),
    "segre.enumerate_segre.self_s": ("s/job", "first_line_ms, job_p50_ms, "
                                     "peak_rss_mb on cli"),
    "segre.enumerate_segre.items": ("items/job", "first_line_ms, job_p50_ms, "
                                    "peak_rss_mb on cli"),
    "segre.multipartitions.items": ("items/job", "first_line_ms, job_p50_ms, "
                                    "peak_rss_mb on cli"),
    "segre.enumerate_segre.useful_ratio": ("ratio", "enumerate_segre items over "
                                           "multipartitions generated; cli"),
    "render.grid_of.self_s": ("s/job", "job_p50_ms on cli"),
    "render.render_svg.self_s": ("s/job", "job_p50_ms on cli"),
    "render.output_bytes": ("bytes/job", "job_p50_ms on cli"),
    "cli.interpreter_ms": ("ms", "bare-interpreter floor; job_p50_ms on cli"),
    "cli.import_ms": ("ms", "import segrekit minus the floor; job_p50_ms on "
                      "cli, setup_s on the analyze workloads"),
    "cli.main.self_s": ("s/job", "argparse, I/O and formatting, excluding "
                        "library calls; job_p50_ms on cli"),
    "trace.overhead_ratio": ("ratio", "untraced jobs_per_s over traced "
                             "jobs_per_s on the same jobs"),
}


class JobResult:
    """One execution of job `job` (an index into the workload's job list)."""

    __slots__ = ("job", "ok", "elapsed", "first_line", "label")

    def __init__(self, job, ok, elapsed, first_line, label):
        self.job = job
        self.ok = ok
        self.elapsed = elapsed
        self.first_line = first_line
        self.label = label


def _forget_segrekit():
    for name in [m for m in sys.modules if m == "segrekit" or m.startswith("segrekit.")]:
        del sys.modules[name]


class AnalyzeWorkload:
    """In-process analyze() on a pool of seeded matrices, in pool order."""

    def __init__(self, generate, jobs_per_pass):
        self.generate = generate
        self.jobs_per_pass = jobs_per_pass

    def reset(self):
        self.pkg = self.pool = None
        _forget_segrekit()

    def setup(self, seed):
        pkg = importlib.import_module("segrekit")
        pool = [(pkg.ExactMatrix.from_rows(x.rows), x)
                for x in self.generate(seed, self.jobs_per_pass)]
        self.pkg, self.pool = pkg, pool

    def describe(self):
        bits = [x.trailing_bits for _, x in self.pool]
        sizes = sorted({x.spec.n for _, x in self.pool})
        irrational = sum(x.spec.irrational for _, x in self.pool)
        return (f"{len(self.pool)} matrices, n in {sizes}, {irrational} "
                f"irrational; trailing coefficient bits per job: {bits}")

    def run_job(self, i, tracer=None):
        j = i % len(self.pool)
        matrix, x = self.pool[j]
        pkg = self.pkg
        if tracer is not None:
            tracer.job = i
            tracer.install()
        report = error = first = None
        t0 = clock()
        try:
            report = pkg.analyze(matrix)
            t1 = clock()
            first = f"segre: {report.segre}"
            t2 = clock()
        except pkg.IrrationalEigenvalueError as exc:
            t1 = t2 = clock()
            error = exc
        except Exception as exc:  # a crash is a failed job, not a benchmark error
            t1 = t2 = clock()
            error = exc
        finally:
            if tracer is not None:
                tracer.uninstall()
        ok = self.check(x, report, error, first)
        return JobResult(j, ok, t1 - t0, t2 - t0, f"n={x.spec.n}")

    def check(self, x, report, error, first):
        if x.spec.irrational:
            return isinstance(error, self.pkg.IrrationalEigenvalueError)
        if report is None:
            return False
        segre, per = x.spec.expected()
        got = [(e.eigenvalue, e.rank_pattern.ranks, e.blocks.parts)
               for e in report.per_eigenvalue]
        return (tuple(g.parts for g in report.segre.groups) == segre
                and got == per and first == f"segre: {inputs.format_segre(segre)}")

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def first_line_s(self, per_job):
        """Median time until the report's first line exists."""
        return statistics.median(first for _, first, _ in per_job.values())

    def finish_trace(self, tracer):
        return tracer.spans, tracer.counters

    def cleanup(self):
        pass


class CliWorkload:
    """One `python -m segrekit` child per job, stdout drained to EOF."""

    jobs_per_pass = len(inputs.CLI_JOBS)

    def __init__(self):
        self.tmp = TMP / str(os.getpid())
        # references for the output checks: not part of the timed set-up
        self.counts = inputs.segre_counts(
            max(inputs.COUNT_RANGE[1], inputs.COUNT_BOTH_RANGE[1]))
        self.digests = json.loads(EXPECTED.read_text())["sha256"]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.traced_spans = []

    def reset(self):
        self.jobs = None

    def setup(self, seed):
        jobs, matrices = inputs.cli_jobs(seed)
        # the same seed gives the same files, so only the first set-up of a
        # run writes them and set-up times input generation alone
        if not self.tmp.exists():
            self.tmp.mkdir(parents=True)
            for name, (_, rows) in matrices.items():
                (self.tmp / name).write_text(json.dumps(inputs.matrix_json(rows)))
        self.jobs = jobs

    def describe(self):
        kinds = {}
        for job in self.jobs:
            kinds[job.kind] = kinds.get(job.kind, 0) + 1
        return (f"{len(self.jobs)} jobs: "
                + ", ".join(f"{k} x{v}" for k, v in kinds.items())
                + f"; count N in {list(inputs.COUNT_RANGE)}, count --method both"
                f" N in {list(inputs.COUNT_BOTH_RANGE)}, enumerate n in 10..15,"
                " render n in 6..8")

    def argv(self, job):
        return [str(self.tmp / a) if a.endswith(".json") else a for a in job.argv]

    def run_job(self, i, tracer=None):
        j = i % len(self.jobs)
        job = self.jobs[j]
        args = self.argv(job)
        spans_path = None
        if tracer is None:
            cmd = [sys.executable, "-m", "segrekit", *args]
        else:
            spans_path = self.tmp / f"spans-{i}.json"
            cmd = [sys.executable, str(BENCH / "cli_child.py"), str(spans_path),
                   str(i), *args]
        t0 = clock()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                cwd=ROOT, env=self.env)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            t_first = clock()
            stdout = first + proc.stdout.read()
            stderr = proc.stderr.read()
            code = proc.wait()
            t1 = clock()
        finally:
            watchdog.cancel()
            proc.stdout.close()
            proc.stderr.close()
        if spans_path is not None and spans_path.exists():
            data = json.loads(spans_path.read_text())
            spans_path.unlink()
            self.traced_spans.append(data["spans"])
            tracer.add_counters(data["counters"])
        ok = code == 0 and not stderr and self.check(job, stdout)
        label = " ".join(job.argv[:2]) if job.kind == "enumerate" else job.kind
        return JobResult(j, ok, t1 - t0, t_first - t0, label)

    def check(self, job, stdout):
        kind, expect = job.kind, job.expect
        if kind == "count":
            return stdout == f"{self.counts[expect]}\n".encode()
        if kind == "count-both":
            return stdout == f"{self.counts[expect]}\n".encode() * 2
        if kind in ("enumerate", "render"):
            return hashlib.sha256(stdout).hexdigest() == self.digests[expect]
        if kind == "analyze":
            return stdout == inputs.expected_analyze_text(expect).encode()
        return stdout == inputs.expected_rankpattern_text(expect).encode()

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def first_line_s(self, per_job):
        """Geometric mean over `enumerate n` of their first-line times."""
        firsts = [first for _, first, label in per_job.values()
                  if label.startswith("enumerate")]
        return math.exp(statistics.fmean(math.log(f) for f in firsts))

    def finish_trace(self, tracer):
        return tracing.merge(self.traced_spans), tracer.counters

    def cleanup(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass


WORKLOADS = {
    "analyze-kernels": lambda: AnalyzeWorkload(inputs.kernel_inputs, KERNEL_JOBS),
    "analyze-roots": lambda: AnalyzeWorkload(inputs.root_inputs, ROOT_JOBS),
    "cli": CliWorkload,
}


def run_loop(workload, seconds, after_job):
    """Closed loop: jobs back to back until the deadline and at least one
    whole pass over the job list, calling after_job() after every job."""
    results = []
    start = clock()
    deadline = start + seconds
    while True:
        results.append(workload.run_job(len(results)))
        after_job()
        if clock() >= deadline and len(results) >= workload.jobs_per_pass:
            break
    return results, clock() - start


def tail(values):
    """(value, percentile, count): the highest percentile with at least
    TAIL_BEYOND samples above it, or the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def median_of_passes(results, scales):
    """job index -> (median elapsed, median first-line time, label), each
    run's times multiplied by its scale first."""
    runs = {}
    for r, scale in zip(results, scales):
        runs.setdefault(r.job, []).append(
            (r.elapsed * scale, r.first_line * scale, r.label))
    return {job: (statistics.median(e for e, _, _ in v),
                  statistics.median(f for _, f, _ in v), v[0][2])
            for job, v in runs.items()}


def end_to_end(name, workload, seconds, seed):
    # set-up is timed once up front and again after every job, so that its
    # median spans the run.  Dropping the previous set-up and its garbage
    # is not timed.  A calibration precedes each set-up, so that calibs[i]
    # and calibs[i + 1] bracket job i, and so that set-up runs with warm
    # caches even after a child process.
    setups, calibs = [], []

    def calibrate_and_setup():
        calibs.append(calibration.time_once())
        workload.reset()
        gc.collect()
        t0 = clock()
        workload.setup(seed)
        setups.append(clock() - t0)

    calibrate_and_setup()
    results, wall = run_loop(workload, seconds, after_job=calibrate_and_setup)
    OUT.mkdir(exist_ok=True)
    (OUT / f"runs-{name}-{seed}.json").write_text(json.dumps({
        "setups": setups, "calibs": calibs,
        "jobs": [[r.job, r.elapsed, r.first_line, r.label] for r in results]}))
    ref = calibration.REFERENCE_S
    job_scales = [2 * ref / (a + b) for a, b in zip(calibs, calibs[1:])]
    per_job = median_of_passes(results, job_scales)
    times = [v[0] for v in per_job.values()]
    raw_times = [v[0] for v in median_of_passes(results, [1.0] * len(results)).values()]
    metrics = {
        "setup_s": statistics.median(s * ref / c for s, c in zip(setups, calibs)),
        "job_p50_ms": 1000 * statistics.median(times),
        "jobs_per_s": len(times) / sum(times),
        "peak_rss_mb": workload.peak_rss_mb(),
        "first_line_ms": 1000 * workload.first_line_s(per_job),
    }
    value, pct, n = tail([r.elapsed * s for r, s in zip(results, job_scales)])
    failed = sum(not r.ok for r in results)
    print(f"# {name}: {workload.describe()}")
    print(f"# load: closed loop, 1 client, a timed set-up and a calibration "
          f"between jobs; {len(results)} job runs in {wall:.2f} s, "
          f"{len(results) / len(per_job):.2f} passes over {len(per_job)} jobs; "
          "a job's time is its median pass")
    print(f"# host speed: calibration median {1000 * statistics.median(calibs):.2f} ms, "
          f"quartiles {[round(1000 * q, 2) for q in statistics.quantiles(calibs, n=4)]}, "
          f"reference {1000 * ref:.2f} ms")
    print(f"# unscaled: setup_s = {statistics.median(setups):.6g} s, "
          f"job_p50_ms = {1000 * statistics.median(raw_times):.6g} ms, "
          f"jobs_per_s = {len(raw_times) / sum(raw_times):.6g} 1/s")
    print(f"# closed-loop throughput over all job runs = "
          f"{len(results) / sum(r.elapsed for r in results):.4g} runs/s "
          "(unscaled, not gated)")
    print(f"# job_tail_ms = {1000 * value:.6g} ms at reference host speed: "
          f"p{pct:.1f} of {n} job runs, {TAIL_BEYOND} beyond it (not gated)")
    print(f"# fail_ratio = {failed / len(results):.4f} ({failed} of {len(results)})")
    return results, metrics


FLOORS = ("pass", "import segrekit")


def process_floor_s(code):
    """Wall time of one `python -c code` with PYTHONPATH=src."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = clock()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
    return clock() - t0


def per_layer(name, workload, seconds, seed):
    # each job runs traced and then untraced, followed by one sample of
    # each process floor, so that the host's speed drifts hit all of them
    # alike and their ratios hold
    workload.reset()
    workload.setup(seed)
    tracer = tracing.Tracer()
    results, untraced = [], []
    floors = {code: [] for code in FLOORS}
    deadline = clock() + seconds
    while not results or clock() < deadline:
        i = len(results)
        results.append(workload.run_job(i, tracer))
        untraced.append(workload.run_job(i))
        for code, times in floors.items():
            times.append(process_floor_s(code))
    spans, counters = workload.finish_trace(tracer)
    jobs = len(results)
    traced_s = sum(r.elapsed for r in results)
    untraced_s = sum(r.elapsed for r in untraced)
    interpreter, imported = (1000 * statistics.median(floors[code])
                             for code in FLOORS)

    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{name}-{seed}.json").write_text(
        json.dumps({"spans": spans, "counters": counters}))

    selfs = tracing.self_times(spans)

    def self_s(fn):
        return selfs.get(fn, [0, 0.0])[1] / jobs

    def calls(fn):
        return selfs.get(fn, [0, 0.0])[0] / jobs

    multis = counters["segre.multipartitions.items"]
    metrics = {
        "linalg.mat_mul.calls": calls("linalg.mat_mul"),
        "linalg.mat_mul.self_s": self_s("linalg.mat_mul"),
        "linalg.mat_mul.mults": counters["linalg.mat_mul.mults"] / jobs,
        "linalg.char_poly.self_s": self_s("linalg.char_poly"),
        "linalg.rank.calls": calls("linalg.rank"),
        "linalg.rank.self_s": self_s("linalg.rank"),
        "linalg.max_int_bits": counters["linalg.max_int_bits"],
        "linalg.rational_roots.self_s": self_s("linalg.rational_roots"),
        "jordan.analyze.self_s": self_s("jordan.analyze"),
        "jordan.rank_pattern_of.calls": calls("jordan.rank_pattern_of"),
        "jordan.rank_pattern_of.self_s": self_s("jordan.rank_pattern_of"),
        "rank_analysis.blocks_from_rank_pattern.self_s":
            self_s("rank_analysis.blocks_from_rank_pattern"),
        "segre.count_segre_sum.self_s": self_s("segre.count_segre_sum"),
        "segre.count_segre_gf.self_s": self_s("segre.count_segre_gf"),
        "partitions.partition_count.self_s": self_s("partitions.partition_count"),
        "segre.enumerate_segre.self_s": self_s("segre.enumerate_segre"),
        "segre.enumerate_segre.items": counters["segre.enumerate_segre.items"] / jobs,
        "segre.multipartitions.items": multis / jobs,
        "segre.enumerate_segre.useful_ratio":
            counters["segre.enumerate_segre.items"] / multis if multis else 0.0,
        "render.grid_of.self_s": self_s("render.grid_of"),
        "render.render_svg.self_s": self_s("render.render_svg"),
        "render.output_bytes": counters["render.output_bytes"] / jobs,
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": imported - interpreter,
        "cli.main.self_s": self_s("cli.main"),
        "trace.overhead_ratio": traced_s / untraced_s,
    }

    job_s = traced_s / jobs
    kernels = sum(self_s(f"linalg.{fn}") for fn in ("mat_mul", "char_poly", "rank"))
    p50 = 1000 * statistics.median(r.elapsed for r in untraced)
    print(f"# {name}: {jobs} jobs, each run traced and untraced in turn: "
          f"{traced_s:.2f} s traced, {untraced_s:.2f} s untraced")
    print(f"# share of traced job time: linalg mat_mul+char_poly+rank "
          f"{kernels / job_s:.1%}, rational_roots "
          f"{self_s('linalg.rational_roots') / job_s:.1%}")
    print(f"# interpreter + import = {imported:.1f} ms = "
          f"{imported / p50:.1%} of untraced job_p50_ms {p50:.1f} ms")
    return results + untraced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "segrekit" / "__init__.py").is_file():
        print(f"error: no segrekit package under {SRC}", file=sys.stderr)
        return 2
    if not EXPECTED.is_file():
        print(f"error: missing {EXPECTED}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]()
    try:
        if args.trace:
            results, metrics = per_layer(args.workload, workload, args.seconds,
                                         args.seed)
            table = PER_LAYER
        else:
            results, metrics = end_to_end(args.workload, workload, args.seconds,
                                          args.seed)
            table = END_TO_END
    finally:
        workload.cleanup()

    for key, (unit, note) in table.items():
        print(f"# {key} = {metrics[key]:.6g} {unit}  ({note})")
    failed = sum(not r.ok for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, (unit, _) in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
