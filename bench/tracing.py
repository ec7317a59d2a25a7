"""Spans around calls into segrekit's public functions, recorded from
outside the package.

Tracer.install() replaces every binding of a traced function in every
loaded segrekit module with a wrapper, so calls made through a name that
another module imported (jordan's `rank`, cli's `analyze`) are caught as
well as calls through the defining module (char_poly's `mat_mul`).

A span is [name, start, end, parent, job, calls, busy]: parent is the index
of the enclosing span (-1 at the top), busy the time spent inside the
call.  Consecutive calls of one leaf function under one parent share a
single span with their summed busy time, which keeps hot leaves such as
partition_count from flooding memory without changing any self time.
"""

import inspect
import json
import sys
import time
import types

# library modules whose public functions are traced; of the cli module
# only main is, so that its self time is argparse, I/O and formatting
LAYERS = ("partitions", "segre", "linalg", "jordan", "rank_analysis", "render")

NAME, START, END, PARENT, JOB, CALLS, BUSY = range(7)


def _fraction_bits(values) -> int:
    best = 0
    for v in values:
        b = max(v.numerator.bit_length(), v.denominator.bit_length())
        if b > best:
            best = b
    return best


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = 0
        self.counters = {"linalg.mat_mul.mults": 0, "linalg.max_int_bits": 0,
                         "segre.enumerate_segre.items": 0,
                         "segre.multipartitions.items": 0,
                         "render.output_bytes": 0}
        self._originals = []

    def _observe(self, name: str, args, result) -> None:
        c = self.counters
        if name == "linalg.mat_mul":
            a, b = args
            c["linalg.mat_mul.mults"] += a.rows * a.cols * b.cols
            bits = _fraction_bits(v for i in range(result.rows)
                                  for v in result.row(i))
            c["linalg.max_int_bits"] = max(c["linalg.max_int_bits"], bits)
        elif name == "linalg.char_poly":
            bits = max((abs(x).bit_length() for x in result.coefficients),
                       default=0)
            c["linalg.max_int_bits"] = max(c["linalg.max_int_bits"], bits)
        elif name in ("segre.enumerate_segre", "segre.multipartitions"):
            c[name + ".items"] += len(result)
        elif name in ("render.render_svg", "render.render_ascii"):
            c["render.output_bytes"] += len(result.encode())

    def add_counters(self, counters: dict) -> None:
        """Fold in the counters of a tracer from another process."""
        for key, value in counters.items():
            if key == "linalg.max_int_bits":
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        observe = self._observe

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.job, 1, 0.0]
            spans.append(span)
            stack.append(idx)
            span[START] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = end = clock()
                span[BUSY] = end - start
                stack.pop()
                if len(spans) == idx + 1 and idx:
                    prev = spans[idx - 1]
                    if (prev[NAME] == name and prev[PARENT] == parent
                            and prev[JOB] == span[JOB]):
                        prev[END] = end
                        prev[CALLS] += 1
                        prev[BUSY] += end - start
                        spans.pop()
            observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "segrekit") -> None:
        """Wrap every public function of the library layers, and cli.main,
        at each module attribute that binds it."""
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    targets[id(obj)] = (f"{layer}.{attr}", obj)
        cli = sys.modules.get(f"{package}.cli")
        if cli is not None:
            targets[id(cli.main)] = ("cli.main", cli.main)
        wrappers = {key: self.wrap(name, fn) for key, (name, fn) in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets and targets[id(obj)][1] is obj:
                    self._originals.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._originals):
            setattr(mod, attr, obj)
        self._originals.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def self_times(spans) -> dict:
    """name -> [calls, self seconds]; self time is a span's busy time less
    the busy time of its direct children."""
    child_busy = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_busy[span[PARENT]] += span[BUSY]
    out = {}
    for span, inner in zip(spans, child_busy):
        entry = out.setdefault(span[NAME], [0, 0.0])
        entry[0] += span[CALLS]
        entry[1] += span[BUSY] - inner
    return out


def merge(span_lists) -> list:
    """Concatenate span lists recorded separately, rebasing parent indexes."""
    out = []
    for spans in span_lists:
        base = len(out)
        for span in spans:
            span = list(span)
            if span[PARENT] >= 0:
                span[PARENT] += base
            out.append(span)
    return out
