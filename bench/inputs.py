"""Seeded inputs and independent expected results for the benchmark.

Everything here uses plain lists of Python ints and the standard library.
Nothing calls segrekit: the inputs must not shift when the package's
kernels change, and the expected results must not come from the code under
test.
"""

import math
import random
from fractions import Fraction

# analyze-kernels: one cycle of 12 jobs as (n, distinct eigenvalues,
# irrational block).  Sizes are weighted so that the median job is among
# the n = 16 jobs; the eigenvalue count, which drives the cost at a given
# n, is fixed per slot (1..6 across the n = 16 jobs), so that every seed
# puts the same kind of job at the median.  The 2x2 irrational block
# (companion matrix of x^2 - 2) is added to one n = 12 slot.  A run's job
# list is two cycles with draws of their own, so that its totals average
# over two inputs per slot.
KERNEL_CYCLE = ((12, 2, False), (16, 1, False), (20, 3, False),
                (16, 4, False), (12, 3, True), (16, 2, False),
                (24, 3, False), (16, 6, False), (16, 3, False),
                (20, 5, False), (16, 5, False), (12, 4, False))
KERNEL_EIGENVALUES = tuple(Fraction(k, 2) for k in range(-4, 5))
KERNEL_MAX_TRAILING = 2 ** 32

# analyze-roots: one cycle of 9 jobs whose trailing coefficients c0 are
# spread in log2 from 2^38.25 to 2^45.75, each within 3% of its slot's
# target, so every seed sees the same spread of root-search cost.  Three
# slots share the middle target, so the median job is the middle of like
# jobs.  Eigenvalue magnitudes are primes: c0 then has few divisors, and
# the cost of a job is set by c0 alone (trial division runs to sqrt(c0)
# whatever the divisors are; only the candidate tests after it depend on
# them).
ROOT_BITS = (38.25, 39.5, 40.75, 42.0, 42.0, 42.0, 43.25, 44.5, 45.75)
ROOT_TOLERANCE = 0.03
ROOT_MIN_MAGNITUDE = 16


def random_partition(rng: random.Random, weight: int) -> tuple[int, ...]:
    """A partition of weight >= 1 built from uniformly drawn parts."""
    parts = []
    rest = weight
    while rest:
        part = rng.randint(1, rest)
        parts.append(part)
        rest -= part
    return tuple(sorted(parts, reverse=True))


def random_composition(rng: random.Random, total: int, k: int) -> list[int]:
    """k positive integers summing to total (k <= total)."""
    cuts = sorted(rng.sample(range(1, total), k - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def canonical(groups) -> tuple[tuple[int, ...], ...]:
    """Groups sorted by descending weight, then lexicographically
    descending parts: the order analyze() reports."""
    return tuple(sorted((tuple(g) for g in groups),
                        key=lambda g: (-sum(g), tuple(-p for p in g))))


def rank_pattern(blocks, n: int) -> tuple[int, ...]:
    """Closed-form ranks of (A - lam I)^k, k = 0..max(blocks)."""
    return tuple(n - sum(min(b, k) for b in blocks)
                 for k in range(max(blocks) + 1))


class Spec:
    """A Jordan structure: groups of block sizes, one eigenvalue each, plus
    an optional irrational 2x2 block."""

    def __init__(self, groups, eigenvalues, irrational: bool = False):
        self.groups = tuple(tuple(g) for g in groups)
        self.eigenvalues = tuple(Fraction(e) for e in eigenvalues)
        self.irrational = irrational
        self.n = sum(map(sum, self.groups)) + (2 if irrational else 0)
        # entries of A have denominators dividing 2, and d*A is integral
        self.scale = 2 if any(e.denominator == 2 for e in self.eigenvalues) else 1

    def trailing_coefficient(self) -> int:
        """Trailing nonzero coefficient of char_poly(d*A): the product of
        (-d*lam)^m over nonzero eigenvalues, times -2d^2 for the x^2 - 2d^2
        factor of an irrational block."""
        d = self.scale
        c0 = 1
        for lam, group in zip(self.eigenvalues, self.groups):
            if lam:
                c0 *= int(-d * lam) ** sum(group)
        if self.irrational:
            c0 *= -2 * d * d
        return c0

    def expected(self):
        """(canonical segre, [(eigenvalue, rank pattern, blocks)]) as
        analyze() must report them, eigenvalues ascending."""
        per = sorted(zip(self.eigenvalues, self.groups))
        return (canonical(self.groups),
                [(lam, rank_pattern(g, self.n), g) for lam, g in per])

    def scaled_jordan(self) -> list[list[int]]:
        """d times the Jordan matrix: blocks in group order, parts
        largest-first, the irrational block last."""
        d = self.scale
        n = self.n
        m = [[0] * n for _ in range(n)]
        offset = 0
        for lam, group in zip(self.eigenvalues, self.groups):
            for size in group:
                for r in range(offset, offset + size):
                    m[r][r] = int(d * lam)
                for r in range(offset, offset + size - 1):
                    m[r][r + 1] = d
                offset += size
        if self.irrational:
            m[offset][offset + 1] = 2 * d
            m[offset + 1][offset] = d
        return m


def conjugate(rng: random.Random, m: list[list[int]]) -> list[list[int]]:
    """U m U^-1 for a random unimodular U, in place.

    Same construction and draw order as the acceptance suite's similarity
    test: randint(n, 2n) elementary matrices I + c e_rs with c in
    {-2, -1, 1, 2}, skipping r == s.  Each one is applied as a row
    operation on the left and the inverse column operation on the right.
    """
    n = len(m)
    for _ in range(rng.randint(n, 2 * n)):
        r = rng.randrange(n)
        s = rng.randrange(n)
        if r == s:
            continue
        c = rng.choice((-2, -1, 1, 2))
        row_r, row_s = m[r], m[s]
        for j in range(n):
            row_r[j] += c * row_s[j]
        for row in m:
            row[s] -= c * row[r]
    return m


def rational_rows(spec: Spec, scaled: list[list[int]]) -> list[list]:
    """Entries of A = scaled / d: ints, or Fractions when d = 2."""
    d = spec.scale
    if d == 1:
        return scaled
    return [[Fraction(x, d) for x in row] for row in scaled]


class MatrixInput:
    """One analyze job: the spec, the matrix rows and its trailing bits."""

    def __init__(self, spec: Spec, rows):
        self.spec = spec
        self.rows = rows
        self.trailing_bits = abs(spec.trailing_coefficient()).bit_length()


def _kernel_spec(rng: random.Random, n: int, k: int, irrational: bool) -> Spec:
    rational_n = n - 2 if irrational else n
    while True:
        eigenvalues = rng.sample(KERNEL_EIGENVALUES, k)
        groups = [random_partition(rng, w)
                  for w in random_composition(rng, rational_n, k)]
        spec = Spec(groups, eigenvalues, irrational)
        if abs(spec.trailing_coefficient()) <= KERNEL_MAX_TRAILING:
            return spec


def kernel_inputs(seed: int, count: int) -> list[MatrixInput]:
    """Inputs of the analyze-kernels workload, in job order."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        spec = _kernel_spec(rng, *KERNEL_CYCLE[i % len(KERNEL_CYCLE)])
        out.append(MatrixInput(spec, rational_rows(
            spec, conjugate(rng, spec.scaled_jordan()))))
    return out


def next_prime(n: int) -> int:
    """The smallest prime >= n, by trial division."""
    n = max(n, 2)
    while any(n % p == 0 for p in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


def _root_spec(rng: random.Random, bits: float) -> Spec:
    target = 2.0 ** bits
    while True:
        n = rng.randint(4, 8)
        k = rng.randint(1, min(3, n))
        groups = [random_partition(rng, w)
                  for w in random_composition(rng, n, k)]
        mults = [sum(g) for g in groups]
        # split log2(target) among the eigenvalues, each |lam| >= 16
        floor_bits = math.log2(ROOT_MIN_MAGNITUDE)
        spare = bits - floor_bits * n
        shares = [rng.random() for _ in range(k)]
        magnitudes = []
        product = 1
        for m, share in zip(mults[:-1], shares):
            own = floor_bits * m + spare * share / sum(shares)
            lam = next_prime(round(2.0 ** (own / m)))
            magnitudes.append(lam)
            product *= lam ** m
        last = next_prime(round((target / product) ** (1.0 / mults[-1])))
        if last < ROOT_MIN_MAGNITUDE:
            continue
        magnitudes.append(last)
        eigenvalues = [lam * rng.choice((-1, 1)) for lam in magnitudes]
        if len(set(eigenvalues)) != k:
            continue
        spec = Spec(groups, eigenvalues)
        c0 = abs(spec.trailing_coefficient())
        if abs(c0 / target - 1) <= ROOT_TOLERANCE:
            return spec


def root_inputs(seed: int, count: int) -> list[MatrixInput]:
    """Inputs of the analyze-roots workload, in job order."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        spec = _root_spec(rng, ROOT_BITS[i % len(ROOT_BITS)])
        out.append(MatrixInput(spec, conjugate(rng, spec.scaled_jordan())))
    return out


# cli: a list of 28 process jobs, in a fixed interleaved order.  Most are
# light (start-up dominated), as a command-line user's runs are: 16 render,
# rankpattern and analyze jobs, so that the median job (the mean of the
# 14th and 15th) falls inside that group rather than at its edge, next to
# the enumerate and count jobs.  The count sizes are evenly spaced over
# their ranges, ends included; enumerate prints text for even n and JSON
# for odd n.
CLI_JOBS = (
    "enumerate:15", "rankpattern", "render:6:svg", "count", "analyze",
    "enumerate:10", "render:7:ascii", "rankpattern", "count-both", "analyze",
    "enumerate:14", "render:8:svg", "count", "rankpattern", "enumerate:11",
    "render:6:ascii", "analyze", "count", "rankpattern", "enumerate:13",
    "render:7:svg", "count-both", "analyze", "enumerate:12",
    "render:8:ascii", "rankpattern", "count", "analyze",
)
COUNT_BOTH_RANGE = (100, 200)
COUNT_RANGE = (300, 1000)


class CliJob:
    """One process job: argv after `python -m segrekit`, and how to check
    its stdout (kind plus the data the check needs)."""

    def __init__(self, kind: str, argv: list[str], expect):
        self.kind = kind
        self.argv = argv
        self.expect = expect


def _spaced(rng: random.Random, lo: int, hi: int, slot: int, slots: int) -> int:
    """The slot-th of `slots` evenly spaced points from lo to hi, moved by
    a seeded jitter of at most 1% of the range.  The cost of `count N`
    grows steeply with N (count 200 --method both takes four times as long
    as count 100), so sizes drawn at random would make the total cost of
    a job list, and with it jobs_per_s, depend on the seed."""
    jitter = (hi - lo) // 100
    point = lo + round(slot * (hi - lo) / (slots - 1))
    return min(hi, max(lo, point + rng.randint(-jitter, jitter)))


def small_analyze_spec(rng: random.Random) -> Spec:
    """A 4..6-dimensional spec with eigenvalues from {k/2 : -4 <= k <= 4}."""
    n = rng.randint(4, 6)
    k = rng.randint(1, 3)
    eigenvalues = rng.sample(KERNEL_EIGENVALUES, k)
    groups = [random_partition(rng, w) for w in random_composition(rng, n, k)]
    return Spec(groups, eigenvalues)


def cli_jobs(seed: int):
    """Jobs of the cli workload in order, plus the analyze inputs as
    (spec, rows) keyed by file name; argv refers to each file by name."""
    rng = random.Random(seed)
    jobs = []
    matrices = {}
    slot = {"count": 0, "count-both": 0}
    for entry in CLI_JOBS:
        kind, *rest = entry.split(":")
        if kind == "enumerate":
            n = rest[0]
            fmt = ("text", "json")[int(n) % 2]
            jobs.append(CliJob(kind, ["enumerate", n, "--format", fmt],
                               f"enumerate {n} {fmt}"))
        elif kind == "render":
            n, fmt = rest
            jobs.append(CliJob(kind, ["render", n, "--format", fmt],
                               f"render {n} {fmt}"))
        elif kind in slot:
            lo, hi = COUNT_BOTH_RANGE if kind == "count-both" else COUNT_RANGE
            slots = sum(1 for e in CLI_JOBS if e == kind)
            n = _spaced(rng, lo, hi, slot[kind], slots)
            slot[kind] += 1
            argv = ["count", str(n)]
            if kind == "count-both":
                argv += ["--method", "both"]
            jobs.append(CliJob(kind, argv, n))
        elif kind == "analyze":
            spec = small_analyze_spec(rng)
            name = f"m{len(matrices)}.json"
            matrices[name] = (spec, rational_rows(
                spec, conjugate(rng, spec.scaled_jordan())))
            jobs.append(CliJob(kind, ["analyze", name], spec))
        else:
            n = rng.randint(6, 12)
            blocks = random_partition(rng, rng.randint(1, n))
            jobs.append(CliJob(kind, ["rankpattern", format_rank_pattern(
                rank_pattern(blocks, n), n)], blocks))
    return jobs, matrices


def format_rank_pattern(ranks, n: int) -> str:
    return f"n={n}: " + ",".join(map(str, ranks))


def format_blocks(blocks) -> str:
    return "[" + ",".join(map(str, blocks)) + "]"


def format_segre(groups) -> str:
    return "[" + ",".join(
        "(" + ",".join(map(str, g)) + ")" for g in groups) + "]"


def expected_analyze_text(spec: Spec) -> str:
    """The text report `segre analyze` must print for spec."""
    segre, per = spec.expected()
    lines = [f"segre: {format_segre(segre)}"]
    for lam, ranks, blocks in per:
        lines += [f"eigenvalue {lam}:",
                  f"  rank pattern: {format_rank_pattern(ranks, spec.n)}",
                  f"  blocks: {format_blocks(blocks)}"]
    return "\n".join(lines) + "\n"


def expected_rankpattern_text(blocks) -> str:
    """The output of `segre rankpattern` for the pattern of blocks:
    nullity growth q_k = #{blocks >= k}, then the blocks."""
    growth = [sum(1 for b in blocks if b >= k)
              for k in range(1, max(blocks) + 1)]
    return (f"growth: [{','.join(map(str, growth))}]\n"
            f"blocks: {format_blocks(blocks)}\n")


def matrix_json(rows) -> dict:
    """The analyze input file: ints as JSON numbers, others as "p/q"."""
    def encode(e):
        if isinstance(e, int) or e.denominator == 1:
            return int(e)
        return f"{e.numerator}/{e.denominator}"
    return {"rows": len(rows), "cols": len(rows[0]),
            "entries": [[encode(e) for e in row] for row in rows]}


def segre_counts(limit: int) -> list[int]:
    """A001970(0..limit), the number of Segre characteristics of weight n,
    by the Euler transform of the partition numbers:
    n a(n) = sum_{k=1..n} c(k) a(n-k), c(k) = sum_{d | k} d p(d),
    with p(d) from the coin-change recurrence."""
    p = [1] + [0] * limit
    for part in range(1, limit + 1):
        for m in range(part, limit + 1):
            p[m] += p[m - part]
    c = [0] * (limit + 1)
    for d in range(1, limit + 1):
        dp = d * p[d]
        for k in range(d, limit + 1, d):
            c[k] += dp
    a = [1] + [0] * limit
    for n in range(1, limit + 1):
        a[n] = sum(c[k] * a[n - k] for k in range(1, n + 1)) // n
    return a
