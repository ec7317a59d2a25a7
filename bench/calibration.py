"""A fixed piece of pure-Python work that tracks the host's speed.

The 2-CPU hosts this benchmark runs on change speed by up to 2x for
seconds to minutes at a time (CPU time rises with wall time, so it is not
time stolen from the process but slower execution).  A run times this
work between its jobs and reports its times rescaled to a reference host
speed, so that two runs of the same code agree although the host was
slower during one of them.  The work uses only the standard library and
never the package, so no change to the package moves it, and it mixes
the operations the package spends its time on: Fraction products and
sums, integer trial division, and allocation of many small objects.

It tracks the host only in part.  Over five minutes of interleaved
samples, a 16x16 analyze() moved with it about one to one, while root
search and process start-up moved less, so a run in a much faster or
slower period still reads some percent off; the rescaling cuts the
spread between runs, it does not remove it.
"""

import time
from fractions import Fraction

# median calibration time on a 2-vCPU Intel Xeon VM, Python 3.11.7, in a
# calm period; rescaled metrics read as if every run had that host speed
REFERENCE_S = 0.018

_MATRIX = [[Fraction(3 * i + j + 1, i + 2 * j + 1) for j in range(6)] for i in range(6)]
_TRIAL_N = 1_000_003 * 998_244_353


def work() -> int:
    """The calibration work; returns a checksum so nothing is skipped."""
    m = _MATRIX
    for _ in range(4):
        m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*_MATRIX)]
             for row in m]
    divisors = 0
    d = 1
    while d < 120_000:
        if _TRIAL_N % d == 0:
            divisors += 1
        d += 1
    return divisors + m[0][0].denominator % 7


def time_once() -> float:
    """Wall time of one run of work(), after an untimed run that warms the
    caches a job (or a child process) may have evicted."""
    work()
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0
