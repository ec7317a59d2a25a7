"""Tests of the benchmark's own code: inputs, references and span arithmetic.

Run with `python3 -m pytest bench/tests -q` from the repository root.
"""

import random
from fractions import Fraction

import calibration
import inputs
import tracing


def test_same_seed_gives_identical_inputs():
    for generate in (inputs.kernel_inputs, inputs.root_inputs):
        a, b = generate(7, 18), generate(7, 18)
        assert [(x.rows, x.spec.groups, x.spec.eigenvalues, x.spec.irrational)
                for x in a] == [(x.rows, x.spec.groups, x.spec.eigenvalues,
                                 x.spec.irrational) for x in b]
        assert [x.rows for x in generate(8, 18)] != [x.rows for x in a]
    jobs_a, files_a = inputs.cli_jobs(7)
    jobs_b, files_b = inputs.cli_jobs(7)
    assert [j.argv for j in jobs_a] == [j.argv for j in jobs_b]
    assert {k: v[1] for k, v in files_a.items()} == {k: v[1] for k, v in files_b.items()}


def test_inputs_respect_the_workload_design():
    for i, x in enumerate(inputs.kernel_inputs(3, 16)):
        n, k, irrational = inputs.KERNEL_CYCLE[i % len(inputs.KERNEL_CYCLE)]
        assert (x.spec.n, len(x.spec.groups), x.spec.irrational) == (n, k, irrational)
        assert len(x.rows) == n and x.trailing_bits <= 33
    for i, x in enumerate(inputs.root_inputs(3, 9)):
        c0 = abs(x.spec.trailing_coefficient())
        assert 2 ** 38 <= c0 <= 2 ** 46
        assert abs(c0 / 2 ** inputs.ROOT_BITS[i] - 1) <= inputs.ROOT_TOLERANCE
        assert 4 <= x.spec.n <= 8 and len(x.spec.eigenvalues) <= 3


def test_count_sizes_are_evenly_spaced_over_their_ranges():
    for seed in (1, 2, 3):
        jobs, _ = inputs.cli_jobs(seed)
        for kind, (lo, hi) in (("count", inputs.COUNT_RANGE),
                               ("count-both", inputs.COUNT_BOTH_RANGE)):
            sizes = [job.expect for job in jobs if job.kind == kind]
            step = (hi - lo) / (len(sizes) - 1)
            jitter = (hi - lo) // 100
            assert all(lo <= n <= hi and abs(n - lo - i * step) <= jitter + 1
                       for i, n in enumerate(sizes))


def test_calibration_work_is_fixed():
    assert calibration.work() == calibration.work()
    assert calibration.time_once() > 0


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_conjugate_is_the_unimodular_similarity():
    # replay the draws to build U and U^-1 as explicit products
    n = 5
    jordan = inputs.Spec([(3,), (2,)], [Fraction(1, 2), -1]).scaled_jordan()
    got = inputs.conjugate(random.Random(11), [row[:] for row in jordan])
    rng = random.Random(11)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    u, u_inv = ident, ident
    for _ in range(rng.randint(n, 2 * n)):
        r, s = rng.randrange(n), rng.randrange(n)
        if r == s:
            continue
        c = rng.choice((-2, -1, 1, 2))
        e = [row[:] for row in ident]
        e[r][s] = c
        e_inv = [row[:] for row in ident]
        e_inv[r][s] = -c
        u, u_inv = _mul(e, u), _mul(u_inv, e_inv)
    assert _mul(u, u_inv) == ident
    assert got == _mul(_mul(u, jordan), u_inv)


def test_trailing_coefficient_of_scaled_characteristic_polynomial():
    # 2A has eigenvalues 1, 1, -6 and the factor x^2 - 8: (x-1)^2 (x+6) (x^2-8)
    spec = inputs.Spec([(2,), (1,)], [Fraction(1, 2), -3], irrational=True)
    assert spec.scale == 2 and spec.n == 5
    assert spec.trailing_coefficient() == 1 * 6 * -8


def test_reference_counts_match_a001970():
    assert inputs.segre_counts(11) == [1, 1, 3, 6, 14, 27, 58, 111, 223, 424,
                                       817, 1527]


def test_expected_cli_text_matches_the_readme_examples():
    spec = inputs.Spec([(2,)], [Fraction(1, 2)])
    assert inputs.expected_analyze_text(spec) == (
        "segre: [(2)]\neigenvalue 1/2:\n  rank pattern: n=2: 2,1,0\n"
        "  blocks: [2]\n")
    blocks = (6, 3, 1)
    assert (inputs.format_rank_pattern(inputs.rank_pattern(blocks, 10), 10)
            == "n=10: 10,7,5,3,2,1,0")
    assert inputs.expected_rankpattern_text(blocks) == (
        "growth: [3,2,2,1,1,1]\nblocks: [6,3,1]\n")


def test_self_times_of_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and two merged
    # calls of leaf c of 0.5 s each; job 1 holds a lone d
    spans = [
        ["root", 0.0, 10.0, -1, 0, 1, 10.0],
        ["a", 1.0, 4.0, 0, 0, 1, 3.0],
        ["b", 2.0, 3.0, 1, 0, 1, 1.0],
        ["c", 5.0, 7.0, 0, 0, 2, 1.0],
        ["d", 0.0, 2.0, -1, 1, 1, 2.0],
    ]
    assert tracing.self_times(spans) == {
        "root": [1, 6.0], "a": [1, 2.0], "b": [1, 1.0], "c": [2, 1.0],
        "d": [1, 2.0]}
    merged = tracing.merge([spans[:3], spans[3:4]])
    assert [s[tracing.PARENT] for s in merged] == [-1, 0, 1, 3]


def test_tracer_merges_consecutive_leaf_calls():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("m.leaf", lambda x: x + 1)

    def body():
        return sum(leaf(i) for i in range(3))

    outer = tracer.wrap("m.outer", body)
    assert outer() == 6
    spans = tracer.spans
    assert [(s[tracing.NAME], s[tracing.PARENT], s[tracing.CALLS])
            for s in spans] == [("m.outer", -1, 1), ("m.leaf", 0, 3)]
    times = tracing.self_times(spans)
    assert times["m.outer"][1] == spans[0][tracing.BUSY] - spans[1][tracing.BUSY]
