"""The root finder (a modular gcd for the square-free part, then p-adic
lifting) against the divisor-based and Fraction oracles, and inputs beyond
the divisor search: roots near 10^18 and a random 64 x 64 matrix."""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from segrekit import (ExactMatrix, IrrationalEigenvalueError, JordanSpec,
                      SegreCharacteristic, analyze, build_jordan)
from segrekit.linalg import (_horner, _int_char_poly, _integer_roots,
                             _rational_roots)

from oracles import divisor_rational_roots, fraction_rational_roots, poly_mul

SRC = Path(__file__).resolve().parent.parent / "src"

# x^2 + 1, x^2 - 2, x^3 + x + 3 and (x^2 - 2)^2 have no rational root; the
# last is not square-free modulo any prime
ROOTLESS = ([1], [1, 0, 1], [-2, 0, 1], [3, 1, 0, 1], [4, 0, -4, 0, 1])


def monic_product(roots, rootless):
    """prod (x - r)^m over the (r, m) in roots, times a rootless factor."""
    poly = list(rootless)
    for r, m in roots:
        for _ in range(m):
            poly = poly_mul(poly, [-r, 1])
    return poly


def distinct_roots(values):
    """(root, multiplicity) pairs with distinct roots, m <= 3."""
    return st.lists(st.tuples(values, st.integers(1, 3)), max_size=3,
                    unique_by=lambda rm: rm[0])


@settings(max_examples=300, deadline=None)
@given(distinct_roots(st.integers(-9, 9)), st.sampled_from(ROOTLESS))
def test_rational_roots_match_both_oracles(roots, rootless):
    # small roots, 0 among them, so the divisor searches stay fast
    coeffs = monic_product(roots, rootless)
    assume(len(coeffs) > 1)
    found, remainder = _rational_roots(coeffs)
    expected_roots, expected_remainder = divisor_rational_roots(coeffs)
    assert all(q == 1 for _, q, _ in expected_roots)
    assert sorted(found) == sorted((p, m) for p, _, m in expected_roots)
    assert remainder == expected_remainder == len(rootless) - 1
    assert (sorted(found), remainder) == fraction_rational_roots(coeffs)


@settings(max_examples=50, deadline=None)
@given(distinct_roots(st.integers(-50, 50).map(
           lambda k: k + (10 ** 18 if k % 2 else -10 ** 18))),
       st.sampled_from(ROOTLESS))
def test_rational_roots_near_10_to_18(roots, rootless):
    # beyond the divisor oracle's reach: checked against the roots the
    # polynomial was built from
    coeffs = monic_product(roots, rootless)
    assume(len(coeffs) > 1)
    found, remainder = _rational_roots(coeffs)
    assert sorted(found) == sorted(roots)
    assert remainder == len(rootless) - 1


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


J8_1000 = build_jordan(JordanSpec(SegreCharacteristic([[8]]), [1000]))


def test_jordan_block_of_size_8_at_1000():
    # constant term 1000^8 = 10^24: the divisor search needs 10^12 trials
    report, seconds = timed(analyze, J8_1000)
    assert report.to_json_dict() == {
        "segre": "[(8)]",
        "eigenvalues": [{"value": "1000",
                         "rank_pattern": list(range(8, -1, -1)),
                         "blocks": [8]}]}
    assert seconds < 1


def test_diagonal_near_10_to_18():
    big = 10 ** 18
    report, seconds = timed(analyze, ExactMatrix.from_rows(
        [[big + 9, 0], [0, big + 3]]))
    assert [r.eigenvalue for r in report.per_eigenvalue] == [big + 3, big + 9]
    assert str(report.segre) == "[(1),(1)]"
    assert seconds < 1


def test_root_search_of_a_random_64x64_matrix():
    # a generic integer matrix: its characteristic polynomial is square-free
    # with coefficients of about 300 bits and has no rational root
    rng = random.Random(64)
    b = [[rng.randint(-9, 9) for _ in range(64)] for _ in range(64)]
    result, seconds = timed(_rational_roots, _int_char_poly(b))
    assert result == ([], 64)
    assert seconds < 1


def test_lifted_residues_beyond_the_cauchy_bound_are_not_evaluated(monkeypatch):
    # x^2 - 7 has the roots 1 and 2 modulo 3; lifted 3-adically, they are
    # square roots of 7 far beyond the Cauchy bound 8, so neither can be an
    # integer root, and the polynomial is evaluated only within the bound
    points = []

    def spy(coeffs, x):
        points.append(x)
        return _horner(coeffs, x)

    monkeypatch.setattr("segrekit.linalg._horner", spy)
    assert _integer_roots([-7, 0, 1]) == []
    assert points and max(map(abs, points)) <= 8


def test_irrational_square_root_near_10_to_18():
    # characteristic polynomial x^2 - (10^18 + 3), not a square
    m = ExactMatrix.from_rows([[0, 10 ** 18 + 3], [1, 0]])
    start = time.perf_counter()
    with pytest.raises(IrrationalEigenvalueError) as err:
        analyze(m)
    assert time.perf_counter() - start < 1
    assert err.value.remainder_degree == 2


def test_cli_analyzes_jordan_block_of_size_8_at_1000(tmp_path):
    path = tmp_path / "j8.json"
    rows = [[str(e) for e in row] for row in J8_1000.to_rows()]
    path.write_text(json.dumps({"rows": 8, "cols": 8, "entries": rows}),
                    encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "segrekit", "analyze",
                           str(path)], env=env, capture_output=True,
                          text=True, timeout=5)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == ("segre: [(8)]\n"
                           "eigenvalue 1000:\n"
                           "  rank pattern: n=8: 8,7,6,5,4,3,2,1,0\n"
                           "  blocks: [8]\n")
