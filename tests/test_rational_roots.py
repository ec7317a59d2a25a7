"""The Sturm-bisection root finder against the divisor-based and Fraction
oracles, and the bit sizes the divisor search could not reach."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from segrekit import (ExactMatrix, IrrationalEigenvalueError, JordanSpec,
                      PolynomialZ, SegreCharacteristic, analyze, build_jordan,
                      rational_roots)
from segrekit.linalg import _rational_roots

from oracles import divisor_rational_roots, fraction_rational_roots, poly_mul

SRC = Path(__file__).resolve().parent.parent / "src"

# x^2 + 1, x^2 - 2 and x^3 + x + 3 have no rational root
ROOTLESS = ([1], [1, 0, 1], [-2, 0, 1], [3, 1, 0, 1])


@st.composite
def products_of_linear_factors(draw):
    """lead * prod (q*x - p)^m * a rootless factor, with |p| <= 9, q in
    1..4 and m <= 2: small constant terms, so the oracles stay fast."""
    poly = [draw(st.sampled_from([1, -1, 2, -3]))]
    factors = draw(st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 4),
                                      st.integers(1, 2)), max_size=3))
    for p, q, m in factors:
        for _ in range(m):
            poly = poly_mul(poly, [-p, q])
    return poly_mul(poly, draw(st.sampled_from(ROOTLESS)))


random_polynomials = st.lists(st.integers(-30, 30), min_size=1,
                              max_size=7).filter(lambda cs: cs[-1] != 0)


@settings(max_examples=300, deadline=None)
@given(st.one_of(products_of_linear_factors(), random_polynomials))
def test_rational_roots_match_both_oracles(coeffs):
    roots, remainder = _rational_roots(list(coeffs))
    expected_roots, expected_remainder = divisor_rational_roots(coeffs)
    assert sorted(roots) == sorted(expected_roots)
    assert remainder == expected_remainder
    assert all(q > 0 and Fraction(p, q).denominator == q for p, q, _ in roots)
    expected = fraction_rational_roots(coeffs)
    assert rational_roots(PolynomialZ(coeffs)) == expected


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
