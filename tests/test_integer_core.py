"""The integer core of linalg against Fraction oracles, and its exactness
checks under python -O."""

import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from segrekit import (ExactMatrix, IrrationalEigenvalueError, JordanSpec,
                      SegreCharacteristic, analyze, build_jordan, char_poly,
                      mat_mul, rank_pattern_of)

from oracles import (char_poly_by_interpolation, fraction_analyze,
                     fraction_mat_mul, fraction_rank_pattern)

SRC = Path(__file__).resolve().parent.parent / "src"

entries = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 6]))


def matrices(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


square_matrices = st.integers(1, 4).flatmap(lambda n: matrices(n, n))


@st.composite
def conjugated_jordan(draw):
    """A Jordan matrix with half-integer eigenvalues, conjugated by random
    elementary operations (row i += c*row j, then column j -= c*column i)."""
    groups = draw(st.lists(
        st.lists(st.integers(1, 3), min_size=1, max_size=2).map(
            lambda g: sorted(g, reverse=True)),
        min_size=1, max_size=3).filter(lambda gs: sum(map(sum, gs)) <= 8))
    eigenvalues = draw(st.lists(
        st.integers(-6, 6).map(lambda k: Fraction(k, 2)),
        min_size=len(groups), max_size=len(groups), unique=True))
    rows = build_jordan(JordanSpec(SegreCharacteristic(groups),
                                   eigenvalues)).to_rows()
    n = len(rows)
    if n > 1:
        ops = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                      st.integers(0, n - 1),
                                      st.integers(-2, 2)), max_size=6))
        for i, j, c in ops:
            if i != j:
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
                for row in rows:
                    row[j] -= c * row[i]
    return rows


def report_or_irrational(rows):
    try:
        return analyze(ExactMatrix.from_rows(rows)).to_json_dict()
    except IrrationalEigenvalueError as exc:
        return ("irrational", exc.remainder_degree)


def check_against_oracle(rows):
    m = ExactMatrix.from_rows(rows)
    n = len(rows)
    # char_poly works on d*A, whose characteristic polynomial is d^(n-k) c_k
    d = math.lcm(*(Fraction(e).denominator for row in rows for e in row))
    expected = [c * d ** (n - k)
                for k, c in enumerate(char_poly_by_interpolation(rows))]
    assert list(char_poly(m).coefficients) == expected
    report = report_or_irrational(rows)
    assert report == fraction_analyze(rows)
    probes = [Fraction(1, 3), Fraction(-5, 2)]
    if isinstance(report, dict):
        probes += [Fraction(e["value"]) for e in report["eigenvalues"]]
    for lam in probes:
        assert rank_pattern_of(m, lam).ranks == fraction_rank_pattern(rows, lam)


@settings(max_examples=60, deadline=None)
@given(square_matrices)
def test_random_rational_matrices_match_oracle(rows):
    check_against_oracle(rows)


@settings(max_examples=60, deadline=None)
@given(conjugated_jordan())
def test_conjugated_jordan_matrices_match_oracle(rows):
    check_against_oracle(rows)
    assert isinstance(report_or_irrational(rows), dict)


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda s: st.tuples(matrices(s[0], s[1]), matrices(s[1], s[2]))))
def test_mat_mul_matches_oracle(pair):
    a, b = pair
    product = mat_mul(ExactMatrix.from_rows(a), ExactMatrix.from_rows(b))
    assert product == ExactMatrix.from_rows(fraction_mat_mul(a, b))


def test_analyze_creates_fractions_only_for_eigenvalues(monkeypatch):
    spec = JordanSpec(SegreCharacteristic([[2, 1], [3], [1]]),
                      [Fraction(1, 2), -3, Fraction(5, 2)])
    rows = build_jordan(spec).to_rows()
    rows[0] = [a + b for a, b in zip(rows[0], rows[4])]
    for row in rows:
        row[4] -= row[0]
    m = ExactMatrix.from_rows(rows)
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    report = analyze(m)
    monkeypatch.undo()
    assert str(report.segre) == "[(3),(2,1),(1)]"
    assert [r.eigenvalue for r in report.per_eigenvalue] == [
        -3, Fraction(1, 2), Fraction(5, 2)]
    assert made == [(-6, 2), (1, 2), (5, 2)]


def test_exactness_checks_survive_python_O():
    # each case feeds a kernel input that breaks the exactness it relies on
    code = textwrap.dedent("""
        from fractions import Fraction
        from segrekit import InternalInconsistencyError, linalg, segre
        assert False, "asserts must be stripped"
        cases = [
            lambda: linalg._replay(
                linalg._eliminate([[2, 1, 0], [1, 2, 1], [0, 1, 2]]),
                [0, 0, Fraction(1, 2)]),
            lambda: linalg._int_char_poly([[1, 2], [3, 4]]),
            lambda: linalg._eliminate([[2, 1, 0], [1, 2, 1],
                                       [Fraction(1, 3), 1, 2]]),
            # [0, 1] is T*u only for u = (0, 1/2), not for an integer u
            lambda: linalg._preimage(linalg._eliminate([[2, 1], [1, 2]]), 2,
                                     [0, 1]),
            lambda: linalg._rational_roots([1, 1]),
            lambda: segre.count_segre_gf(3),
        ]
        # residues whose c_{n-1} disagrees with the trace
        residues = linalg._char_poly_mod
        linalg._char_poly_mod = lambda b, p: [
            (c + (k == len(b) - 1)) % p for k, c in enumerate(residues(b, p))]
        # a root search that reports 2 as a root of x + 1
        linalg._integer_roots = lambda f: [2]
        # partition numbers that make the Euler-transform division inexact
        segre.partition_count = lambda n: Fraction(1, 2)
        for case in cases:
            try:
                case()
            except InternalInconsistencyError:
                print("raised")
            else:
                print("passed")
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["raised"] * 6
