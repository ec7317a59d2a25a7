import random
from fractions import Fraction

import pytest

from segrekit import (ExactMatrix, JordanSpec, PolynomialZ, char_poly,
                      mat_mul, matrix_from_json_dict, rank,
                      rational_eigenvalues, shift)
from segrekit.linalg import _rational_roots

from oracles import gaussian_rank, poly_from_linear_factors, poly_mul


def jordan_block(lam, size):
    return ExactMatrix.from_rows(
        [[lam if i == j else (1 if j == i + 1 else 0) for j in range(size)]
         for i in range(size)])


# the worked 10x10 example: eigenvalue 1 with blocks (2,1), 2 with (3),
# 3 with (1), 4 with (2,1)
WORKED_10x10 = ExactMatrix.from_rows([
    [1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 2, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 2, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 2, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 3, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 4, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 4, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 4],
])


def test_construction_and_access():
    m = ExactMatrix.from_rows([[1, "1/2"], [Fraction(3, 4), 0]])
    assert m.rows == 2 and m.cols == 2
    assert m[0, 1] == Fraction(1, 2)
    assert m.entry(1, 0) == Fraction(3, 4)
    assert m.row(0) == (1, Fraction(1, 2))
    assert m.to_rows()[1] == [Fraction(3, 4), 0]


def test_construction_rejects_bad_input():
    with pytest.raises(TypeError):
        ExactMatrix.from_rows([[0.5]])
    with pytest.raises(TypeError):
        ExactMatrix.from_rows([[True]])
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([])
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, [1, 2, 3])
    with pytest.raises(ValueError):
        ExactMatrix(0, 1, [])
    with pytest.raises(IndexError):
        ExactMatrix.identity(2).entry(2, 0)


def test_entry_strings_outside_the_grammar_are_rejected():
    # Fraction alone would read these as 25, 3, a 2001-digit integer and 3
    for text in ("2.5e1", " 3 ", "1e2000", "\u0663"):
        with pytest.raises(ValueError):
            ExactMatrix.from_rows([[text, 1]])
        with pytest.raises(ValueError):
            shift(ExactMatrix.identity(2), text)
        with pytest.raises(ValueError):
            JordanSpec([[1]], [text])


def test_equality_and_hash():
    a = ExactMatrix.from_rows([[1, 2], [3, 4]])
    b = ExactMatrix(2, 2, [1, 2, 3, 4])
    assert a == b
    assert hash(a) == hash(b)
    assert a != ExactMatrix.from_rows([[1, 2, 3, 4]])


def test_mat_mul_golden():
    a = ExactMatrix.from_rows([[1, 2], [3, 4]])
    b = ExactMatrix.from_rows([["1/2", 0], [0, 1]])
    assert mat_mul(a, b) == ExactMatrix.from_rows([["1/2", 2], ["3/2", 4]])
    with pytest.raises(ValueError):
        mat_mul(a, ExactMatrix.from_rows([[1, 2]]))


def test_powers_of_jordan_blocks():
    j = jordan_block(0, 3)
    j2 = mat_mul(j, j)
    assert rank(j) == 2
    assert rank(j2) == 1
    assert mat_mul(j2, j) == ExactMatrix.zeros(3, 3)
    b = jordan_block(2, 2)
    assert mat_mul(b, b) == ExactMatrix.from_rows([[4, 4], [0, 4]])


def test_shift_golden():
    m = jordan_block(5, 2)
    assert shift(m, 5) == ExactMatrix.from_rows([[0, 1], [0, 0]])
    assert shift(m, Fraction(1, 2)) == ExactMatrix.from_rows(
        [["9/2", 1], [0, "9/2"]])
    with pytest.raises(ValueError):
        shift(ExactMatrix.from_rows([[1, 2]]), 1)


def test_rank_basics():
    assert rank(ExactMatrix.identity(10)) == 10
    assert rank(ExactMatrix.zeros(3, 4)) == 0
    assert rank(ExactMatrix.from_rows([[1, 2], [2, 4]])) == 1
    assert rank(ExactMatrix.from_rows([[0, 1], [0, 0]])) == 1
    # rank 1 visible only after clearing row denominators exactly
    assert rank(ExactMatrix.from_rows([["1/2", "1/3"], ["1/4", "1/6"]])) == 1
    assert rank(WORKED_10x10 - ExactMatrix.identity(10)) == 8


def test_rank_matches_gaussian_oracle_randomized():
    rng = random.Random(20240817)
    for trial in range(120):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        data = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(cols)] for _ in range(rows)]
        if trial % 3 == 0:
            # force singularity: repeat or scale a row
            data[rng.randrange(rows)] = [2 * e for e in data[0]]
        m = ExactMatrix.from_rows(data)
        assert rank(m) == gaussian_rank(data), data


def test_rank_of_product_bounded():
    rng = random.Random(7)
    for _ in range(40):
        a = ExactMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        b = ExactMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        assert rank(mat_mul(a, b)) <= min(rank(a), rank(b))


def test_polynomial_basics():
    p = PolynomialZ([2, -3, 1])
    assert p.coefficients == (2, -3, 1)
    assert repr(p) == "PolynomialZ([2, -3, 1])"
    assert PolynomialZ([0, 0, 0]).coefficients == ()
    assert PolynomialZ([5, 0]).coefficients == (5,)
    assert PolynomialZ() == PolynomialZ([0])
    assert hash(PolynomialZ([5, 0])) == hash(PolynomialZ([5]))
    with pytest.raises(ValueError):
        PolynomialZ([1.5])


def test_char_poly_golden():
    diag = ExactMatrix.from_rows([[1, 0], [0, 2]])
    assert char_poly(diag) == PolynomialZ([2, -3, 1])
    assert char_poly(jordan_block(5, 2)) == PolynomialZ([25, -10, 1])
    assert char_poly(ExactMatrix.from_rows([[7]])) == PolynomialZ([-7, 1])
    with pytest.raises(ValueError):
        char_poly(ExactMatrix.from_rows([[1, 2]]))


def test_char_poly_worked_10x10():
    # (x-1)^3 (x-2)^3 (x-3) (x-4)^3, expanded by plain convolution
    expected = poly_from_linear_factors([1, 1, 1, 2, 2, 2, 3, 4, 4, 4])
    assert char_poly(WORKED_10x10) == PolynomialZ(expected)


def test_char_poly_scales_rational_input():
    # [[1/2, 0], [0, 1/2]] is scaled by 2; result is char poly of diag(1, 1)
    m = ExactMatrix.from_rows([["1/2", 0], [0, "1/2"]])
    assert char_poly(m) == PolynomialZ([1, -2, 1])


def horner_matrix(poly, a):
    n = a.rows
    acc = ExactMatrix.zeros(n, n)
    for c in reversed(poly.coefficients):
        acc = mat_mul(acc, a) + c * ExactMatrix.identity(n)
    return acc


def test_cayley_hamilton_randomized():
    rng = random.Random(99)
    for size in range(1, 7):
        for _ in range(4):
            a = ExactMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)])
            assert horner_matrix(char_poly(a), a) == ExactMatrix.zeros(size, size)


def roots_of(coeffs):
    roots, remainder = _rational_roots(list(coeffs))
    return sorted(roots), remainder


def test_rational_roots_golden():
    assert roots_of([2, -3, 1]) == ([(1, 1), (2, 1)], 0)
    assert roots_of([25, -10, 1]) == ([(5, 2)], 0)
    assert roots_of([1, 0, 1]) == ([], 2)
    assert roots_of([-2, 0, 1]) == ([], 2)
    assert roots_of([0, 0, 0, 1]) == ([(0, 3)], 0)
    assert roots_of([-7, 1]) == ([(7, 1)], 0)
    # x (x - p), p = _prime(0): modulo p, gcd(f, f') is x, so p is unlucky
    assert roots_of([0, -(2**62 - 57), 1]) == ([(0, 1), (2**62 - 57, 1)], 0)
    # x (x - c) (x^2 + 1), c = 2 * 3 * ... * 47: x and x - c meet modulo
    # every prime up to 47, so the roots are lifted from 53
    c = 614889782588491410
    assert roots_of(poly_mul([0, -c, 1], [1, 0, 1])) == ([(0, 1), (c, 1)], 2)
    # (x^2 - 2)^2 (x - 5)^2: a repeated irrational factor next to a
    # repeated root
    assert roots_of(poly_mul([4, 0, -4, 0, 1], [25, -10, 1])) == ([(5, 2)], 4)


def test_rational_roots_mixed():
    # x^2 (x^2+1)(x+2)(x-3): a double zero root beside a rootless factor
    poly = poly_mul(poly_mul([0, 0, 1], [1, 0, 1]), [-6, -1, 1])
    assert roots_of(poly) == ([(-2, 1), (0, 2), (3, 1)], 2)


def test_rational_roots_reconstructs_products():
    rng = random.Random(5)
    for _ in range(30):
        chosen = sorted(rng.sample(range(-5, 6), rng.randint(1, 4)))
        mults = [rng.randint(1, 3) for _ in chosen]
        flat = [r for r, m in zip(chosen, mults) for _ in range(m)]
        assert roots_of(poly_from_linear_factors(flat)) == (
            list(zip(chosen, mults)), 0)


def test_rational_eigenvalues_unscales():
    m = ExactMatrix.from_rows([["1/2", 0], [0, "1/3"]])
    roots, remainder = rational_eigenvalues(m)
    assert roots == [(Fraction(1, 3), 1), (Fraction(1, 2), 1)]
    assert remainder == 0
    roots, remainder = rational_eigenvalues(
        ExactMatrix.from_rows([[0, 1], [2, 0]]))
    assert roots == [] and remainder == 2


def test_json_round_trip():
    m = ExactMatrix.from_rows([[1, "1/2"], ["-3/4", 0]])
    d = {"rows": 2, "cols": 2, "entries": [[1, "1/2"], ["-3/4", 0]]}
    assert matrix_from_json_dict(d) == m
    d = {"rows": 1, "cols": 3, "entries": [["-7", "4/6", "0/5"]]}
    assert matrix_from_json_dict(d) == ExactMatrix.from_rows([[-7, "2/3", 0]])


def test_json_validation():
    good = {"rows": 1, "cols": 1, "entries": [[1]]}
    assert matrix_from_json_dict(good) == ExactMatrix.from_rows([[1]])
    bad_cases = [
        [],
        {},
        {"rows": 1, "cols": 1},
        {"rows": 0, "cols": 1, "entries": []},
        {"rows": 1, "cols": 1, "entries": [1]},
        {"rows": 2, "cols": 2, "entries": [[1, 2], [3]]},
        {"rows": 1, "cols": 1, "entries": [[0.5]]},
        {"rows": 1, "cols": 1, "entries": [[True]]},
        {"rows": 1, "cols": 1, "entries": [["1/0"]]},
        {"rows": 1, "cols": 1, "entries": [["abc"]]},
        {"rows": 1, "cols": 1, "entries": [[None]]},
    ]
    # entry strings are integers or "p/q" in ASCII digits only; Fraction
    # alone would read decimals and exponents, strip padding and take
    # non-ASCII digits
    for text in ("2.5", "2.5e1", "1e2000", "1E3", " 1", "1 ", "1\n", "+1",
                 "1/ 2", "1 /2", "1/-2", "-1/-2", "1_000", "\u0661\u0662",
                 "\uff11", "\u00b2", "inf", "nan", "", "-", "/2", "1/"):
        bad_cases.append({"rows": 1, "cols": 1, "entries": [[text]]})
    for bad in bad_cases:
        with pytest.raises(ValueError):
            matrix_from_json_dict(bad)

