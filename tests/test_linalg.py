import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from segrekit import (ExactMatrix, JordanSpec, PolynomialZ,
                      SegreCharacteristic, build_jordan, char_poly, mat_mul,
                      matrix_from_json_dict, rank, rational_eigenvalues, shift)
from segrekit import linalg
from segrekit.linalg import _rational_roots

from oracles import (FractionMatrix, gaussian_rank, poly_from_linear_factors,
                     poly_mul)


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
    assert a != [[1, 2], [3, 4]] and a.__eq__([[1, 2], [3, 4]]) is NotImplemented


def test_sums_need_two_matrices_of_one_shape():
    a = ExactMatrix.from_rows([[1, 2], [3, 4]])
    for use in (lambda: a + 1, lambda: 1 + a, lambda: a - 1, lambda: 1 - a,
                lambda: a * None, lambda: a * 1.5, lambda: None * a):
        with pytest.raises(TypeError):
            use()
    wide = ExactMatrix.from_rows([[1, 2, 3, 4]])
    with pytest.raises(ValueError, match="^shape mismatch in addition$"):
        a + wide
    with pytest.raises(ValueError, match="^shape mismatch in subtraction$"):
        a - wide


def test_a_bool_is_never_a_number():
    a = ExactMatrix.identity(2)
    for use in (lambda: a * True, lambda: True * a, lambda: a * False,
                lambda: shift(a, True),
                lambda: ExactMatrix.from_rows([[True]])):
        with pytest.raises(TypeError, match="entries must be numbers, got"):
            use()


def test_a_string_scalar_follows_the_entry_grammar():
    a = ExactMatrix.identity(2)
    half = ExactMatrix.from_rows([["1/2", 0], [0, "1/2"]])
    assert a * "1/2" == "1/2" * a == half == a - shift(a, "1/2")
    for text in ("2.5", "1e3", " 1", "+1", "1/-2", "", "x"):
        for use in (lambda: a * text, lambda: text * a,
                    lambda: shift(a, text)):
            with pytest.raises(ValueError, match="entry strings must be"):
                use()
    for use in (lambda: a * "1/0", lambda: "1/0" * a,
                lambda: shift(a, "1/0")):
        with pytest.raises(ZeroDivisionError):
            use()


def test_mat_mul_needs_two_matrices():
    a = ExactMatrix.identity(2)
    for args in ((a, 5), (5, a), (a, [[1, 0], [0, 1]]), (a, Fraction(1, 2))):
        with pytest.raises(TypeError, match="mat_mul needs two ExactMatrix"):
            mat_mul(*args)


# small entries in the three accepted forms, so that sums, differences and
# products often cancel a denominator or vanish
numbers = st.builds(Fraction, st.integers(-4, 4),
                    st.sampled_from([1, 2, 3, 4, 6]))
entries = st.one_of(st.integers(-4, 4), numbers,
                    numbers.map(lambda f: f"{f.numerator}/{f.denominator}"))


def matrices(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def operands(draw):
    r, k, c = (draw(st.integers(1, 3)) for _ in range(3))
    return (draw(matrices(r, k)), draw(matrices(r, k)), draw(matrices(k, c)),
            draw(matrices(r, r)), draw(entries), draw(entries))


def assert_same(got, want):
    """got, an ExactMatrix, reads back exactly as the oracle's `want`."""
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert got.to_rows() == want.to_rows()
    assert [got.row(i) for i in range(got.rows)] == [
        want.row(i) for i in range(want.rows)]
    for i in range(got.rows):
        for j in range(got.cols):
            e = got.entry(i, j)
            assert type(e) is Fraction and e == want.entry(i, j) == got[i, j]
    assert repr(got) == repr(want)


@settings(max_examples=300, deadline=None)
@given(operands())
@example(([[0, 0]], [[0, 0]], [[0], [0]], [[0]], 0, 0))
@example(([["1/2", "-1/6"]], [["1/2", Fraction(1, 6)]], [["2/3"], [6]],
          [["1/3"]], Fraction(3, 2), "1/3"))
@example(([["1/2", 3]], [[0, "-2/3"]], [[1], ["1/6"]], [[2]], "-3/2", 0))
def test_integer_storage_matches_fraction_entries(ops):
    a_rows, b_rows, c_rows, s_rows, scalar, lam = ops
    a, b, c, s = (ExactMatrix.from_rows(x)
                  for x in (a_rows, b_rows, c_rows, s_rows))
    oa, ob, oc, os_ = (FractionMatrix.from_rows(x)
                       for x in (a_rows, b_rows, c_rows, s_rows))
    results = [
        (a, oa),
        (a + b, oa + ob),
        (a - b, oa - ob),
        (b - a, ob - oa),
        (a * scalar, oa.scaled(Fraction(scalar))),
        (scalar * a, oa.scaled(Fraction(scalar))),
        (mat_mul(a, c), oa.mat_mul(oc)),
        (a * c, oa.mat_mul(oc)),
        (shift(s, lam), os_.shift(lam)),
        (ExactMatrix.zeros(a.rows, a.cols), oa - oa),
        (a - a, oa - oa),
        ((a + b) - b, oa),
    ]
    for got, want in results:
        assert_same(got, want)
        # built again from the entries it reads back, it is the same matrix
        again = ExactMatrix.from_rows(want.to_rows())
        assert got == again and hash(got) == hash(again)
    for (x, ox), (y, oy) in itertools.combinations(results, 2):
        assert (x == y) == (ox == oy)
        if x == y:
            assert hash(x) == hash(y)


def test_arithmetic_creates_no_fraction(monkeypatch):
    # the stored form is d*A in ints: only reading an entry makes a Fraction
    a = ExactMatrix.from_rows([[1, "1/2", 0], ["2/3", 4, 5], [0, 0, "7/9"]])
    b = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    half = Fraction(1, 2)
    spec = JordanSpec([[2, 1], [3]], [half, -3])
    made = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kwargs:
                        made.append(args) or new(cls, *args, **kwargs))
    for op in (lambda: a + b, lambda: a - b, lambda: a * 3, lambda: half * a,
               lambda: mat_mul(a, b), lambda: shift(a, 2),
               lambda: shift(a, half), lambda: ExactMatrix.identity(4),
               lambda: ExactMatrix.zeros(2, 3), lambda: build_jordan(spec),
               lambda: rank(a), lambda: char_poly(a),
               lambda: ExactMatrix.from_rows([[1, -2], [3, 4]])):
        op()
    assert made == []
    assert a.entry(0, 1) == half
    assert len(made) == 1


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
    assert PolynomialZ([2, -3, 1]) != (2, -3, 1)
    assert PolynomialZ([5]).__eq__(5) is NotImplemented
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
    with pytest.raises(ValueError, match="requires a square matrix"):
        rational_eigenvalues(ExactMatrix.from_rows([[1, 2]]))


def test_json_round_trip():
    m = ExactMatrix.from_rows([[1, "1/2"], ["-3/4", 0]])
    d = {"rows": 2, "cols": 2, "entries": [[1, "1/2"], ["-3/4", 0]]}
    assert matrix_from_json_dict(d) == m
    d = {"rows": 1, "cols": 3, "entries": [["-7", "4/6", "0/5"]]}
    assert matrix_from_json_dict(d) == ExactMatrix.from_rows([[-7, "2/3", 0]])


def test_json_entries_are_read_once(monkeypatch):
    calls = []
    ratio = linalg._ratio
    monkeypatch.setattr(linalg, "_ratio",
                        lambda value: calls.append(value) or ratio(value))
    d = {"rows": 2, "cols": 2, "entries": [["1/2", 3], [0, "-4/6"]]}
    m = matrix_from_json_dict(d)
    assert len(calls) == 4
    assert m.to_rows() == [[Fraction(1, 2), 3], [0, Fraction(-2, 3)]]


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


def test_overlong_entry_strings_are_one_short_error():
    # in the grammar, but with more digits than int() reads
    a = ExactMatrix.identity(2)
    for text in ("7" * 5000 + "/3", "-3/" + "7" * 5000, "7" * 5000):
        for use in (lambda: ExactMatrix.from_rows([[text]]),
                    lambda: shift(a, text), lambda: a * text,
                    lambda: text * a,
                    lambda: JordanSpec(SegreCharacteristic([[1]]), [text])):
            with pytest.raises(ValueError) as exc_info:
                use()
            assert str(exc_info.value) == "entry string too long to read"
        with pytest.raises(ValueError) as exc_info:
            matrix_from_json_dict({"rows": 1, "cols": 2,
                                   "entries": [[0, text]]})
        assert str(exc_info.value) == (
            "entry (0, 1) is too long to read: '" + text[:39] + "...")
    # a short invalid entry is echoed whole, a long one only in part
    for entry, message in [
            ("1/0", "entry (0, 0) is not a valid fraction: '1/0'"),
            ("x" * 5000, "entry (0, 0) is not a valid fraction: '"
             + "x" * 39 + "..."),
            ([7] * 5000, "entry (0, 0) must be an integer or 'p/q' string, "
             "got [" + "7, " * 13 + "..."),
    ]:
        with pytest.raises(ValueError) as exc_info:
            matrix_from_json_dict({"rows": 1, "cols": 1,
                                   "entries": [[entry]]})
        assert str(exc_info.value) == message


def test_long_values_are_quoted_in_part():
    # a string outside the grammar, an index past the digit limit
    for use in (lambda: ExactMatrix.from_rows([["7" * 5000 + "x"]]),
                lambda: JordanSpec(SegreCharacteristic([[1]]),
                                   ["7" * 5000 + ".5"])):
        with pytest.raises(ValueError) as exc_info:
            use()
        message = str(exc_info.value)
        assert message.startswith("entry strings must be an integer or 'p/q'")
        assert len(message) < 200
    a = ExactMatrix.identity(2)
    for use, message in [
            (lambda: a.entry(10 ** 5000, 0),
             "(<positive int of 16610 bits>, 0) outside 2x2"),
            (lambda: a[0, -10 ** 5000],
             "(0, <negative int of 16610 bits>) outside 2x2"),
            (lambda: a.row(10 ** 5000),
             "row <positive int of 16610 bits> outside 2x2")]:
        with pytest.raises(IndexError) as exc_info:
            use()
        assert str(exc_info.value) == message
