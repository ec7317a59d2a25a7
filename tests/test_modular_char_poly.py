"""The characteristic polynomial by Hessenberg reduction modulo primes and
the Chinese remainder theorem, against the Faddeev-LeVerrier recurrence
and determinant interpolation, and the prime source it draws from."""

import sys
import threading

from hypothesis import given, settings, strategies as st

from segrekit import (ExactMatrix, JordanSpec, SegreCharacteristic,
                      build_jordan, char_poly)
from segrekit import linalg

from oracles import (char_poly_by_interpolation, faddeev_leverrier_char_poly,
                     is_prime_by_trial_division, poly_from_linear_factors,
                     poly_mul)

P0, P1 = 2 ** 62 - 57, 2 ** 62 - 87


def square(entries, max_n=10):
    return st.integers(1, max_n).flatmap(lambda n: st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


def check(b):
    got = list(char_poly(ExactMatrix.from_rows(b)).coefficients)
    assert got == faddeev_leverrier_char_poly(b)
    assert got == char_poly_by_interpolation(b)
    return got


@settings(max_examples=40, deadline=None)
@given(square(st.integers(-10 ** 18, 10 ** 18)))
def test_large_entries_match_oracles(b):
    # entries near 10**18 put the coefficient bound at many primes' product
    check(b)


@st.composite
def conjugated_jordan(draw):
    """An integer Jordan matrix of size <= 10, conjugated by elementary
    operations (row i += c*row j, then column j -= c*column i), with the
    expected characteristic polynomial from its eigenvalues."""
    groups = draw(st.lists(
        st.lists(st.integers(1, 4), min_size=1, max_size=3).map(
            lambda g: sorted(g, reverse=True)),
        min_size=1, max_size=3).filter(lambda gs: sum(map(sum, gs)) <= 10))
    eigenvalues = draw(st.lists(st.integers(-9, 9), min_size=len(groups),
                                max_size=len(groups), unique=True))
    spec = JordanSpec(SegreCharacteristic(groups), eigenvalues)
    rows = [[int(x) for x in row] for row in build_jordan(spec).to_rows()]
    n = len(rows)
    ops = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                  st.integers(-3, 3)), max_size=3 * n))
    for i, j, c in ops:
        if i != j:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            for row in rows:
                row[j] -= c * row[i]
    expected = [1]
    for lam, group in zip(eigenvalues, groups):
        expected = poly_mul(expected, poly_from_linear_factors([lam] * sum(group)))
    return rows, expected


@settings(max_examples=60, deadline=None)
@given(conjugated_jordan())
def test_conjugated_jordan_matrices_match_oracles(case):
    rows, expected = case
    assert check(rows) == expected


@st.composite
def block_triangular(draw):
    """A block upper triangular integer matrix, sparse inside its blocks:
    the last column of each diagonal block stays zero from the subdiagonal
    down throughout the reduction, so the Hessenberg step skips it, and a
    zero subdiagonal entry above a nonzero one forces a row/column swap."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(
        lambda s: sum(s) <= 10))
    n = sum(sizes)
    block = [k for k, size in enumerate(sizes) for _ in range(size)]
    entry = st.one_of(st.just(0), st.integers(-5, 5))
    return [[draw(entry) if block[i] <= block[j] else 0 for j in range(n)]
            for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(block_triangular())
def test_block_triangular_matrices_match_oracles(b):
    check(b)


@settings(max_examples=40, deadline=None)
@given(square(st.sampled_from([0, 1, -2, P0, -P0, 2 * P0, P0 * P1]), max_n=6))
def test_entries_that_vanish_mod_the_first_primes(b):
    # mod P0 most pivots vanish while the integer entries do not
    check(b)


def test_hessenberg_pivot_swap_and_skip():
    # column 0 is zero on the subdiagonal and nonzero below it (a swap);
    # column 2 ends the upper-left 3x3 block, so it is zero from the
    # subdiagonal down (a skip)
    b = [[1, 2, 3, 4, 5], [0, 5, 6, 7, 8], [8, 0, 9, 1, 2],
         [0, 0, 0, 2, 3], [0, 0, 0, 4, 1]]
    expected = check(b)
    assert linalg._char_poly_mod(b, 7) == [c % 7 for c in expected]


def test_first_primes_below_2_to_62():
    assert [2 ** 62 - linalg._prime(i) for i in range(10)] == [
        57, 87, 117, 143, 153, 167, 171, 195, 203, 273]


def test_miller_rabin_matches_trial_division():
    assert [n for n in range(10 ** 5) if linalg._is_prime(n)] == [
        n for n in range(10 ** 5) if is_prime_by_trial_division(n)]


def test_miller_rabin_rejects_a_strong_pseudoprime():
    # a strong pseudoprime to every prime base up to 23
    n = 3825123056546413051
    assert n == 149491 * 747451 * 34233211
    assert not linalg._is_prime(n)


def test_prime_list_extends_the_same_under_threads(monkeypatch):
    written_out = list(linalg._PRIMES)
    monkeypatch.setattr(linalg, "_PRIMES", [])
    single = [linalg._prime(i) for i in range(40)]
    assert single[:len(written_out)] == written_out
    monkeypatch.setattr(linalg, "_PRIMES", [])
    seen = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: seen.append(
            [linalg._prime(i) for i in range(39, -1, -1)][::-1]))
            for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert seen == [single] * 4
    assert linalg._PRIMES == single
