"""Rank patterns from one recorded elimination and a kernel ladder, against
the powers of N = b - mu*I, Gaussian elimination over Fraction and the
closed form of a Jordan structure."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from segrekit import (ExactMatrix, InternalInconsistencyError, JordanSpec,
                      Partition, SegreCharacteristic, build_jordan, jordan,
                      linalg, rank_pattern_from_blocks, rank_pattern_of)

from oracles import fraction_rank_pattern, rank_pattern_by_powers

BIG = 10 ** 18


def conjugate(rows, ops):
    """rows conjugated by the elementary matrices I + c*e_ij, one per
    (i, j, c) in ops: row i += c*row j, then column j -= c*column i."""
    rows = [list(row) for row in rows]
    for i, j, c in ops:
        if i != j:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            for row in rows:
                row[j] -= c * row[i]
    return rows


def jordan_rows(groups, eigenvalues):
    spec = JordanSpec(SegreCharacteristic(groups), eigenvalues)
    return [[int(e) for e in row] for row in build_jordan(spec).to_rows()]


@st.composite
def integer_matrices(draw):
    """n <= 8 integer matrices with entries up to 10**18 in size: dense ones
    (mu in -3..3 is then mostly not an eigenvalue), upper triangular ones
    with a diagonal in -3..3 under huge entries, and Jordan matrices with
    eigenvalues in -3..3 conjugated by multipliers up to 10**9."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["dense", "triangular", "jordan"]))
    if kind == "dense":
        entry = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))
        return draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                             min_size=n, max_size=n))
    if kind == "triangular":
        diag = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        above = st.one_of(st.just(0), st.integers(-BIG, BIG))
        return [[diag[i] if i == j else draw(above) if j > i else 0
                 for j in range(n)] for i in range(n)]
    sizes, rest = [], n
    while rest:
        sizes.append(draw(st.integers(1, rest)))
        rest -= sizes[-1]
    eigenvalues = draw(st.lists(st.integers(-3, 3), min_size=len(sizes),
                                max_size=len(sizes)))
    rows = [[0] * n for _ in range(n)]
    at = 0
    for size, lam in zip(sizes, eigenvalues):
        for r in range(at, at + size):
            rows[r][r] = lam
            if r + 1 < at + size:
                rows[r][r + 1] = 1
        at += size
    c = st.one_of(st.integers(-2, 2), st.integers(-10 ** 9, 10 ** 9))
    ops = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                  c), max_size=2 * n))
    return conjugate(rows, ops)


def truncated(ranks, n, m):
    """The prefix of a stabilized pattern that stops at nullity m."""
    out = [ranks[0]]
    for r in ranks[1:]:
        out.append(r)
        if n - r >= m:
            break
    return out


@settings(max_examples=150, deadline=None)
@given(integer_matrices())
def test_ladder_matches_powers_and_fractions(b):
    n = len(b)
    for mu in range(-3, 4):
        full = list(fraction_rank_pattern(b, mu))
        for m in range(1, n + 1):
            got = jordan._rank_pattern(b, mu, m)
            assert got == rank_pattern_by_powers(b, mu, m), (mu, m)
            assert got == truncated(full, n, m), (mu, m)


@st.composite
def long_block_matrices(draw):
    """A block of size 20..28 for one eigenvalue, up to two more groups,
    n <= 36, conjugated by small multipliers."""
    long = draw(st.integers(20, 28))
    first = [long] + draw(st.lists(st.integers(1, 3), max_size=2))
    others = draw(st.lists(st.lists(st.integers(1, 3), min_size=1,
                                    max_size=2), max_size=2))
    groups = [sorted(g, reverse=True) for g in [first] + others]
    eigenvalues = draw(st.lists(st.integers(-4, 4), min_size=len(groups),
                                max_size=len(groups), unique=True))
    rows = jordan_rows(groups, eigenvalues)
    n = len(rows)
    ops = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                  st.sampled_from([-2, -1, 1, 2])),
                        min_size=n, max_size=2 * n))
    return conjugate(rows, ops), groups, eigenvalues


@settings(max_examples=12, deadline=None)
@given(long_block_matrices())
def test_long_blocks_match_closed_form(case):
    rows, groups, eigenvalues = case
    n = len(rows)
    for group, lam in zip(groups, eigenvalues):
        expected = list(rank_pattern_from_blocks(Partition(group), n).ranks)
        assert jordan._rank_pattern(rows, lam, n) == expected
        assert jordan._rank_pattern(rows, lam, sum(group)) == expected
    assert jordan._rank_pattern(rows, 9, n) == [n]


def test_wide_eigenvalue():
    # 16 blocks of size 2 and one of size 1 for eigenvalue 1, J_4(-1) beside
    groups = [[2] * 16 + [1], [4]]
    rows = conjugate(jordan_rows(groups, [1, -1]),
                     [(k, (7 * k + 3) % 37, (-1) ** k) for k in range(37)])
    assert len(rows) == 37
    for group, lam in zip(groups, [1, -1]):
        expected = list(rank_pattern_from_blocks(Partition(group), 37).ranks)
        for m in (sum(group), 37):
            assert jordan._rank_pattern(rows, lam, m) == expected
            assert rank_pattern_by_powers(rows, lam, m) == expected
    a = ExactMatrix.from_rows(rows)
    assert rank_pattern_of(a, 1).ranks == (37, 20, 4)


@pytest.mark.parametrize("blocks", [[2] * 10 + [1] * 8,
                                    [3] * 4 + [2] * 6 + [1] * 8])
def test_many_blocks_under_dense_conjugation(blocks, monkeypatch):
    # 18 blocks for eigenvalue 0 and 10*n random elementary operations:
    # without content removal in the residual reduction, the reduced rows
    # grow by a factor per stored row
    tops = []
    preimage = jordan._preimage
    monkeypatch.setattr(jordan, "_preimage", lambda steps, n, top:
                        tops.append(top) or preimage(steps, n, top))
    rows = jordan_rows([blocks], [0])
    n = len(rows)
    rng = random.Random(n)
    rows = conjugate(rows, [(rng.randrange(n), rng.randrange(n),
                             rng.choice([-1, 1])) for _ in range(10 * n)])
    expected = list(rank_pattern_from_blocks(Partition(blocks), n).ranks)
    assert jordan._rank_pattern(rows, 0, n) == expected
    assert jordan._rank_pattern(rows, 0, len(blocks) + 1) == expected[:3]
    # the tops sent to back-substitution (none when the last level is 2)
    # stay below the size of the minors of N^s, s the largest block, which
    # the power loop formed
    b = max(abs(x).bit_length() for row in rows for x in row)
    bound = n * blocks[0] * (b + n.bit_length())
    assert all(abs(x).bit_length() < bound for top in tops for x in top)


def test_growing_increment_is_an_internal_error(monkeypatch):
    # a kernel basis that lists each vector twice makes level 1 yield two
    # preimages where ker N has one direction: q would grow from 1 to 2,
    # which blocks_from_rank_pattern would reject as bad input
    kernel = jordan._kernel
    monkeypatch.setattr(jordan, "_kernel",
                        lambda steps, n: kernel(steps, n) * 2)
    a = build_jordan(JordanSpec(SegreCharacteristic([[3]]), [0]))
    with pytest.raises(InternalInconsistencyError, match="grew from 1 to 2"):
        rank_pattern_of(a, 0)


def test_replay_checks_its_divisions():
    steps = linalg._eliminate([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
    assert linalg._replay(steps, [0, 0, 1]) == [0, 0, 3]
    with pytest.raises(InternalInconsistencyError):
        linalg._replay(steps, [0, 0, Fraction(1, 2)])
