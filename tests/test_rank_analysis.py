import pytest
from hypothesis import given, strategies as st

from segrekit import (NonMonotoneGrowthError, Partition, RankPattern,
                      blocks_from_rank_pattern, enumerate_partitions,
                      nullity_growth, rank_pattern_from_blocks)

from oracles import min_formula_ranks


def test_worked_example_pipeline():
    rp = RankPattern(10, (10, 7, 5, 3, 2, 1, 0))
    assert nullity_growth(rp) == (3, 2, 2, 1, 1, 1)
    assert blocks_from_rank_pattern(rp) == Partition([6, 3, 1])


def test_single_block():
    rp = RankPattern(1, (1, 0))
    assert nullity_growth(rp) == (1,)
    assert blocks_from_rank_pattern(rp) == Partition([1])
    for k in range(2, 7):
        rp = RankPattern(k, tuple(range(k, -1, -1)))
        assert blocks_from_rank_pattern(rp) == Partition([k])


def test_stabilized_tail_is_truncated():
    rp = RankPattern(10, (10, 8, 7, 7))
    assert rp.ranks == (10, 8, 7)
    assert rp.stabilization_index == 2
    assert rp.stable_rank == 7
    assert rp.multiplicity == 3
    assert nullity_growth(rp) == (2, 1)
    assert RankPattern(10, (10, 8, 7, 7, 7)).ranks == (10, 8, 7)


def test_non_eigenvalue_pattern():
    rp = RankPattern(10, (10,))
    assert rp.stabilization_index == 0
    assert rp.multiplicity == 0
    assert nullity_growth(rp) == ()
    assert blocks_from_rank_pattern(rp) == Partition()


def test_two_unit_blocks():
    assert blocks_from_rank_pattern(RankPattern(10, (10, 8))) == Partition([1, 1])


def test_construction_errors():
    with pytest.raises(ValueError):
        RankPattern(10, ())
    with pytest.raises(ValueError):
        RankPattern(10, (9, 8))  # r_0 != n
    with pytest.raises(ValueError):
        RankPattern(10, (10, 11))  # rank above n
    with pytest.raises(ValueError):
        RankPattern(10, (10, 8, 9))  # increasing
    with pytest.raises(ValueError):
        RankPattern(10, (10, 8, -1))
    with pytest.raises(ValueError):
        RankPattern(10, (10, 8, 8, 6))  # changes after stabilizing
    with pytest.raises(ValueError):
        RankPattern(0, (0,))


def test_non_monotone_growth_rejected():
    rp = RankPattern(5, (5, 3, 2, 0))
    with pytest.raises(NonMonotoneGrowthError) as err:
        nullity_growth(rp)
    assert err.value.growth == (2, 1, 2)
    with pytest.raises(NonMonotoneGrowthError):
        blocks_from_rank_pattern(rp)


def test_pattern_from_blocks_golden():
    assert rank_pattern_from_blocks(Partition([6, 3, 1]), 10).ranks == \
        (10, 7, 5, 3, 2, 1, 0)
    assert rank_pattern_from_blocks(Partition([2, 1]), 10).ranks == (10, 8, 7)
    assert rank_pattern_from_blocks(Partition([1]), 1).ranks == (1, 0)
    assert rank_pattern_from_blocks(Partition(), 5).ranks == (5,)


def test_pattern_from_blocks_matches_oracle():
    for w in range(0, 9):
        for p in enumerate_partitions(w):
            for n in (w, w + 1, w + 4):
                if n == 0:
                    continue
                got = rank_pattern_from_blocks(p, n)
                assert got.ranks == min_formula_ranks(p.parts, n), (p, n)


def test_pattern_from_blocks_rejects_overflow():
    with pytest.raises(ValueError):
        rank_pattern_from_blocks(Partition([4, 2]), 5)


def test_round_trip_blocks_pattern_blocks():
    for w in range(0, 10):
        for p in enumerate_partitions(w):
            for n in (max(w, 1), w + 3):
                rp = rank_pattern_from_blocks(p, n)
                assert blocks_from_rank_pattern(rp) == p, (p, n)


def test_round_trip_pattern_blocks_pattern():
    # every valid pattern comes from some block multiset, so generate
    # patterns through partitions and check the reverse direction
    for w in range(1, 10):
        for p in enumerate_partitions(w):
            rp = rank_pattern_from_blocks(p, w + 2)
            again = rank_pattern_from_blocks(blocks_from_rank_pattern(rp), w + 2)
            assert again == rp


def test_growth_shape_facts():
    # q_1 counts all blocks; the growth has max(blocks) entries
    for parts in ((3, 1), (2, 2, 1), (5,), (1, 1, 1)):
        p = Partition(parts)
        rp = rank_pattern_from_blocks(p, p.weight + 2)
        growth = nullity_growth(rp)
        assert growth[0] == len(p)
        assert len(growth) == p.parts[0]


@given(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=6),
       st.integers(min_value=0, max_value=5))
def test_round_trip_random(parts, slack):
    p = Partition(parts)
    rp = rank_pattern_from_blocks(p, p.weight + slack)
    assert blocks_from_rank_pattern(rp) == p
    assert rp.multiplicity == p.weight


def test_text_forms():
    rp = RankPattern(10, (10, 7, 5, 3, 2, 1, 0))
    assert str(rp) == "n=10: 10,7,5,3,2,1,0"
    assert RankPattern.parse("n=10: 10,7,5,3,2,1,0") == rp
    assert RankPattern.parse(" n = 3 : 3 , 1 , 0 ") == RankPattern(3, (3, 1, 0))


def test_parse_rejects_malformed():
    for bad in ("", "10,7,5", "n=10 10,7", "n=x: 3,1", "n=3: ", "n=3: 3,a",
                "n=\u0663: \u0663,\u0660"):
        with pytest.raises(ValueError):
            RankPattern.parse(bad)


def test_equality_and_str_round_trip():
    rp = RankPattern(4, (4, 2, 1, 0))
    assert RankPattern.parse(str(rp)) == rp
    assert rp != RankPattern(4, (4, 2, 1))
