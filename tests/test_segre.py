import math

import pytest
from hypothesis import given, strategies as st

from segrekit import (Partition, SegreCharacteristic, SegreParseError,
                      count_segre_gf, count_segre_sum, enumerate_segre,
                      format_segre, iter_partition_tuples, iter_segre,
                      parse_segre, partition_count)

from oracles import (brute_force_segre_multisets, canonical_groups,
                     multipartitions, segre_by_dedup_and_sort)

# weights 0..11 of the counting sequence, frozen after verifying that the
# generating function, the corrected partition sum, and brute-force multiset
# enumeration all agree on them
SEQUENCE = [1, 1, 3, 6, 14, 27, 58, 111, 223, 424, 817, 1527]

# expected enumerate_segre(4), in order
N4_EXPECTED = [
    "[(4)]",
    "[(3,1)]",
    "[(3),(1)]",
    "[(2,2)]",
    "[(2),(2)]",
    "[(2,1,1)]",
    "[(2,1),(1)]",
    "[(2),(1,1)]",
    "[(2),(1),(1)]",
    "[(1,1,1,1)]",
    "[(1,1,1),(1)]",
    "[(1,1),(1,1)]",
    "[(1,1),(1),(1)]",
    "[(1),(1),(1),(1)]",
]


def test_counting_sequence_both_methods():
    assert [count_segre_gf(n) for n in range(12)] == SEQUENCE
    assert [count_segre_sum(n) for n in range(12)] == SEQUENCE


def test_count_examples():
    assert count_segre_gf(0) == 1
    assert count_segre_gf(4) == 14
    assert count_segre_gf(11) == 1527
    assert count_segre_sum(2) == 3
    assert count_segre_sum(5) == 27
    assert count_segre_sum(0) == 1


def test_count_rejects_negative():
    with pytest.raises(ValueError):
        count_segre_gf(-1)
    with pytest.raises(ValueError):
        count_segre_sum(-3)


def test_counts_match_brute_force_multisets():
    for n in range(1, 10):
        expected = len(brute_force_segre_multisets(n))
        assert count_segre_gf(n) == expected, n
        assert count_segre_sum(n) == expected, n


def test_sum_method_matches_direct_summation():
    # the same multiset-coefficient sum, evaluated term by term over an
    # explicit enumeration of the outer partitions instead of grouped by
    # part value
    def direct(n):
        total = 0
        for lam in iter_partition_tuples(n):
            prod = 1
            for v in set(lam):
                t = lam.count(v)
                prod *= math.comb(partition_count(v) + t - 1, t)
            total += prod
        return total

    for n in range(31):
        assert count_segre_sum(n) == direct(n), n


def test_gf_agrees_with_sum_medium_range():
    for n in range(201):
        assert count_segre_gf(n) == count_segre_sum(n), n


# the multipartition tests pin the reference enumeration in oracles.py that
# iter_segre is checked against

def test_multipartitions_golden():
    assert multipartitions((2, 1)) == [((2,), (1,)), ((1, 1), (1,))]
    assert len(multipartitions((1,))) == 1
    assert len(multipartitions((3, 2))) == 6


def test_multipartitions_keeps_duplicates():
    got = multipartitions((2, 2))
    assert len(got) == 4  # p(2)^2 ordered tuples
    # ([2],[1,1]) and ([1,1],[2]) coincide
    assert len({canonical_groups(m) for m in got}) == 3


def test_multipartitions_length_is_product():
    for outer in ((4,), (2, 2, 1), (3, 3)):
        expected = math.prod(partition_count(a) for a in outer)
        assert len(multipartitions(outer)) == expected


def test_iter_segre_matches_dedup_and_sort_reference():
    assert [format_segre(SegreCharacteristic(groups))
            for groups in segre_by_dedup_and_sort(4)] == N4_EXPECTED
    for n in range(1, 13):
        got = [tuple(g.parts for g in s.groups) for s in iter_segre(n)]
        assert got == segre_by_dedup_and_sort(n), n


def test_iter_segre_is_lazy():
    items = iter_segre(30)
    assert [format_segre(next(items)) for _ in range(3)] == [
        "[(30)]", "[(29,1)]", "[(29),(1)]"]


def test_iter_segre_rejects_bad_n():
    for bad in (0, -1, True, 2.0):
        with pytest.raises(ValueError):
            next(iter_segre(bad))


def test_enumerate_golden_n4():
    assert [format_segre(s) for s in enumerate_segre(4)] == N4_EXPECTED


def test_enumerate_small():
    assert [format_segre(s) for s in enumerate_segre(1)] == ["[(1)]"]
    assert len(enumerate_segre(6)) == 58


def test_enumerate_lengths_match_counts():
    for n in range(1, 13):
        assert len(enumerate_segre(n)) == count_segre_gf(n), n


def test_enumerate_matches_brute_force_sets():
    for n in range(1, 13):
        got = [canonical_groups(g.parts for g in s.groups)
               for s in enumerate_segre(n)]
        assert len(set(got)) == len(got), n
        assert set(got) == brute_force_segre_multisets(n), n


def test_enumerate_all_canonical_and_distinct():
    items = enumerate_segre(7)
    assert all(s.groups == s.canonical().groups for s in items)
    assert len(set(items)) == len(items)
    assert all(s.total_weight == 7 for s in items)


def test_enumerate_groups_by_flattened_partition():
    runs = []
    for s in enumerate_segre(4):
        flat = Partition(b for g in s.groups for b in g.parts).parts
        if not runs or runs[-1][0] != flat:
            runs.append([flat, 0])
        runs[-1][1] += 1
    assert [tuple(r[0]) for r in runs] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [r[1] for r in runs] == [1, 2, 2, 4, 5]


def test_enumerate_rejects_bad_n():
    with pytest.raises(ValueError):
        enumerate_segre(0)
    with pytest.raises(ValueError):
        enumerate_segre(-2)


def test_group_order_preserved_but_equality_canonical():
    s = SegreCharacteristic([[2, 1], [3], [1], [2, 1]])
    assert [g.parts for g in s.groups] == [(2, 1), (3,), (1,), (2, 1)]
    c = s.canonical()
    assert [g.parts for g in c.groups] == [(3,), (2, 1), (2, 1), (1,)]
    assert s.groups != c.groups
    assert c.canonical().groups == c.groups
    assert s == c
    assert hash(s) == hash(c)
    assert SegreCharacteristic([[1], [2]]) == SegreCharacteristic([[2], [1]])


partitions_of_parts_1_to_5 = st.lists(
    st.integers(min_value=1, max_value=5), min_size=1, max_size=5
).map(lambda parts: sorted(parts, reverse=True))


@given(st.lists(partitions_of_parts_1_to_5, min_size=1, max_size=6),
       st.randoms())
def test_canonical_order_matches_the_negated_key_reference(gs, rng):
    s = SegreCharacteristic(gs)
    canonical = tuple(g.parts for g in s.canonical().groups)
    assert canonical == canonical_groups(gs)
    shuffled = gs[:]
    rng.shuffle(shuffled)
    t = SegreCharacteristic(shuffled)
    assert t == s
    assert hash(t) == hash(s)


def test_characteristic_validation():
    with pytest.raises(ValueError):
        SegreCharacteristic([])
    with pytest.raises(ValueError):
        SegreCharacteristic([[]])
    with pytest.raises(ValueError):
        SegreCharacteristic([[0]])


def test_total_weight_and_flattened():
    s = SegreCharacteristic([[2, 1], [3]])
    assert s.total_weight == 6


def test_format_golden():
    s = SegreCharacteristic([[2, 1], [3], [1], [2, 1]])
    assert format_segre(s) == "[(2,1),(3),(1),(2,1)]"
    assert str(SegreCharacteristic([[1]])) == "[(1)]"


def test_parse_accepts_bare_singletons():
    # mixed notation: singleton groups written without parentheses
    s = parse_segre("[(2,1),3,1,(2,1)]")
    assert [g.parts for g in s.groups] == [(2, 1), (3,), (1,), (2, 1)]
    assert s == SegreCharacteristic([[2, 1], [3], [1], [2, 1]])


def test_parse_ignores_whitespace():
    assert parse_segre(" [ (2, 1) , (3) ] ") == SegreCharacteristic([[2, 1], [3]])


def test_parse_format_round_trip_enumerations():
    for n in range(1, 9):
        for s in enumerate_segre(n):
            back = parse_segre(format_segre(s))
            assert back == s
            assert [g.parts for g in back.groups] == [g.parts for g in s.groups]


def test_parse_errors_carry_positions():
    cases = {
        "": 0,
        "(1)": 0,
        "[": 1,
        "[]": 1,
        "[()]": 2,
        "[(1,)]": 4,
        "[(1)": 4,
        "[(1)] trailing": 6,
        # digits are ASCII only; str.isdigit() would take these two
        "[(\u0663)]": 2,
        "[(\u00b2)]": 2,
        # beyond int()'s digit limit
        "[(" + "1" * 5000 + ")]": 2,
    }
    for text, pos in cases.items():
        with pytest.raises(SegreParseError) as err:
            parse_segre(text)
        assert err.value.position == pos, text


def test_parse_rejects_zero_part():
    with pytest.raises(SegreParseError):
        parse_segre("[(0)]")


@st.composite
def characteristics(draw):
    groups = draw(st.lists(
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
        min_size=1, max_size=4))
    return SegreCharacteristic(groups)


@given(characteristics())
def test_parse_format_round_trip_random(s):
    back = parse_segre(format_segre(s))
    assert back == s
    # formatting preserves the stored group order, so the round trip is literal
    assert [g.parts for g in back.groups] == [g.parts for g in s.groups]
