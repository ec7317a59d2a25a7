import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from segrekit import (ExactMatrix, Partition, PolynomialZ, RankPattern,
                      StructureGrid, count_segre_gf, count_segre_sum,
                      enumerate_partitions, enumerate_segre,
                      iter_partition_tuples, iter_segre, matrix_from_json_dict,
                      partition_count, partitions, rank_pattern_from_blocks,
                      render_svg)

from oracles import (conjugate_by_transpose, naive_partition_count,
                     naive_partitions, partition_count_table)


def test_count_base_cases():
    assert partition_count(0) == 1
    assert partition_count(1) == 1
    assert partition_count(4) == 5
    assert partition_count(7) == 15
    # frozen from the brute-force oracle
    assert partition_count(10) == 42


def test_count_matches_enumeration_oracle():
    for n in range(26):
        assert partition_count(n) == naive_partition_count(n), n


def test_count_big_value_is_exact():
    # arbitrary-precision check: p(200) has 13 digits
    assert partition_count(200) == 3972999029388


def test_count_cache_is_thread_safe(monkeypatch):
    # four threads grow a fresh cache together, switching as often as the
    # interpreter allows; a lost or doubled entry shifts every later value
    monkeypatch.setattr(partitions, "_COUNT_CACHE", [1])
    top = 2000
    seen = [[] for _ in range(4)]

    def work(out):
        for n in range(0, top + 1, 7):
            out.append((n, partition_count(n)))
        out.append((top, partition_count(top)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in seen]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    expected = partition_count_table(top)
    assert partitions._COUNT_CACHE == expected
    for out in seen:
        assert out and all(value == expected[n] for n, value in out)


def test_count_rejects_bad_input():
    with pytest.raises(ValueError):
        partition_count(-1)
    with pytest.raises(ValueError):
        partition_count(2.0)


def test_enumerate_golden_n4():
    got = [p.parts for p in enumerate_partitions(4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_enumerate_zero_gives_empty_partition():
    assert enumerate_partitions(0) == [Partition()]


def test_enumerate_matches_oracle():
    for n in range(13):
        assert [p.parts for p in enumerate_partitions(n)] == list(naive_partitions(n)), n


def test_enumerate_is_reverse_lexicographic():
    for n in (6, 9, 12):
        seq = [p.parts for p in enumerate_partitions(n)]
        assert all(a > b for a, b in zip(seq, seq[1:]))
        assert all(sum(t) == n for t in seq)
        assert len(set(seq)) == len(seq)


def test_enumerate_length_equals_count():
    for n in range(31):
        assert len(enumerate_partitions(n)) == partition_count(n)


def test_iter_partition_tuples_negative():
    with pytest.raises(ValueError):
        list(iter_partition_tuples(-2))


def test_parts_sorted_on_construction():
    assert Partition([1, 3, 2]).parts == (3, 2, 1)
    assert Partition([2, 2]).parts == (2, 2)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition([0])
    with pytest.raises(ValueError):
        Partition([3, -1])
    with pytest.raises(ValueError):
        Partition([1.5])
    with pytest.raises(ValueError):
        Partition([True])


def test_weight_and_len():
    p = Partition([3, 1])
    assert p.weight == 4
    assert len(p) == 2
    assert Partition().weight == 0
    assert not Partition()


def test_conjugate_golden():
    assert Partition([4, 2, 1]).conjugate().parts == (3, 2, 1, 1)
    assert Partition([3, 2, 2, 1, 1, 1]).conjugate().parts == (6, 3, 1)
    assert Partition().conjugate() == Partition()
    assert Partition([5]).conjugate().parts == (1, 1, 1, 1, 1)


def test_conjugate_matches_transpose_oracle():
    for n in range(11):
        for t in naive_partitions(n):
            assert Partition(t).conjugate().parts == conjugate_by_transpose(t)


@given(st.lists(st.integers(min_value=1, max_value=12), max_size=12))
def test_conjugate_involution(parts):
    p = Partition(parts)
    q = p.conjugate()
    assert q.conjugate() == p
    assert q.weight == p.weight
    if p:
        assert q.parts[0] == len(p)
        assert len(q) == p.parts[0]


def test_str_golden():
    assert str(Partition([1, 3])) == "[3,1]"
    assert str(Partition()) == "[]"
    assert str(Partition([6, 3, 1])) == "[6,3,1]"
    assert str(Partition([1, 1, 1])) == "[1,1,1]"


def test_equality_and_hash():
    assert Partition([2, 1]) == Partition([1, 2])
    assert hash(Partition([2, 1])) == hash(Partition([1, 2]))
    assert Partition([2, 1]) != Partition([3])
    assert len({Partition([2, 1]), Partition([1, 2]), Partition([3])}) == 2


# every count argument of the library, each with the least value it takes
# (None: no lower bound); generators are asked for their first item only,
# so one that yields without end on a bad n fails instead of hanging
COUNT_ARGUMENTS = {
    "ExactMatrix rows": (lambda v: ExactMatrix(v, 1, [0]), 1),
    "ExactMatrix cols": (lambda v: ExactMatrix(1, v, [0]), 1),
    "ExactMatrix.identity": (ExactMatrix.identity, 1),
    "ExactMatrix.zeros rows": (lambda v: ExactMatrix.zeros(v, 1), 1),
    "ExactMatrix.zeros cols": (lambda v: ExactMatrix.zeros(1, v), 1),
    "PolynomialZ coefficient": (lambda v: PolynomialZ([v]), None),
    "matrix_from_json_dict rows": (lambda v: matrix_from_json_dict(
        {"rows": v, "cols": 1, "entries": [[0]]}), 1),
    "matrix_from_json_dict cols": (lambda v: matrix_from_json_dict(
        {"rows": 1, "cols": v, "entries": [[0]]}), 1),
    "Partition part": (lambda v: Partition([2, v]), 1),
    "partition_count": (partition_count, 0),
    "iter_partition_tuples": (lambda v: next(iter_partition_tuples(v)), 0),
    "enumerate_partitions": (enumerate_partitions, 0),
    "RankPattern dimension": (lambda v: RankPattern(v, [1]), 1),
    "RankPattern rank": (lambda v: RankPattern(3, [3, v]), 0),
    "rank_pattern_from_blocks": (
        lambda v: rank_pattern_from_blocks(Partition([1]), v), 1),
    "StructureGrid size": (lambda v: StructureGrid([(v, 1)]), 1),
    "StructureGrid group": (lambda v: StructureGrid([(1, v)]), 1),
    "render_svg columns": (lambda v: render_svg([], columns=v), 1),
    "iter_segre": (lambda v: next(iter_segre(v)), 1),
    "enumerate_segre": (enumerate_segre, 1),
    "count_segre_gf": (count_segre_gf, 0),
    "count_segre_sum": (count_segre_sum, 0),
}


@pytest.mark.parametrize("entry, value", [
    (entry, value) for entry, (_, least) in COUNT_ARGUMENTS.items()
    for value in (2.5, True, "x") + (() if least is None else (least - 1,))])
def test_count_arguments_must_be_ints(entry, value):
    call, _ = COUNT_ARGUMENTS[entry]
    with pytest.raises(ValueError):
        call(value)


# a value past sys.get_int_max_str_digits(), which repr() refuses
HUGE = 10 ** 5000


@pytest.mark.parametrize("call, name", [
    (lambda: Partition([2, -HUGE]), "partition part"),
    (lambda: RankPattern(-HUGE, [1]), "dimension"),
    (lambda: RankPattern(3, [3, HUGE]), "rank"),
    (lambda: RankPattern(3, [3, -HUGE]), "rank"),
    (lambda: RankPattern(HUGE, [HUGE, HUGE + 1]), "rank"),
    (lambda: RankPattern(HUGE, [HUGE - 1]), "r_0 must equal the dimension"),
    (lambda: RankPattern(HUGE, [HUGE, HUGE - 2, HUGE - 1]),
     "ranks must be non-increasing"),
    (lambda: count_segre_gf(-HUGE), "n"),
    (lambda: ExactMatrix(-HUGE, 1, [0]), "rows"),
    (lambda: ExactMatrix(HUGE, HUGE, [0]), "expected"),
    (lambda: matrix_from_json_dict({"rows": HUGE, "cols": 1,
                                    "entries": [[0]]}), '"entries"'),
    (lambda: matrix_from_json_dict({"rows": 1, "cols": HUGE,
                                    "entries": [[0]]}), "row 0"),
    (lambda: StructureGrid([(-HUGE, 1)]), "block size"),
    (lambda: rank_pattern_from_blocks(Partition([1]), -HUGE), "dimension"),
    (lambda: rank_pattern_from_blocks(Partition([HUGE]), 3), "blocks sum"),
])
def test_a_huge_int_is_named_not_printed(call, name):
    # the message is segrekit's, not Python's advice on the digit limit
    with pytest.raises(ValueError) as exc_info:
        call()
    message = str(exc_info.value)
    assert message.startswith(name) and len(message) < 200
    assert "set_int_max_str_digits" not in message
    assert " int of 16610 bits>" in message


def test_shown_quotes_at_most_40_characters():
    shown = partitions._shown
    for value in (0, -12, "x" * 38, [7] * 13, 2.5, True, None):
        assert len(repr(value)) <= 40 and shown(value) == repr(value)
    assert shown("x" * 39) == shown("x" * 40) == "'" + "x" * 39 + "..."
    assert shown(10 ** 45) == "1" + "0" * 39 + "..."
    assert shown(HUGE) == "<positive int of 16610 bits>"
    assert shown(-HUGE) == "<negative int of 16610 bits>"
    assert shown(-(2 ** 20000)) == "<negative int of 20001 bits>"
    assert shown(Fraction(HUGE, 3)) == "<Fraction too long to show>"
    with pytest.raises(ValueError, match=r"^partition part must be a positive "
                       r"integer, got <Fraction too long to show>$"):
        Partition([Fraction(HUGE, 3)])
