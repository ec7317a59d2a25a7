import sys
import threading

import pytest
from hypothesis import given, strategies as st

from segrekit import (Partition, enumerate_partitions, iter_partition_tuples,
                      partition_count, partitions)

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
