"""Integer partitions: the building blocks of a Segre characteristic.

A partition of n is a non-increasing sequence of positive integers summing
to n.  Everything here is exact integer arithmetic; counts are arbitrary
precision.
"""

import threading
from collections.abc import Iterable, Iterator

from .linalg import _integer


class Partition:
    """A non-increasing tuple of positive integers.

    Parts may be given in any order; they are sorted into non-increasing
    order on construction, so two Partitions are equal exactly when they
    hold the same multiset of parts.  The empty partition (weight 0) is
    allowed.  A part that is not an int >= 1, or is a bool, raises
    ValueError.
    """

    __slots__ = ("_parts", "_weight")

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(parts)
        for p in parts:
            _integer(p, "partition part", 1)
        self._parts = tuple(sorted(parts, reverse=True))
        self._weight = sum(parts)

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def weight(self) -> int:
        """Sum of the parts."""
        return self._weight

    def conjugate(self) -> "Partition":
        """Transpose of the Ferrers diagram.

        Column j of the diagram has one cell per part of size > j, so the
        conjugate's j-th part is the number of parts exceeding j.
        """
        if not self._parts:
            return Partition()
        cols = [0] * self._parts[0]
        for p in self._parts:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def __len__(self) -> int:
        return len(self._parts)

    def __iter__(self):
        return iter(self._parts)

    def __getitem__(self, i: int) -> int:
        return self._parts[i]

    def __bool__(self) -> bool:
        return bool(self._parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self._parts)) + "]"

    def __repr__(self) -> str:
        return f"Partition({self._parts!r})"


# p(0), p(1), ... computed so far.  Only ever extended, and only under
# _COUNT_LOCK, so a reader that sees len(cache) > n can index it unlocked.
_COUNT_CACHE: list[int] = [1]
_COUNT_LOCK = threading.Lock()


def partition_count(n: int) -> int:
    """Number of partitions of n, via Euler's pentagonal number recurrence.

    p(m) = sum over j >= 1 of (-1)^(j+1) * (p(m - j(3j-1)/2) + p(m - j(3j+1)/2)),
    with p(0) = 1 and p(k) = 0 for k < 0.  Exact for any int n >= 0.
    """
    _integer(n, "n", 0)
    cache = _COUNT_CACHE
    if n < len(cache):
        return cache[n]
    with _COUNT_LOCK:
        while len(cache) <= n:
            m = len(cache)
            total = 0
            j = 1
            while True:
                g1 = j * (3 * j - 1) // 2
                if g1 > m:
                    break
                sign = 1 if j % 2 else -1
                total += sign * cache[m - g1]
                g2 = j * (3 * j + 1) // 2
                if g2 <= m:
                    total += sign * cache[m - g2]
                j += 1
            cache.append(total)
    return cache[n]


def iter_partition_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """Yield all partitions of n as plain tuples, largest-first (reverse
    lexicographic): (n) first, (1,)*n last.  n must be an int >= 0."""
    _integer(n, "n", 0)
    if n == 0:
        yield ()
        return
    cur = [n]
    while True:
        yield tuple(cur)
        # rightmost part that can still shrink
        i = len(cur) - 1
        while i >= 0 and cur[i] == 1:
            i -= 1
        if i < 0:
            return
        rem = len(cur) - i  # the borrowed unit plus the ones dropped
        cur[i] -= 1
        del cur[i + 1:]
        while rem > 0:
            nxt = min(cur[-1], rem)
            cur.append(nxt)
            rem -= nxt


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order.

    enumerate_partitions(0) == [Partition()].
    """
    return [Partition(t) for t in iter_partition_tuples(n)]
