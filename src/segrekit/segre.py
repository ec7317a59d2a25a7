"""Segre characteristics: multisets of partitions, one group per eigenvalue.

A Segre characteristic of weight n records the Jordan block sizes of an
n x n matrix grouped by eigenvalue.  Two matrices are similar exactly when
their characteristics agree, so enumerating characteristics enumerates
similarity classes.
"""

import math
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from functools import lru_cache, partial
from operator import itemgetter, mul

from .partitions import (InternalInconsistencyError, Partition, _integer,
                         iter_partition_tuples, partition_count)


def _key(parts: tuple) -> tuple:
    # the canonical group order, taken descending: weight, then parts
    return (sum(parts), parts)


class SegreCharacteristic:
    """An ordered list of non-empty partitions (one "group" per eigenvalue).

    Group order is preserved as given, since it can carry meaning (which
    eigenvalue owns which group).  Equality and hashing ignore it: two
    characteristics are equal when their canonical forms coincide.  Use
    canonical() to normalize the order itself.
    """

    __slots__ = ("_groups", "_canonical_parts")

    def __init__(self, groups: Iterable):
        gs = tuple(g if isinstance(g, Partition) else Partition(g) for g in groups)
        if not gs:
            raise ValueError("a Segre characteristic needs at least one group")
        for g in gs:
            if not g:
                raise ValueError("groups must be non-empty partitions")
        self._groups = gs
        self._canonical_parts = tuple(sorted(
            (g.parts for g in gs), key=_key, reverse=True))

    @classmethod
    def _from_canonical(cls, groups: tuple) -> "SegreCharacteristic":
        # groups already a tuple of non-empty Partitions in canonical order
        self = object.__new__(cls)
        self._groups = groups
        self._canonical_parts = tuple([g.parts for g in groups])
        return self

    @property
    def groups(self) -> tuple[Partition, ...]:
        return self._groups

    @property
    def total_weight(self) -> int:
        return sum(g.weight for g in self._groups)

    def canonical(self) -> "SegreCharacteristic":
        """Copy with groups in canonical order: _key(parts), descending."""
        return SegreCharacteristic(self._canonical_parts)

    def __len__(self) -> int:
        return len(self._groups)

    def __iter__(self):
        return iter(self._groups)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SegreCharacteristic):
            return NotImplemented
        return self._canonical_parts == other._canonical_parts

    def __hash__(self) -> int:
        return hash(self._canonical_parts)

    def __str__(self) -> str:
        return format_segre(self)

    def __repr__(self) -> str:
        return f"SegreCharacteristic({[list(g.parts) for g in self._groups]!r})"


def _group_text(parts: tuple) -> str:
    return "(" + ",".join(map(str, parts)) + ")"


def format_segre(s: SegreCharacteristic) -> str:
    """Render as text, every group parenthesized: "[(2,1),(3),(1),(2,1)]"."""
    return _groups_text(s.groups)


def _groups_text(groups) -> str:
    return "[" + ",".join(_group_text(g.parts) for g in groups) + "]"


# the most `rest` tuples whose candidate groups one run keeps: all through
# n = 15; at n = 22 (2,003 rests) peak RSS is 18 MB, and 26 MB unbounded
_MEMO_SIZE = 256

# a rest of at most this weight is light: a run builds the completions of
# each light rest once, so the table of them is bounded by this, not by n
_LIGHT = 8


def _groups_of(rest: tuple, made: dict, pieces) -> list:
    """The distinct non-empty sub-multisets of the descending tuple `rest`
    after which what is left still splits into singleton groups no larger,
    each as (_key(parts), its two pieces, what is left), smallest key
    first.  `made` holds each group's key and pieces, built once a run."""
    found = [((), (), 0)]  # (parts, left, weight of parts), in one pass
    for v in dict.fromkeys(rest):
        c = rest.count(v)
        runs = [((v,) * t, (v,) * (c - t), v * t) for t in range(c + 1)]
        found = [(parts + p, left + q, w + u)
                 for parts, left, w in found for p, q, u in runs]
    top = rest[:1]
    groups = []
    for parts, left, w in found:
        # at least _key(top): heavier than rest's largest part, or it alone
        if w <= top[0] and parts != top:
            continue
        group = made.get(parts)
        if group is None:
            # keyed by the Partition's own parts, so `made` holds one copy
            p = Partition(parts)
            group = made[p.parts] = (_key(p.parts), *pieces(p))
        groups.append((*group, left))
    groups.sort(key=itemgetter(0))
    return groups


def _walk(n: int, first, pieces) -> Iterator:
    """Each canonical group sequence of weight n in iter_segre's order, as
    `first` plus pieces(Partition)[0] of each group, [1] of the last one,
    built depth first with the prefix carried.  The memo of _groups_of, the
    groups built and the table of light rests' completions are local."""
    _integer(n, "n", 1)
    made, table, light, key_of = {}, {}, _LIGHT, itemgetter(0)
    groups_of = lru_cache(maxsize=_MEMO_SIZE)(
        partial(_groups_of, made=made, pieces=pieces))

    def walk(rest, hi, weight, prefix):
        # (prefix, completions) pairs from the candidates below hi, largest
        # first; i counts left's candidates with keys at most this one's
        for key, mid, last, left in reversed(groups_of(rest)[:hi]):
            if not left:
                yield prefix, (last,)
                continue
            i = bisect_right(groups_of(left), key, key=key_of)
            w = weight - key[0]
            if w > light:
                yield from walk(left, i, w, prefix + mid)
                continue
            got = table.get((left, i))
            if got is None:
                pairs = walk(left, i, w, first[:0])  # an empty prefix
                got = table[left, i] = [p + t for p, ts in pairs for t in ts]
            yield prefix + mid, got

    for flat in iter_partition_tuples(n):
        for prefix, tails in walk(flat, None, n, first):
            for tail in tails:
                yield prefix + tail


def iter_segre(n: int) -> Iterator[SegreCharacteristic]:
    """Yield each distinct Segre characteristic of weight n once, canonical.

    Characteristics sharing a flattened block partition are contiguous
    (those partitions largest-first); within such a run the canonical group
    sequences descend, groups compared by _key(parts).  The parts are
    split into groups depth first, candidates taken in that order, so each
    form is built once and in place.  There are count_segre_gf(n) items.
    """
    return map(SegreCharacteristic._from_canonical, _groups(n))


def _groups(n: int) -> Iterator[tuple]:
    """The groups of each item of iter_segre(n), in order: tuples of
    Partitions."""
    return _walk(n, (), lambda p: ((p,), (p,)))


def _texts(n: int) -> Iterator[str]:
    """format_segre of each item of iter_segre(n), in order."""
    return _walk(n, "[", lambda p: (_group_text(p.parts) + ",",
                                    _group_text(p.parts) + "]"))


def enumerate_segre(n: int) -> list[SegreCharacteristic]:
    """list(iter_segre(n)): every characteristic of weight n, in that order."""
    return list(iter_segre(n))


def count_segre_gf(n: int) -> int:
    """Count characteristics of weight n >= 0 by generating function.

    prod_{k>=1} (1 - x^k)^(-p(k)), the Euler transform of the partition
    numbers (Bernstein and Sloane 1995), gives by its logarithmic derivative
    n a(n) = sum_{k=1..n} c(k) a(n-k), c(k) = sum_{d | k} d p(d): divisor
    sums and an exact division, checked (InternalInconsistencyError).
    """
    _integer(n, "n", 0)
    c = [0] * (n + 1)
    for d in range(1, n + 1):
        dp = d * partition_count(d)
        for k in range(d, n + 1, d):
            c[k] += dp
    a = [1]
    for m in range(1, n + 1):
        q, r = divmod(sum(map(mul, c[1:m + 1], reversed(a))), m)
        if r:
            raise InternalInconsistencyError(f"Euler transform: a({m}) inexact")
        a.append(q)
    return a[n]


def count_segre_sum(n: int) -> int:
    """Count characteristics of weight n >= 0 by summation over partitions.

    A partition of n, read as the multiset of group weights, is realized by
    the product over distinct weights v (used t times) of C(p(v)+t-1, t)
    characteristics.  After step k, totals[i] is that sum over partitions
    of i into parts <= k; k used t times adds C(p(k)+t-1, t) totals[i-tk]:
    binomials and products only, an independent check of count_segre_gf.
    """
    _integer(n, "n", 0)
    totals = [1] + [0] * n
    for k in range(1, n + 1):
        pk = partition_count(k)
        below = totals[:]
        for t in range(1, n // k + 1):
            c = math.comb(pk + t - 1, t)
            totals[t * k:] = [x + c * y for x, y in zip(totals[t * k:], below)]
    return totals[n]
