"""Segre characteristics: multisets of partitions, one group per eigenvalue.

A Segre characteristic of weight n records the Jordan block sizes of an
n x n matrix grouped by eigenvalue.  Two matrices are similar exactly when
their characteristics agree, so enumerating characteristics enumerates
similarity classes.
"""

import itertools
import math
from collections.abc import Iterable, Iterator
from functools import lru_cache
from operator import mul

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
    return "[" + ",".join(_group_text(g.parts) for g in s.groups) + "]"


class SegreParseError(ValueError):
    """Malformed Segre characteristic text; .position is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_segre(text: str) -> SegreCharacteristic:
    """Parse "[(2,1),(3),(1),(2,1)]".

    Grammar: '[' group (',' group)* ']' where a group is either a
    parenthesized comma-separated list of positive integers or a bare
    integer (shorthand for a singleton group).  Whitespace between tokens
    is ignored.  Group order is preserved.  Malformed text, a part too long
    for int() among it, raises SegreParseError.
    """
    pos = 0
    n = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def expect(ch: str) -> None:
        nonlocal pos
        skip_ws()
        if pos >= n or text[pos] != ch:
            raise SegreParseError(f"expected {ch!r}", pos)
        pos += 1

    def parse_int() -> int:
        nonlocal pos
        skip_ws()
        start = pos
        while pos < n and "0" <= text[pos] <= "9":
            pos += 1
        if pos == start:
            raise SegreParseError("expected an integer", start)
        try:
            value = int(text[start:pos])
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise SegreParseError("integer too long", start) from None
        if value < 1:
            raise SegreParseError("parts must be >= 1", start)
        return value

    def parse_group() -> Partition:
        nonlocal pos
        skip_ws()
        if pos < n and text[pos] == "(":
            pos += 1
            parts = [parse_int()]
            skip_ws()
            while pos < n and text[pos] == ",":
                pos += 1
                parts.append(parse_int())
                skip_ws()
            expect(")")
            return Partition(parts)
        return Partition([parse_int()])

    expect("[")
    groups = [parse_group()]
    skip_ws()
    while pos < n and text[pos] == ",":
        pos += 1
        groups.append(parse_group())
        skip_ws()
    expect("]")
    skip_ws()
    if pos != n:
        raise SegreParseError("trailing characters", pos)
    return SegreCharacteristic(groups)


# the most `rest` tuples whose candidate groups one run keeps: all 351
# that occur through n = 15; at n = 22, where 3,473 occur, an unbounded
# memo took 42 MB of peak RSS and this bound about 20 MB
_MEMO_SIZE = 256


def _groups_of(rest: tuple, made: dict) -> list:
    """The distinct non-empty sub-multisets of the descending tuple `rest`
    that can head one of its splits, each as (_key(parts), (Partition,
    its text), what is left of rest), largest key first.  A group heads a
    split only if what is left can still be split below it, as singletons
    headed by its largest part.  `made` maps parts to the (key, (Partition,
    text)) already built for them, so a group that recurs across rests is
    built once."""
    values = sorted(set(rest), reverse=True)
    counts = [rest.count(v) for v in values]
    floor = _key(rest[:1])
    found = []
    for take in itertools.product(*(range(c + 1) for c in counts)):
        parts = tuple(v for v, t in zip(values, take) for _ in range(t))
        if _key(parts) < floor:
            continue
        group = made.get(parts)
        if group is None:
            # keyed by the Partition's own parts: the table holds one copy
            p = Partition(parts)
            group = made[p.parts] = (_key(p.parts), (p, _group_text(parts)))
        left = tuple(v for v, c, t in zip(values, counts, take)
                     for _ in range(c - t))
        found.append((*group, left))
    return sorted(found, key=lambda c: c[0], reverse=True)


def _splits(rest: tuple, bound: tuple, groups_of) -> Iterator[tuple]:
    # splits of a non-empty `rest` into groups with non-increasing
    # _key(parts), none above `bound`, descending
    for key, group, left in groups_of(rest):
        if key > bound:
            continue
        if left:
            for tail in _splits(left, key, groups_of):
                yield (group,) + tail
        else:
            yield (group,)


def _iter_splits(n: int) -> Iterator[tuple]:
    """The canonical group sequences of weight n in iter_segre's order, each
    a tuple of (Partition, its text) pairs.  One memo of _groups_of and
    one table of the groups it built serve the whole run: its sub-multisets
    recur across flattened partitions."""
    _integer(n, "n", 1)
    made = {}
    groups_of = lru_cache(maxsize=_MEMO_SIZE)(
        lambda rest: _groups_of(rest, made))
    for flat in iter_partition_tuples(n):
        yield from _splits(flat, _key(flat), groups_of)


def iter_segre(n: int) -> Iterator[SegreCharacteristic]:
    """Yield each distinct Segre characteristic of weight n once, canonical.

    Characteristics sharing a flattened block partition are contiguous
    (those partitions largest-first); within such a run the canonical group
    sequences descend, groups compared by _key(parts).  The parts are
    split into groups depth first, candidates taken in that order, so each
    form is built once and in place.  There are count_segre_gf(n) items.
    """
    for split in _iter_splits(n):
        groups, _ = zip(*split)
        yield SegreCharacteristic._from_canonical(groups)


def _texts(n: int) -> Iterator[str]:
    """format_segre of each item of iter_segre(n), in order."""
    for split in _iter_splits(n):
        yield "[" + ",".join([text for _, text in split]) + "]"


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
