"""From rank patterns to Jordan block sizes.

For an eigenvalue L of an n x n matrix A, write r_k = rank((A - L*I)^k).
The nullity growth q_k = r_{k-1} - r_k counts Jordan blocks of size >= k,
so the q sequence is non-increasing and its conjugate partition is exactly
the multiset of block sizes.  Both directions are implemented: blocks from
a measured pattern, and the closed-form pattern a block multiset implies,

    r_k = n - sum_i min(b_i, k),

which serves as an independent oracle for rank computations.
"""

import re
from collections.abc import Iterable

from .linalg import _integer
from .partitions import Partition


class NonMonotoneGrowthError(ValueError):
    """The nullity increments of a rank pattern increased somewhere.

    No matrix produces such a pattern; raised when converting a measured
    pattern whose data cannot come from powers of a single matrix.
    """

    def __init__(self, growth: tuple[int, ...]):
        super().__init__(
            f"nullity growth {list(growth)} increases; "
            "no matrix has this rank pattern"
        )
        self.growth = growth


class RankPattern:
    """The sequence rank((A - L*I)^k) for k = 0, 1, ..., m.

    Invariants enforced on construction: ranks are ints in [0, n] for an
    int dimension n >= 1, r_0 = n, ranks never increase, and the stored
    sequence stops at the first stabilized value (a trailing run of equal
    ranks is truncated to its first entry; any later change is rejected,
    since ranks of powers stay put once they repeat).  A length-1 pattern
    (n,) means L is not an eigenvalue.
    """

    __slots__ = ("_n", "_ranks")

    def __init__(self, dimension: int, ranks: Iterable[int]):
        _integer(dimension, "dimension", 1)
        rs = tuple(ranks)
        if not rs:
            raise ValueError("a rank pattern needs at least r_0")
        for r in rs:
            if _integer(r, "rank") < 0 or r > dimension:
                raise ValueError(f"rank {r} outside [0, {dimension}]")
        if rs[0] != dimension:
            raise ValueError(
                f"r_0 must equal the dimension ({dimension}), got {rs[0]}")
        for a, b in zip(rs, rs[1:]):
            if b > a:
                raise ValueError(f"ranks must be non-increasing, got {a} -> {b}")
        # truncate the stabilized tail
        for k in range(1, len(rs)):
            if rs[k] == rs[k - 1]:
                if any(r != rs[k] for r in rs[k + 1:]):
                    raise ValueError(
                        "ranks changed after stabilizing; not a rank pattern")
                rs = rs[:k]
                break
        self._n = dimension
        self._ranks = rs

    @property
    def dimension(self) -> int:
        return self._n

    @property
    def ranks(self) -> tuple[int, ...]:
        return self._ranks

    @classmethod
    def parse(cls, text: str) -> "RankPattern":
        """Parse the textual form "n=10: 10,7,5,3,2,1,0"."""
        m = re.fullmatch(
            r"\s*n\s*=\s*([0-9]+)\s*:\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*", text)
        if not m:
            raise ValueError(f"malformed rank pattern: {text!r}")
        n = int(m.group(1))
        ranks = [int(tok) for tok in m.group(2).split(",")]
        return cls(n, ranks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RankPattern):
            return NotImplemented
        return self._n == other._n and self._ranks == other._ranks

    def __hash__(self) -> int:
        return hash((self._n, self._ranks))

    def __str__(self) -> str:
        return f"n={self._n}: " + ",".join(map(str, self._ranks))

    def __repr__(self) -> str:
        return f"RankPattern({self._n}, {self._ranks!r})"


def nullity_growth(pattern: RankPattern) -> tuple[int, ...]:
    """Consecutive rank drops q_k = r_{k-1} - r_k, k = 1..m.

    Raises NonMonotoneGrowthError if the drops ever increase.  Empty for a
    length-1 pattern (the shift is invertible, nothing to measure).
    """
    rs = pattern.ranks
    growth = tuple(rs[k - 1] - rs[k] for k in range(1, len(rs)))
    for a, b in zip(growth, growth[1:]):
        if b > a:
            raise NonMonotoneGrowthError(growth)
    return growth


def blocks_from_rank_pattern(pattern: RankPattern) -> Partition:
    """Jordan block sizes for the eigenvalue behind `pattern`.

    q_k counts blocks of size >= k, so the block multiset is the conjugate
    of the growth sequence.  Empty when the pattern is just (n,).
    """
    return Partition(nullity_growth(pattern)).conjugate()


def rank_pattern_from_blocks(blocks: Partition, dimension: int) -> RankPattern:
    """Closed-form rank pattern of a matrix with the given blocks at some
    eigenvalue: r_k = dimension - sum_i min(b_i, k), for k = 0..max(blocks).

    The remaining dimension - sum(blocks) dimensions belong to other
    eigenvalues and never lose rank under the shift.
    """
    _integer(dimension, "dimension", 1)
    if not isinstance(blocks, Partition):
        blocks = Partition(blocks)
    if blocks.weight > dimension:
        raise ValueError(
            f"blocks sum to {blocks.weight}, exceeding dimension {dimension}")
    top = blocks.parts[0] if blocks else 0
    ranks = [dimension - sum(min(b, k) for b in blocks.parts)
             for k in range(top + 1)]
    return RankPattern(dimension, ranks)
