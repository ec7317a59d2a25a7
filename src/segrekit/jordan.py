"""Jordan matrices: construction from a Segre characteristic and recovery
of the characteristic from an arbitrary rational matrix.

analyze() inverts build_jordan() up to similarity: characteristic
polynomial -> rational eigenvalues -> rank pattern per eigenvalue ->
block sizes -> canonical Segre characteristic.  A rank pattern comes
from one recorded elimination of N = B - mu*I and a ladder of kernels of
the powers of N, with one replay and one back-substitution per vector;
no power of N is ever formed.  The reconstructions of the characteristic
polynomial are tried in turn, until rank patterns certify one.
"""

import math
from collections import namedtuple
from fractions import Fraction

from .linalg import (ExactMatrix, shift, _as_fraction, _char_polys,
                     _eliminate, _kernel, _preimage, _primitive,
                     _rational_roots, _replay)
from .partitions import InternalInconsistencyError
from .rank_analysis import RankPattern, blocks_from_rank_pattern
from .segre import SegreCharacteristic


class IrrationalEigenvalueError(ValueError):
    """The characteristic polynomial does not split over Q.

    Jordan structure over the rationals is only defined when every
    eigenvalue is rational; .remainder_degree is the degree of the
    rootless factor left after removing all rational roots.
    """

    def __init__(self, remainder_degree: int):
        super().__init__(
            "matrix has irrational or non-real eigenvalues "
            f"(irreducible remainder of degree {remainder_degree})")
        self.remainder_degree = remainder_degree


class JordanSpec:
    """A Segre characteristic with one rational eigenvalue per group.

    Eigenvalues are aligned positionally with the characteristic's groups
    (in their stored order) and must be pairwise distinct.
    """

    __slots__ = ("_segre", "_eigenvalues")

    def __init__(self, segre: SegreCharacteristic, eigenvalues):
        if not isinstance(segre, SegreCharacteristic):
            segre = SegreCharacteristic(segre)
        eigs = tuple(_as_fraction(e) for e in eigenvalues)
        if len(eigs) != len(segre.groups):
            raise ValueError(
                f"{len(segre.groups)} groups need {len(segre.groups)} "
                f"eigenvalues, got {len(eigs)}")
        if len(set(eigs)) != len(eigs):
            raise ValueError("eigenvalues must be pairwise distinct")
        self._segre = segre
        self._eigenvalues = eigs

    @classmethod
    def positional(cls, segre: SegreCharacteristic) -> "JordanSpec":
        """Assign eigenvalues 1, 2, ..., k to the groups in order."""
        if not isinstance(segre, SegreCharacteristic):
            segre = SegreCharacteristic(segre)
        return cls(segre, range(1, len(segre.groups) + 1))

    @property
    def segre(self) -> SegreCharacteristic:
        return self._segre

    @property
    def eigenvalues(self) -> tuple[Fraction, ...]:
        return self._eigenvalues

    @property
    def dimension(self) -> int:
        return self._segre.total_weight

    def __eq__(self, other) -> bool:
        if not isinstance(other, JordanSpec):
            return NotImplemented
        return (self._segre.groups == other._segre.groups
                and self._eigenvalues == other._eigenvalues)

    def __hash__(self) -> int:
        return hash((tuple(g.parts for g in self._segre.groups),
                     self._eigenvalues))

    def __repr__(self) -> str:
        return f"JordanSpec({self._segre!r}, {list(self._eigenvalues)!r})"


EigenvalueReport = namedtuple("EigenvalueReport",
                              "eigenvalue rank_pattern blocks")


class AnalysisReport(namedtuple("AnalysisReport", "segre per_eigenvalue")):
    """What analyze() found: the canonical characteristic plus the
    per-eigenvalue evidence (EigenvalueReports), in ascending eigenvalue
    order."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "segre": str(self.segre),
            "eigenvalues": [
                {
                    "value": str(r.eigenvalue),
                    "rank_pattern": list(r.rank_pattern.ranks),
                    "blocks": list(r.blocks.parts),
                }
                for r in self.per_eigenvalue
            ],
        }


def build_jordan(spec: JordanSpec) -> ExactMatrix:
    """The Jordan matrix realizing `spec`.

    Blocks are laid out along the diagonal in group order, parts within a
    group largest-first; each block carries its eigenvalue on the diagonal
    and 1 on the superdiagonal.  The matrix is built as d times itself, d
    the least common denominator of the eigenvalues.
    """
    n = spec.dimension
    d = math.lcm(*(lam.denominator for lam in spec.eigenvalues))
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for group, lam in zip(spec.segre.groups, spec.eigenvalues):
        mu = lam.numerator * (d // lam.denominator)
        for size in group.parts:
            for r in range(offset, offset + size):
                rows[r][r] = mu
            for r in range(offset, offset + size - 1):
                rows[r][r + 1] = d
            offset += size
    return ExactMatrix._from_ints(rows, d)


def _rank_pattern(b: list[list[int]], mu: int, m: int) -> list[int]:
    """Ranks of (b - mu*I)^k for an integer matrix b, k = 0, 1, ... until
    the nullity n - r reaches m or the rank repeats.

    One recorded elimination of N = b - mu*I gives r_1 and a basis of
    ker N; after it no power of N is formed.  The kernels V_k = ker N^k are
    climbed as a ladder: V_{k+1} is V_k plus one preimage under N of each
    new direction of V_k inside im N.  Each vector of level k is replayed
    once through the elimination, and its residual is reduced against the
    residuals of the vectors before it by integer row operations on whole
    replays, which carry the coefficients of the combination along; each
    reduced row is made primitive.  A residual that reduces to zero marks
    an integer combination u of those vectors that lies in im N, and the
    top that comes with it is the top of u's replay, which
    back-substitution turns into a vector of level k + 1.  The content
    removed includes the coefficients, so u stays an integer vector, and a
    reduced row is the primitive part of the row that fraction-free
    (Bareiss) reduction would give, so its entries are no larger than
    minors of the replays.  So the increment q_{k+1} of the nullity is the
    number of level-k residuals that reduce to zero; each vector is solved
    once and replayed once, and a pattern costs O(n^3 + m*n^2) instead of one
    product and one elimination per power.  Every nullity is counted this
    way, never inferred from m, and an increment that grows raises
    InternalInconsistencyError.

    With m the algebraic multiplicity of mu, the nullity grows to m and
    stays there, so stopping at m saves the level that would only confirm
    it; m = n stops at rank 0 or at a repeat, which is the whole stabilized
    pattern.  The pattern stays a check on m: if m overstates the
    multiplicity, the ranks repeat before the nullity reaches m, so the
    blocks sum to less than m; if m understates it, then, as the
    multiplicities of a rational spectrum sum to n, another eigenvalue's m
    is overstated.  Either way some eigenvalue's blocks miss its m, and
    analyze falls back to the next candidate, or raises after the last.
    Conversely, when every eigenvalue's nullity reaches its m and the m
    sum to n, the polynomial the m came from is the true one.
    """
    shifted = [list(row) for row in b]
    for i, row in enumerate(shifted):
        row[i] -= mu
    n = len(b)
    steps = _eliminate(shifted)
    d = q = d1 = n - len(steps)
    ranks = [n, len(steps)] if d else [n]
    level = _kernel(steps, n) if d < m else []
    # (pivot, row): rows [residual | top | coefficients], made primitive,
    # whose residual stayed nonzero.  `count` vectors have been replayed,
    # fewer than m, as they are independent and replayed only while the
    # nullity is below m.
    found, count = [], 0
    while level:
        tops = []
        for v in level:
            row = _replay(steps, v) + [0] * m
            row[n + count] = 1
            count += 1
            for p, other in found:
                c = row[p]
                if c:
                    a = other[p]
                    row = _primitive([a * x - c * y
                                      for x, y in zip(row, other)])
            if any(row[:d1]):
                found.append((row.index(next(filter(None, row))), row))
            else:
                tops.append(row[d1:n])
        if len(tops) > q:
            raise InternalInconsistencyError(
                f"nullity increment grew from {q} to {len(tops)}")
        q = len(tops)
        if q:
            d += q
            ranks.append(n - d)
        level = [_preimage(steps, n, top) for top in tops] if d < m else []
    return ranks


def rank_pattern_of(a: ExactMatrix, lam) -> RankPattern:
    """Ranks of (a - lam*I)^k for k = 0, 1, ... until they stabilize.

    For a non-eigenvalue lam this is the length-1 pattern (n,).  Scaling
    a - lam*I by the lcm of its denominators changes no rank.
    """
    if not a.is_square:
        raise ValueError("rank patterns require a square matrix")
    n = a.rows
    return RankPattern(n, _rank_pattern(shift(a, lam)._ints, 0, n))


def analyze(a: ExactMatrix) -> AnalysisReport:
    """Recover the Segre characteristic of a rational matrix.

    Scales once to the integer matrix B = d*a.  Its characteristic
    polynomial is monic, so its rational roots mu = d*lam are integers, and
    rank((B - mu*I)^k) = rank((a - lam*I)^k); everything up to the reported
    eigenvalues mu/d is integer arithmetic.  Sweeps the eigenvalues in
    ascending order, measures each rank pattern up to the algebraic
    multiplicity from the characteristic polynomial with one recorded
    elimination of B - mu*I and a ladder of kernels (_rank_pattern),
    converts to block sizes, and cross-checks the blocks against that
    multiplicity.

    The characteristic polynomial is each candidate of _char_polys in
    turn.  One that splits over the integers and passes every cross-check
    is certified by the ladders, so its report is the answer: each nullity
    reaches its m_mu, the generalized eigenspaces of distinct mu are
    independent, and the m_mu sum to n, so those spaces fill Q^n and the
    polynomial is prod (x - mu)^(m_mu).  Any other gives way to the next.
    The last is proven, and its error is raised: IrrationalEigenvalueError
    when the spectrum is not rational, InternalInconsistencyError if a
    cross-check fails (a bug in the arithmetic).
    """
    if not a.is_square:
        raise ValueError("analysis requires a square matrix")
    for coeffs in _char_polys(a._ints):
        try:
            return _report(a._ints, a._d, coeffs)
        except (IrrationalEigenvalueError, InternalInconsistencyError) as exc:
            error = exc
    raise error


def _report(b: list[list[int]], d: int, coeffs: list[int]) -> AnalysisReport:
    """The report of analyze for B = b, scaled by d, if its characteristic
    polynomial has the coefficients `coeffs`."""
    roots, remainder = _rational_roots(coeffs)
    if remainder > 0:
        raise IrrationalEigenvalueError(remainder)
    n = len(b)
    reports = []
    groups = []
    for mu, multiplicity in sorted(roots):
        lam = Fraction(mu, d)
        pattern = RankPattern(n, _rank_pattern(b, mu, multiplicity))
        blocks = blocks_from_rank_pattern(pattern)
        if blocks.weight != multiplicity:
            raise InternalInconsistencyError(
                f"eigenvalue {lam}: blocks {blocks} sum to {blocks.weight}, "
                f"characteristic polynomial says multiplicity {multiplicity}")
        reports.append(EigenvalueReport(lam, pattern, blocks))
        groups.append(blocks)
    total = sum(g.weight for g in groups)
    if total != n:
        raise InternalInconsistencyError(
            f"blocks cover {total} of {n} dimensions")
    segre = SegreCharacteristic(groups).canonical()
    return AnalysisReport(segre, tuple(reports))
