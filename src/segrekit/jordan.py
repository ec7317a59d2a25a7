"""Jordan matrices: construction from a Segre characteristic and recovery
of the characteristic from an arbitrary rational matrix.

analyze() inverts build_jordan() up to similarity: characteristic
polynomial -> rational eigenvalues -> rank pattern per eigenvalue ->
block sizes -> canonical Segre characteristic.  linalg._spectrum does
the integer half, up to rank patterns that certify the polynomial; this
module turns its eigenvalues and patterns into the report.
"""

import math
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction

from .linalg import ExactMatrix, shift, _rank_pattern, _ratio, _spectrum
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
        eigs = tuple(Fraction(*_ratio(e)) for e in eigenvalues)
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


def _eigenvalue_text(value: Fraction) -> str:
    """str(value) for a Fraction of any size: Decimal writes every digit
    of an int without sys.get_int_max_str_digits()."""
    text = str(Decimal(value.numerator))
    if value.denominator == 1:
        return text
    return text + "/" + str(Decimal(value.denominator))


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
                    "value": _eigenvalue_text(r.eigenvalue),
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


def rank_pattern_of(a: ExactMatrix, lam) -> RankPattern:
    """Ranks of (a - lam*I)^k for k = 0, 1, ... until they stabilize.

    For a non-eigenvalue lam this is the length-1 pattern (n,).  Scaling
    a - lam*I by the lcm of its denominators changes no rank.
    """
    if not a.is_square:
        raise ValueError("rank patterns require a square matrix")
    return RankPattern(a.rows, _rank_pattern(shift(a, lam)._ints, 0, a.rows))


def analyze(a: ExactMatrix) -> AnalysisReport:
    """Recover the Segre characteristic of a rational matrix.

    Scales once to the integer matrix B = d*a, whose characteristic
    polynomial is monic, so its rational roots mu = d*lam are integers,
    and rank((B - mu*I)^k) = rank((a - lam*I)^k).  _spectrum finds the mu,
    ascending, with their rank patterns up to the algebraic multiplicity;
    it tries the next candidate polynomial while one does not split or a
    nullity misses its multiplicity.  Raises IrrationalEigenvalueError when
    the spectrum is not rational, InternalInconsistencyError if a check
    fails (a bug in the arithmetic).
    """
    if not a.is_square:
        raise ValueError("analysis requires a square matrix")
    spectrum, remainder = _spectrum(a._ints)
    if remainder:
        raise IrrationalEigenvalueError(remainder)
    reports = []
    for mu, ranks in spectrum:
        pattern = RankPattern(a.rows, ranks)
        reports.append(EigenvalueReport(Fraction(mu, a._d), pattern,
                                        blocks_from_rank_pattern(pattern)))
    segre = SegreCharacteristic([r.blocks for r in reports]).canonical()
    return AnalysisReport(segre, tuple(reports))
