"""Exact enumeration of Segre characteristics and Jordan structure analysis.

The Segre characteristic of a square matrix lists its Jordan block sizes
grouped by eigenvalue; it is a complete similarity invariant.  This
package enumerates and counts the characteristics of a given weight,
recovers them from concrete rational matrices with exact arithmetic, and
draws the corresponding block structures.
"""

from .partitions import (Partition, enumerate_partitions,
                         iter_partition_tuples, partition_count)
from .segre import (SegreCharacteristic, SegreParseError, count_segre_gf,
                    count_segre_sum, enumerate_segre, format_segre, iter_segre,
                    parse_segre)
from .rank_analysis import (NonMonotoneGrowthError, RankPattern,
                            blocks_from_rank_pattern, nullity_growth,
                            rank_pattern_from_blocks)
from .linalg import (ExactMatrix, PolynomialZ, char_poly, mat_mul,
                     matrix_from_json_dict, rank, rational_eigenvalues,
                     shift)
from .jordan import (AnalysisReport, EigenvalueReport,
                     InternalInconsistencyError, IrrationalEigenvalueError,
                     JordanSpec, analyze, build_jordan, rank_pattern_of)
from .render import (StructureGrid, grid_of, render_ascii, render_ferrers,
                     render_ferrers_conjugate_pair, render_svg)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "EigenvalueReport",
    "ExactMatrix",
    "InternalInconsistencyError",
    "IrrationalEigenvalueError",
    "JordanSpec",
    "NonMonotoneGrowthError",
    "Partition",
    "PolynomialZ",
    "RankPattern",
    "SegreCharacteristic",
    "SegreParseError",
    "StructureGrid",
    "analyze",
    "blocks_from_rank_pattern",
    "build_jordan",
    "char_poly",
    "count_segre_gf",
    "count_segre_sum",
    "enumerate_partitions",
    "enumerate_segre",
    "format_segre",
    "grid_of",
    "iter_partition_tuples",
    "iter_segre",
    "mat_mul",
    "matrix_from_json_dict",
    "nullity_growth",
    "parse_segre",
    "partition_count",
    "rank",
    "rank_pattern_from_blocks",
    "rank_pattern_of",
    "rational_eigenvalues",
    "render_ascii",
    "render_ferrers",
    "render_ferrers_conjugate_pair",
    "render_svg",
    "shift",
]
