"""Exact enumeration of Segre characteristics and Jordan structure analysis.

The Segre characteristic of a square matrix lists its Jordan block sizes
grouped by eigenvalue; it is a complete similarity invariant.  This
package enumerates and counts the characteristics of a given weight,
recovers them from concrete rational matrices with exact arithmetic, and
draws the corresponding block structures.

`import segrekit` imports none of its modules.  The first public name
looked up on the package, or a module's name, imports the whole library
and binds every name in __all__.  A module imported on its own (`python
-m segrekit` runs cli, whose commands import what they run) loads only
what it imports.
"""

__version__ = "0.1.0"

# each public name under the module that defines it
_NAMES = {
    "partitions": ("InternalInconsistencyError", "Partition",
                   "enumerate_partitions", "iter_partition_tuples",
                   "partition_count"),
    "segre": ("SegreCharacteristic", "count_segre_gf", "count_segre_sum",
              "enumerate_segre", "format_segre", "iter_segre"),
    "rank_analysis": ("NonMonotoneGrowthError", "RankPattern",
                      "blocks_from_rank_pattern", "nullity_growth",
                      "rank_pattern_from_blocks"),
    "linalg": ("ExactMatrix", "PolynomialZ", "char_poly", "mat_mul",
               "matrix_from_json_dict", "rank", "rational_eigenvalues",
               "shift"),
    "jordan": ("AnalysisReport", "EigenvalueReport",
               "IrrationalEigenvalueError", "JordanSpec", "analyze",
               "build_jordan", "rank_pattern_of"),
    "render": ("StructureGrid", "grid_of", "render_ascii", "render_ferrers",
               "render_svg"),
}

__all__ = sorted(name for names in _NAMES.values() for name in names)

# a module's name loads the library too: after `from segrekit import cli`
# a tool wrapping its functions (bench/tracing.py) finds every module
_MODULES = ("cli", *_NAMES)


def __getattr__(name):
    # all modules at once, never one per name: analyze() needs nearly all
    # of them, and would otherwise compile them inside its first call
    if name not in __all__ and name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    modules = {m: import_module(f"{__name__}.{m}") for m in _NAMES}
    globals().update((key, getattr(modules[m], key))
                     for m, names in _NAMES.items() for key in names)
    if name not in globals():  # cli: `from segrekit import cli` imports it
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]
