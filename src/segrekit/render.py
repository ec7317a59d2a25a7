"""Diagrams of Jordan structure: block runs, ASCII, SVG, Ferrers.

A structure grid is the n x n sparsity-and-coloring pattern of a Jordan
matrix, stored as one (size, group) run per Jordan block in diagonal
order.  Each row of a block holds its group's color on the diagonal, a 1
to its right unless it is the block's last row, and zeros elsewhere.  The
SVG output is byte deterministic: same input, same bytes.
"""

import string
from collections import namedtuple

from .jordan import JordanSpec
from .linalg import InternalInconsistencyError, _integer
from .partitions import Partition

CELL_PX = 16
GUTTER_PX = 8

_PALETTE = ("#ffa500", "#008000", "#ff0000", "#0000ff", "#800080")


class StructureGrid(namedtuple("StructureGrid", "runs")):
    """The Jordan blocks of a matrix as (size, group) runs down the
    diagonal, group a 1-based eigenvalue index; both are ints >= 1."""

    __slots__ = ()

    def __new__(cls, runs):
        runs = tuple((_integer(size, "block size", 1),
                      _integer(group, "block group", 1))
                     for size, group in runs)
        if not runs:
            raise ValueError("a structure grid needs at least one block")
        return super().__new__(cls, runs)

    @property
    def n(self) -> int:
        return sum(size for size, _ in self.runs)

    @property
    def group_count(self) -> int:
        return max(group for _, group in self.runs)


def grid_of(spec: JordanSpec) -> StructureGrid:
    """Structure grid of build_jordan(spec); group i colors its blocks."""
    return StructureGrid(tuple((size, index) for index, group
                               in enumerate(spec.segre.groups, start=1)
                               for size in group.parts))


def _rows(grid: StructureGrid):
    # (0-based row, its group, whether a 1 sits right of the diagonal)
    r = 0
    for size, group in grid.runs:
        for k in range(size):
            yield r + k, group, k < size - 1
        r += size


def render_ascii(grid: StructureGrid) -> str:
    """One text line per matrix row: '.' zero, '1' superdiagonal, letters
    a, b, c, ... per eigenvalue group.

    With more than 26 groups the letter alphabet runs out, so every
    eigenvalue cell falls back to a bracketed index token "<i>" instead
    (lines are then wider than n characters).
    """
    return "\n".join(_ascii_lines(grid))


def _ascii_lines(grid: StructureGrid):
    lettered = grid.group_count <= len(string.ascii_lowercase)
    n = grid.n
    for r, group, one in _rows(grid):
        glyph = string.ascii_lowercase[group - 1] if lettered else f"<{group}>"
        right = "1" if one else ""
        yield "." * r + glyph + right + "." * (n - r - 1 - len(right))


def _fill(index: int) -> str:
    # palette cycles every 5 groups; each wrap darkens the base color
    base = _PALETTE[(index - 1) % len(_PALETTE)]
    level = (index - 1) // len(_PALETTE)
    if level == 0:
        return base
    shrink = 0.7 ** level
    channels = (int(round(int(base[i:i + 2], 16) * shrink)) for i in (1, 3, 5))
    return "#" + "".join(f"{ch:02x}" for ch in channels)


def _svg_grid(grid: StructureGrid, x: int, y: int):
    n = grid.n
    yield f'<g class="grid" transform="translate({x},{y})">\n'
    for r, group, one in _rows(grid):
        fills = ["#ffffff"] * n
        fills[r] = _fill(group)
        if one:
            fills[r + 1] = "#000000"
        yield "".join(f'<rect x="{c * CELL_PX}" y="{r * CELL_PX}" '
                      f'width="{CELL_PX}" height="{CELL_PX}" fill="{fill}" '
                      'stroke="#cccccc" stroke-width="0.5"/>\n'
                      for c, fill in enumerate(fills))
    yield (f'<rect x="0" y="0" width="{n * CELL_PX}" height="{n * CELL_PX}" '
           'fill="none" stroke="#000000" stroke-width="1"/>\n</g>\n')


def _svg_pieces(grids, count: int, side: int, columns: int):
    """The SVG document for `count` grids of at most side x side cells,
    laid out row-major `columns` per row: the header, one framed
    <g class="grid"> element per grid, then the footer.  A grid comes one
    matrix row at a time, so memory stays O(n) however large it is.

    Raises InternalInconsistencyError when `grids` holds a different number
    of grids, so a caller that takes `count` from elsewhere gets it checked.
    """
    slot = side * CELL_PX + GUTTER_PX
    width = GUTTER_PX + min(columns, count) * slot
    height = GUTTER_PX + -(-count // columns) * slot
    yield ('<?xml version="1.0" encoding="UTF-8"?>\n'
           f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">'
           + ("\n" if count else ""))
    drawn = 0
    for grid in grids:
        yield from _svg_grid(grid, GUTTER_PX + drawn % columns * slot,
                             GUTTER_PX + drawn // columns * slot)
        drawn += 1
    if drawn != count:
        raise InternalInconsistencyError(f"expected {count} grids, got {drawn}")
    yield "</svg>\n"


def render_svg(grids, columns: int = 4) -> str:
    """One SVG document laying the grids out row-major, `columns` per row.

    Cells are CELL_PX squares with a light stroke, each grid wrapped in a
    framed <g class="grid"> element, GUTTER_PX of space around every slot.
    Output is pure string assembly, hence byte-deterministic.
    """
    _integer(columns, "columns", 1)
    grids = list(grids)
    side = max((g.n for g in grids), default=0)
    return "".join(_svg_pieces(grids, len(grids), side, columns))


def render_ferrers(p: Partition) -> str:
    """Rows of '*', one row per part, largest on top."""
    if not p:
        raise ValueError("cannot draw an empty partition")
    return "\n".join("*" * part for part in p.parts)


def render_ferrers_conjugate_pair(p: Partition) -> str:
    """A partition and its conjugate side by side, three spaces apart."""
    if not p:
        raise ValueError("cannot draw an empty partition")
    q = p.conjugate()
    pad = p.parts[0] + 3
    lines = []
    for i in range(max(len(p), len(q))):
        left = "*" * p.parts[i] if i < len(p.parts) else ""
        right = "*" * q.parts[i] if i < len(q.parts) else ""
        lines.append((left.ljust(pad) + right) if right else left)
    return "\n".join(lines)
