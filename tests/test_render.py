import xml.etree.ElementTree as ET

import pytest

from segrekit import (InternalInconsistencyError, JordanSpec, Partition,
                      SegreCharacteristic, StructureGrid, enumerate_segre,
                      grid_of, render_ascii, render_ferrers, render_svg)
from segrekit.render import _svg_pieces


def spec_of(groups):
    return JordanSpec.positional(SegreCharacteristic(groups))


def test_grid_of_single_block():
    g = grid_of(spec_of([[2]]))
    assert g.n == 2
    assert g.runs == ((2, 1),)
    assert g.group_count == 1
    assert render_ascii(g) == "a1\n.a"


def test_grid_of_worked_example():
    g = grid_of(spec_of([[2, 1], [3], [1], [2, 1]]))
    assert g.n == 10
    # one (size, group) run per block in diagonal order: the diagonal groups
    # are 1,1,1,2,2,2,3,4,4,4 and the 1s sit at (1,2), (4,5), (5,6), (8,9)
    assert g.runs == ((2, 1), (1, 1), (3, 2), (1, 3), (2, 4), (1, 4))
    assert g.group_count == 4
    assert render_ascii(g) == ("a1........\n"
                               ".a........\n"
                               "..a.......\n"
                               "...b1.....\n"
                               "....b1....\n"
                               ".....b....\n"
                               "......c...\n"
                               ".......d1.\n"
                               "........d.\n"
                               ".........d")
    assert g == StructureGrid([[2, 1], [1, 1], [3, 2], [1, 3], [2, 4], [1, 4]])


def test_grid_validation():
    for runs in ((), ((0, 1),), ((2, 0),), ((-1, 1),), ((1, 1), (2, -3)),
                 ((True, 1),), ((1.0, 1),), (("2", 1),)):
        with pytest.raises(ValueError):
            StructureGrid(runs)
    assert StructureGrid(((1, 7),)).group_count == 7


def test_structure_grid_is_a_frozen_record():
    g = grid_of(JordanSpec.positional(SegreCharacteristic([[2, 1], [1]])))
    assert repr(g) == "StructureGrid(runs=((2, 1), (1, 1), (1, 2)))"
    assert g == StructureGrid([[2, 1], [1, 1], [1, 2]])
    assert hash(g) == hash(StructureGrid([(2, 1), (1, 1), (1, 2)]))
    assert g != StructureGrid([[2, 1], [1, 2], [1, 1]])
    with pytest.raises(AttributeError):
        g.runs = ((1, 1),)
    with pytest.raises(AttributeError):
        g.extra = 1
    with pytest.raises(ValueError):
        StructureGrid([(2, 1), (0, 2)])


def test_ascii_goldens():
    assert render_ascii(grid_of(spec_of([[2]]))) == "a1\n.a"
    assert render_ascii(grid_of(spec_of([[1], [1]]))) == "a.\n.b"
    assert render_ascii(grid_of(spec_of([[3, 1]]))) == (
        "a1..\n"
        ".a1.\n"
        "..a.\n"
        "...a")
    assert render_ascii(grid_of(spec_of([[1]] * 3))) == "a..\n.b.\n..c"


def test_ascii_falls_back_past_z():
    grid = grid_of(spec_of([[1]] * 27))
    text = render_ascii(grid)
    assert "<1>" in text and "<27>" in text
    assert "a" not in text


def test_ferrers_goldens():
    assert render_ferrers(Partition([3, 1])) == "***\n*"
    assert render_ferrers(Partition([1, 1, 1])) == "*\n*\n*"
    with pytest.raises(ValueError):
        render_ferrers(Partition())


def test_svg_counts_one_group_element_per_grid():
    grids = [grid_of(JordanSpec.positional(s)) for s in enumerate_segre(4)]
    svg = render_svg(grids)
    assert svg.count('<g class="grid"') == 14
    # every cell of every 4x4 grid is drawn, plus one frame each
    assert svg.count("<rect") == 14 * (16 + 1)


def test_svg_is_byte_deterministic():
    grids = [grid_of(JordanSpec.positional(s)) for s in enumerate_segre(3)]
    assert render_svg(grids) == render_svg(grids)
    assert render_svg(grids, columns=2) == render_svg(grids, columns=2)


def test_svg_is_well_formed_xml():
    grids = [grid_of(JordanSpec.positional(s)) for s in enumerate_segre(3)]
    root = ET.fromstring(render_svg(grids))
    assert root.tag.endswith("svg")
    ns = "{http://www.w3.org/2000/svg}"
    groups = root.findall(f"{ns}g")
    assert len(groups) == 6
    assert all(g.attrib["class"] == "grid" for g in groups)


def test_svg_layout_dimensions():
    grids = [grid_of(spec_of([[2]]))] * 5
    svg = render_svg(grids, columns=4)
    # 4 columns of 32px slots with 8px gutters; two rows
    assert 'width="168"' in svg
    assert 'height="88"' in svg
    one_row = render_svg(grids[:2], columns=4)
    assert 'width="88"' in one_row and 'height="48"' in one_row


def test_svg_empty_input():
    assert render_svg([]) == (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" width="8" height="8" '
        'viewBox="0 0 8 8"></svg>\n')


def test_svg_pieces_check_the_grid_count():
    grids = [grid_of(JordanSpec.positional(s)) for s in enumerate_segre(3)]
    pieces = list(_svg_pieces(grids, 6, 3, 4))
    # the header; per grid its <g> tag, one piece per matrix row and the
    # frame; the footer
    assert len(pieces) == 1 + 6 * (1 + 3 + 1) + 1
    assert "".join(pieces) == render_svg(grids)
    for count in (5, 7):
        with pytest.raises(InternalInconsistencyError):
            list(_svg_pieces(grids, count, 3, 4))


def test_svg_rejects_bad_columns():
    with pytest.raises(ValueError):
        render_svg([grid_of(spec_of([[1]]))], columns=0)


def test_svg_palette_distinct_for_many_groups():
    grid = grid_of(spec_of([[1]] * 12))
    svg = render_svg([grid])
    fills = set()
    for chunk in svg.split('fill="')[1:]:
        fills.add(chunk.split('"', 1)[0])
    # 12 group colors plus white zeros and the black frame and 1-cells
    group_fills = fills - {"#ffffff", "#000000", "none"}
    assert len(group_fills) == 12
