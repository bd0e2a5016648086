"""Unit tests for benzels, triangles, boundary words, and serialization."""

import pytest

from trihex.errors import (
    EmptyRegion,
    FormatError,
    InvalidParams,
    NonIsolatedSpur,
    NotSimplyConnected,
)
from trihex.hexlattice import (
    LatticePoint,
    cross,
    rotate120,
    signed_area,
    word_from_string,
)
from trihex.regions import (
    BenzelParams,
    Region,
    benzel,
    boundary_cycle,
    boundary_word_closed_form,
    bounding_hexagon,
    despur,
    find_spurs,
    region_from_json,
    region_to_json,
    rightmost_corner,
    trace_boundary,
    triangle,
    word_from_text,
    word_to_text,
)

from trihex.shadow import cl_invariant_path

from reference import cell_corners, cyclically_equal, region_from_cells, rotated

# Center offsets between edge-adjacent cells.
CELL_NEIGHBOR_OFFSETS = [
    LatticePoint(*d) for d in ((1, -1), (1, 2), (2, 1), (-1, 1), (-1, -2), (-2, -1))
]


def all_valid_params(bound: int):
    for a in range(2, bound + 1):
        for b in range(2, bound + 1):
            if a <= 2 * b and b <= 2 * a:
                yield BenzelParams(a, b)


def test_params_validation():
    with pytest.raises(InvalidParams):
        BenzelParams(1, 2)
    with pytest.raises(InvalidParams):
        BenzelParams(2, 5)
    with pytest.raises(InvalidParams):
        BenzelParams(5, 2)
    with pytest.raises(InvalidParams, match="parameters must be integers"):
        BenzelParams(2, True)
    assert BenzelParams(2, 4).cls == 0
    assert BenzelParams(2, 2).cls == 1
    assert BenzelParams(2, 3).cls == -1


def test_region_rejects_non_centers():
    with pytest.raises(InvalidParams):
        Region(frozenset({LatticePoint(0, 0)}))
    with pytest.raises(InvalidParams, match="is not a LatticePoint"):
        Region(frozenset({(-2, -2), (-1, 0), (0, -1)}))


@pytest.mark.parametrize("kind", [set, list, tuple])
def test_region_cells_must_be_a_frozenset(kind):
    # A set would make the region unhashable, and a list or tuple would fail
    # the subset tests of the engines, each with a bare TypeError.
    with pytest.raises(InvalidParams) as err:
        Region(kind(triangle(2).cells))
    assert str(err.value) == f"cells must be a frozenset, got {kind.__name__}"


def test_small_benzels():
    assert len(benzel(BenzelParams(2, 2))) == 3
    assert len(benzel(BenzelParams(3, 3))) == 6
    assert len(benzel(BenzelParams(5, 7))) == 27


def test_benzels_match_the_corner_definition():
    # Brute force over the hexagon's bounding box: the class -1 centers
    # whose six corners all lie inside or on the closed bounding hexagon.
    large = [BenzelParams(22, 26), BenzelParams(40, 21), BenzelParams(51, 57)]
    for p in [*all_valid_params(14), *large]:
        hexagon = bounding_hexagon(p)
        edges = [(v, w - v) for v, w in zip(hexagon, hexagon[1:] + hexagon[:1])]
        xs = [v.x for v in hexagon]
        ys = [v.y for v in hexagon]
        expected = {
            c
            for c in (
                LatticePoint(x, y)
                for x in range(min(xs), max(xs) + 1)
                for y in range(min(ys), max(ys) + 1)
            )
            if (c.x + c.y) % 3 == 2
            and all(
                cross(d, q - v) >= 0 for q in cell_corners(c) for v, d in edges
            )
        }
        assert benzel(p).cells == expected, (p.a, p.b)


def test_benzel_rotation_invariance():
    for p in (BenzelParams(4, 6), BenzelParams(5, 7), BenzelParams(4, 4)):
        cells = benzel(p).cells
        assert frozenset(rotate120(c) for c in cells) == cells


def test_bounding_hexagon_rightmost():
    p = BenzelParams(5, 7)
    hexagon = bounding_hexagon(p)
    corner = rightmost_corner(p)
    assert corner in hexagon
    assert corner == LatticePoint(7, 2)
    assert max(2 * v.x - v.y for v in hexagon) == 2 * corner.x - corner.y


def test_triangle_shape():
    assert len(triangle(1)) == 1
    assert len(triangle(6)) == 21
    assert triangle(3).cells == benzel(BenzelParams(3, 3)).cells
    with pytest.raises(InvalidParams):
        triangle(0)
    with pytest.raises(InvalidParams):
        triangle(True)


def test_cell_corners_surround_center():
    center = LatticePoint(-2, -2)
    corners = cell_corners(center)
    assert len(set(corners)) == 6
    total = LatticePoint(0, 0)
    for c in corners:
        total = total + (c - center)
    assert total == LatticePoint(0, 0)


def test_trace_boundary_single_cell():
    r = region_from_cells([(-2, -2)])
    w = trace_boundary(r)
    assert len(w) == 6
    assert signed_area(w) == 1


def test_trace_boundary_area_is_cell_count():
    for p in all_valid_params(8):
        r = benzel(p)
        if r.cells:
            assert signed_area(trace_boundary(r)) == len(r)


def test_trace_boundary_rejects_holes():
    # A ring of six cells around an uncovered center.
    center = LatticePoint(1, 1)
    ring = Region(frozenset(center + d for d in CELL_NEIGHBOR_OFFSETS))
    with pytest.raises(NotSimplyConnected) as e:
        trace_boundary(ring)
    assert str(e.value) == "region boundary is not a single closed curve"


def test_trace_boundary_rejects_disconnected():
    r = region_from_cells([(-2, -2), (4, 4)])
    with pytest.raises(NotSimplyConnected) as e:
        trace_boundary(r)
    assert str(e.value) == "region cells are not edge-connected"


def test_trace_boundary_rejects_an_island_inside_a_hole():
    # The twelve cells two steps from a center, and the center itself: the
    # six cells between them are missing, so the center is a second piece.
    center = LatticePoint(1, 1)
    near = {center + d for d in CELL_NEIGHBOR_OFFSETS}
    far = {n + d for n in near for d in CELL_NEIGHBOR_OFFSETS} - near - {center}
    assert len(far) == 12
    with pytest.raises(NotSimplyConnected) as e:
        trace_boundary(Region(frozenset(far | {center})))
    assert str(e.value) == "region cells are not edge-connected"


def test_trace_boundary_empty():
    for trace in (trace_boundary, cl_invariant_path):
        with pytest.raises(EmptyRegion) as e:
            trace(Region(frozenset()))
        assert str(e.value) == "cannot trace the boundary of an empty region"


@pytest.mark.parametrize("cells", [[], ()])
def test_boundary_cycle_empty(cells):
    with pytest.raises(EmptyRegion) as e:
        boundary_cycle(cells)
    assert str(e.value) == "cannot trace the boundary of an empty region"


def test_closed_form_words_match_tracing():
    for p in all_valid_params(12):
        w = despur(boundary_word_closed_form(p))
        assert cyclically_equal(w, trace_boundary(benzel(p))), (p.a, p.b)


def test_closed_form_word_is_closed_and_counts_cells():
    # Also pins the spur pairs its docstring states, class by class.
    for p in all_valid_params(30):
        w = boundary_word_closed_form(p)
        assert w.is_closed
        assert signed_area(w) == len(benzel(p)), (p.a, p.b)
        n = len(w.steps)
        spurs = find_spurs(w)
        removed = n - len(despur(w).steps)
        if p.cls == 1:
            assert spurs == [], (p.a, p.b)
        elif p.cls == -1 or (p.s and p.t):
            assert len(spurs) == 3 and removed == 6, (p.a, p.b)
            assert (n - 1 in spurs) == (p.cls == -1), (p.a, p.b)
        else:  # degenerate class 0
            assert len(spurs) == 3 and n - 1 in spurs, (p.a, p.b)
            assert removed > 6, (p.a, p.b)


HEXAGON = "b a' c b' a c'"  # counterclockwise around the cell at (-2, -2)


def test_find_spurs_and_despur():
    w = word_from_string("b c c' a' c b' a c'", LatticePoint(-1, -2))
    assert find_spurs(w) == [1]
    d = despur(w)
    assert d.tokens() == HEXAGON.split()
    assert find_spurs(d) == []
    # Overlapping pairs name the step they share, also across the wrap.
    with pytest.raises(NonIsolatedSpur, match="near step 2$"):
        find_spurs(word_from_string("b a a' a b'"))
    with pytest.raises(NonIsolatedSpur, match="near step 0$"):
        find_spurs(word_from_string("a' a b b' a"))
    # An open word loses only its interior pairs and keeps its endpoints.
    w = word_from_string("a b a'")
    assert despur(w) == w
    assert despur(word_from_string("a a' b")) == word_from_string("b")


def test_despur_cascades():
    # Removing the inner a a' pair exposes the surrounding c c' pair.
    w = word_from_string("b c a a' c' a' c b' a c'", LatticePoint(-1, -2))
    d = despur(w)
    assert d.tokens() == HEXAGON.split()


def test_despur_handles_wraparound():
    # First step a cancels the final step a' across the word boundary
    # (no adjacent pair exists inside); the basepoint must move onto the
    # surviving loop.
    w = word_from_string("a " + HEXAGON + " a'", LatticePoint(-2, -2))
    assert w.is_closed
    d = despur(w)
    assert d.tokens() == HEXAGON.split()
    assert d.basepoint == LatticePoint(-1, -2)


def test_cyclic_equality():
    u = word_from_string("b a' c b' a c'", LatticePoint(-1, -2))
    assert cyclically_equal(u, rotated(u, 2))
    v = word_from_string("b a' c b' a c'", LatticePoint(2, 1))
    assert not cyclically_equal(u, v)


def test_cyclic_equality_of_different_lengths_and_empty_words():
    u = word_from_string("b a' c b' a c'")
    assert not cyclically_equal(u, word_from_string("a b c a' b' c' a a'"))
    empty = word_from_string("", LatticePoint(1, 1))
    assert cyclically_equal(empty, word_from_string("", LatticePoint(1, 1)))
    assert not cyclically_equal(empty, word_from_string("", LatticePoint(-1, 2)))


def test_region_json_roundtrip():
    r = benzel(BenzelParams(4, 5))
    assert region_from_json(region_to_json(r)).cells == r.cells


def test_region_json_rejects_bad_input():
    with pytest.raises(FormatError):
        region_from_json("not json")
    with pytest.raises(FormatError):
        region_from_json({"cells": [[0, 0]], "extra": 1})
    with pytest.raises(FormatError):
        region_from_json({"cells": [[1, 1], [1, 1]]})
    with pytest.raises(FormatError):
        region_from_json({"cells": [[0, 0]]})  # class 0, not a center


def test_word_text_roundtrip():
    w = boundary_word_closed_form(BenzelParams(3, 4))
    again = word_from_text(word_to_text(w))
    assert again == w
    with pytest.raises(FormatError):
        word_from_text("base=1,x a b")
    with pytest.raises(FormatError):
        word_from_text("a q")
