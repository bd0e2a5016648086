"""Unit tests for the SVG layer composition."""

import hashlib
import math
import re

import pytest

from trihex.errors import InvalidParams
from trihex.hexlattice import LatticePoint, rotate120
from trihex.pentagonal import construct_tiling, pentagonal_benzel
from trihex.regions import (
    BenzelParams,
    Region,
    benzel,
    boundary_cycle,
    bounding_hexagon,
    cell_corners,
    region_from_cells,
    trace_boundary,
    triangle,
)
from trihex.render import (
    _BOUNDARY_STROKE,
    _CELL_FILL,
    _CELL_STROKE,
    _HEXAGON_STROKE,
    _MARGIN,
    _SHADOW_STROKE,
    _TILE_FILLS,
    _TILE_STROKE,
    RenderSpec,
    embed,
    render_svg,
)
from trihex.shadow import shadow_word
from trihex.tilings import (
    STONES_AND_BONES,
    TILE_OFFSETS,
    Placement,
    TileKind,
    Tiling,
    cells_of,
    enumerate_tilings,
)


def test_embed_unit_lengths():
    ox, oy = embed(LatticePoint(0, 0), 20.0)
    ax, ay = embed(LatticePoint(1, 0), 20.0)
    bx, by = embed(LatticePoint(0, 1), 20.0)
    assert (ox, oy) == (0.0, 0.0)
    assert abs((ax - ox) ** 2 + (ay - oy) ** 2 - 400.0) < 1e-9
    assert abs((bx - ox) ** 2 + (by - oy) ** 2 - 400.0) < 1e-9
    assert by < 0  # screen y grows downward


def test_single_cell_svg():
    svg = render_svg(region=region_from_cells([(-2, -2)]))
    assert svg.count('class="cell"') == 1
    assert svg.count("<polygon") == 1


def test_tiling_layer_counts():
    t = construct_tiling(2)
    svg = render_svg(tiling=t)
    assert svg.count('class="cell"') == 27
    assert svg.count('class="tile"') == 9


def test_tile_outline_is_the_boundary_cycle_of_its_cells():
    for kind in TileKind:
        for anchor in (LatticePoint(-2, -2), LatticePoint(7, 4)):
            p = Placement(kind, anchor)
            cells = cells_of(p)
            svg = render_svg(tiling=Tiling(Region(frozenset(cells)), (p,)))
            line = next(l for l in svg.splitlines() if 'class="tile"' in l)
            drawn = [
                tuple(map(float, pt.split(",")))
                for pt in re.search(r'points="([^"]*)"', line).group(1).split()
            ]
            expected = [embed(q, 20.0) for q in boundary_cycle(cells)]
            assert len(drawn) == len(expected), (kind, anchor)
            for (x, y), (ex, ey) in zip(drawn, expected):
                assert abs(x - ex) < 0.006 and abs(y - ey) < 0.006, (kind, anchor)


def test_word_layers():
    r = triangle(3)
    w = trace_boundary(r)
    s = shadow_word(w, w.basepoint)
    svg = render_svg(region=r, boundary=w, shadow=s)
    assert svg.count('class="boundary"') == 1
    assert svg.count('class="shadow"') == 1
    # 18 steps -> 19 points in each polyline.
    for cls in ("boundary", "shadow"):
        line = next(l for l in svg.splitlines() if f'class="{cls}"' in l)
        assert line.count(",") == 19


def test_hexagon_layer_and_toggles():
    p = BenzelParams(5, 7)
    svg = render_svg(
        region=benzel(p),
        hexagon=p,
        spec=RenderSpec(show_cells=False),
    )
    assert svg.count('class="hexagon"') == 1
    assert 'class="cell"' not in svg


def test_deterministic_output():
    r = benzel(BenzelParams(4, 5))
    assert render_svg(region=r) == render_svg(region=r)


def test_construction_renders_are_unchanged():
    # sha256 of each document; any change to the embedding, the number
    # format, the viewBox or the layer order shows here.
    t = construct_tiling(3)
    cells = t.region.sorted_cells()
    half = Region(frozenset(cells[: len(cells) // 2]))
    w = trace_boundary(t.region)
    docs = {
        "e0127b1f160ef85393e48dfacc61b8bcc8ba2ec14683181d3e417f89c22e1661": render_svg(
            tiling=t, spec=RenderSpec(show_cells=False)
        ),
        "af19938201ccf8d3a007264477568392bc017d7469cba1f43f15ae2b437ce338": render_svg(
            region=half, tiling=t
        ),
        "bf486776239086280c8aa95674d48010759568bf3ee2fc698b4ac54069d53b46": render_svg(
            tiling=t, boundary=w, shadow=shadow_word(w, w.basepoint)
        ),
        "8ea4ad00fcd3ea3a366e8728635bc7a413f2ebf1ca92c566fe83cfd193583ba1": render_svg(
            tiling=t, hexagon=pentagonal_benzel(3)
        ),
    }
    for digest, svg in docs.items():
        assert hashlib.sha256(svg.encode()).hexdigest() == digest


def test_empty_document():
    assert render_svg() == (
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-10.00 -10.00 20.00 20.00" '
        'width="20.00" height="20.00">\n</svg>\n'
    )


@pytest.mark.parametrize("unit", [math.nan, math.inf, -math.inf, 0.0, -0.0, -5.0])
def test_unit_must_be_positive_and_finite(unit):
    with pytest.raises(InvalidParams, match="unit"):
        RenderSpec(unit=unit)


# The render that embeds and formats every drawn vertex as a LatticePoint,
# kept as the reference that render_svg must match byte for byte.
def _reference_fmt(v):
    out = f"{v:.2f}"
    return "0.00" if out == "-0.00" else out


_REFERENCE_RINGS = {kind: boundary_cycle(offsets) for kind, offsets in TILE_OFFSETS.items()}


def _reference_render_svg(
    region=None, tiling=None, boundary=None, shadow=None, hexagon=None, spec=RenderSpec()
):
    elements = []
    drawn = {}

    def points(vertices):
        out = []
        for q in vertices:
            text = drawn.get(q)
            if text is None:
                x, y = embed(q, spec.unit)
                text = drawn[q] = f"{_reference_fmt(x)},{_reference_fmt(y)}"
            out.append(text)
        return " ".join(out)

    if tiling is not None and region is None:
        region = tiling.region
    if hexagon is not None:
        elements.append(
            f'<polygon class="hexagon" points="{points(bounding_hexagon(hexagon))}" '
            f'fill="none" stroke="{_HEXAGON_STROKE}" stroke-width="1" '
            'stroke-dasharray="4 3" />'
        )
    if region is not None and spec.show_cells:
        for c in region.sorted_cells():
            elements.append(
                f'<polygon class="cell" points="{points(cell_corners(c))}" '
                f'fill="{_CELL_FILL}" stroke="{_CELL_STROKE}" '
                'stroke-width="1" />'
            )
    if tiling is not None:
        for p in tiling.placements:
            outline = points(p.anchor + d for d in _REFERENCE_RINGS[p.kind])
            elements.append(
                f'<polygon class="tile" points="{outline}" '
                f'fill="{_TILE_FILLS[p.kind]}" stroke="{_TILE_STROKE}" '
                'stroke-width="2" />'
            )
        if not (spec.show_cells and tiling.region == region):
            for c in tiling.region.cells:
                points(cell_corners(c))
    for word, cls, stroke in (
        (boundary, "boundary", _BOUNDARY_STROKE),
        (shadow, "shadow", _SHADOW_STROKE),
    ):
        if word is not None:
            elements.append(
                f'<polyline class="{cls}" points="{points(word.vertices())}" '
                f'fill="none" stroke="{stroke}" stroke-width="2.5" '
                'stroke-linejoin="round" />'
            )
    corners = [embed(q, spec.unit) for q in drawn] or [(0.0, 0.0)]
    xs = [x for x, _ in corners]
    ys = [y for _, y in corners]
    x0, y0 = min(xs) - _MARGIN, min(ys) - _MARGIN
    w = max(xs) - min(xs) + 2 * _MARGIN
    h = max(ys) - min(ys) + 2 * _MARGIN
    f = _reference_fmt
    header = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{f(x0)} {f(y0)} {f(w)} {f(h)}" '
        f'width="{f(w)}" height="{f(h)}">'
    )
    return "\n".join([header] + elements + ["</svg>"]) + "\n"


def _moved(region, turns, shift):
    """The region turned by turns * 120 degrees about the origin, then
    moved by shift (a class-0 offset, so cell centres stay cell centres)."""
    cells = region.cells
    for _ in range(turns):
        cells = [rotate120(c) for c in cells]
    return Region(frozenset(LatticePoint(c.x + shift[0], c.y + shift[1]) for c in cells))


def _scenes():
    """Keyword arguments of render_svg: every layer, negative coordinates,
    tilings with and without their cells, tilings drawn over a region that
    is not theirs, and tilings whose few tiles leave their region's undrawn
    cell corners to set the viewBox."""
    scenes = [{}]
    for source, turns, shift in (
        (benzel(BenzelParams(4, 5)), 1, (-30, -12)),
        (benzel(BenzelParams(3, 6)), 2, (9, -27)),
        (triangle(6), 0, (-300, 600)),
        (triangle(5), 1, (0, 0)),
    ):
        r = _moved(source, turns, shift)
        w = trace_boundary(r)
        t = next(enumerate_tilings(r, STONES_AND_BONES))
        half = Region(frozenset(r.sorted_cells()[: len(r) // 2]))
        scenes += [
            {"region": r, "boundary": w, "shadow": shadow_word(w, w.basepoint)},
            {"region": r, "hexagon": BenzelParams(4, 5), "show_cells": False},
            {"tiling": t, "boundary": w, "show_cells": False},
            {"tiling": t, "region": half},
            {"tiling": t, "region": half, "show_cells": False},
            {"tiling": Tiling(r, t.placements[1:3]), "show_cells": False},
            {"tiling": Tiling(r, t.placements[:1]), "region": half},
            {"tiling": t, "shadow": shadow_word(w, w.basepoint), "hexagon": BenzelParams(3, 6)},
        ]
    return scenes


@pytest.mark.parametrize("unit", [0.001, 0.37, 7.3, 20.0, 1e6, 1e13])
def test_render_matches_the_reference(unit):
    for scene in _scenes():
        kwargs = dict(scene)
        spec = RenderSpec(unit=unit, show_cells=kwargs.pop("show_cells", True))
        assert render_svg(spec=spec, **kwargs) == _reference_render_svg(spec=spec, **kwargs)
