"""Unit tests for the SVG layer composition."""

import hashlib
import re

from trihex.hexlattice import LatticePoint
from trihex.pentagonal import construct_tiling, pentagonal_benzel
from trihex.regions import (
    BenzelParams,
    Region,
    benzel,
    boundary_cycle,
    region_from_cells,
    trace_boundary,
    triangle,
)
from trihex.render import RenderSpec, embed, render_svg
from trihex.shadow import shadow_word
from trihex.tilings import Placement, TileKind, Tiling, cells_of


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
        spec=RenderSpec(show_hexagon=True, show_cells=False),
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
            tiling=t, hexagon=pentagonal_benzel(3), spec=RenderSpec(show_hexagon=True)
        ),
    }
    for digest, svg in docs.items():
        assert hashlib.sha256(svg.encode()).hexdigest() == digest


def test_empty_document():
    assert render_svg() == (
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-10.00 -10.00 20.00 20.00" '
        'width="20.00" height="20.00">\n</svg>\n'
    )
