"""Deterministic SVG rendering of regions, tilings, words, and shadows.

The only place the irrational Cartesian embedding appears: the lattice
point x + y*omega maps to (x - y/2, -y*sqrt(3)/2), the minus sign giving
screen coordinates (y grows downward).  Every element carries a class
attribute (cell / tile / boundary / shadow / hexagon) so output can be
inspected and counted; identical inputs produce byte-identical SVG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .hexlattice import LatticePoint, Word
from .regions import BenzelParams, Region, boundary_cycle, bounding_hexagon, cell_corners
from .tilings import TILE_OFFSETS, TileKind, Tiling

_SQRT3_2 = math.sqrt(3.0) / 2.0

_TILE_FILLS: Dict[TileKind, str] = {
    TileKind.BONE_AB: "#9ecae1",
    TileKind.BONE_BC: "#a1d99b",
    TileKind.BONE_CA: "#fdae6b",
    TileKind.STONE_R: "#e9a3c9",
    TileKind.STONE_L: "#c2b2d6",
}


@dataclass(frozen=True)
class RenderSpec:
    """Knobs for the SVG output: scale, palette, and the cell and hexagon
    layers; the other layers are drawn whenever they are given."""

    unit: float = 20.0
    margin: float = 10.0
    cell_fill: str = "#f5f0e6"
    cell_stroke: str = "#999999"
    tile_stroke: str = "#222222"
    boundary_stroke: str = "#d62728"
    shadow_stroke: str = "#1f77b4"
    hexagon_stroke: str = "#888888"
    show_cells: bool = True
    show_hexagon: bool = False


def embed(p: LatticePoint, unit: float) -> Tuple[float, float]:
    """Screen coordinates of a lattice point."""
    return (unit * (p.x - p.y / 2.0), unit * (-p.y * _SQRT3_2))


def _fmt(v: float) -> str:
    # Fixed two-decimal formatting keeps the output byte-stable.
    out = f"{v:.2f}"
    return "0.00" if out == "-0.00" else out


# Each kind's outline about an anchor at the origin.  boundary_cycle only
# adds and compares offsets, so translating this ring by a placement's
# anchor gives that tile's outline, still starting at its smallest vertex.
_TILE_RINGS: Dict[TileKind, List[LatticePoint]] = {
    kind: boundary_cycle(offsets) for kind, offsets in TILE_OFFSETS.items()
}


def render_svg(
    region: Optional[Region] = None,
    tiling: Optional[Tiling] = None,
    boundary: Optional[Word] = None,
    shadow: Optional[Word] = None,
    hexagon: Optional[BenzelParams] = None,
    spec: RenderSpec = RenderSpec(),
) -> str:
    """Compose the requested layers into a standalone SVG document.

    Each tile is drawn as one closed path: the cell edges not shared
    between two cells of the same tile.  The viewBox spans every vertex
    drawn, and the corners of the tiling's cells when the cell layer did
    not draw them.
    """
    elements: List[str] = []
    # Each distinct vertex is embedded and formatted once; its keys are the
    # vertices the viewBox must span.
    drawn: Dict[LatticePoint, str] = {}

    def points(vertices: Iterable[LatticePoint]) -> str:
        out = []
        for q in vertices:
            text = drawn.get(q)
            if text is None:
                x, y = embed(q, spec.unit)
                text = drawn[q] = f"{_fmt(x)},{_fmt(y)}"
            out.append(text)
        return " ".join(out)

    if tiling is not None and region is None:
        region = tiling.region

    if hexagon is not None and spec.show_hexagon:
        elements.append(
            f'<polygon class="hexagon" points="{points(bounding_hexagon(hexagon))}" '
            f'fill="none" stroke="{spec.hexagon_stroke}" stroke-width="1" '
            'stroke-dasharray="4 3" />'
        )

    if region is not None and spec.show_cells:
        for c in region.sorted_cells():
            elements.append(
                f'<polygon class="cell" points="{points(cell_corners(c))}" '
                f'fill="{spec.cell_fill}" stroke="{spec.cell_stroke}" '
                'stroke-width="1" />'
            )

    if tiling is not None:
        for p in tiling.placements:
            outline = points(p.anchor + d for d in _TILE_RINGS[p.kind])
            elements.append(
                f'<polygon class="tile" points="{outline}" '
                f'fill="{_TILE_FILLS[p.kind]}" stroke="{spec.tile_stroke}" '
                'stroke-width="2" />'
            )
        if not (spec.show_cells and tiling.region == region):
            for c in tiling.region.cells:
                points(cell_corners(c))

    for word, cls, stroke in (
        (boundary, "boundary", spec.boundary_stroke),
        (shadow, "shadow", spec.shadow_stroke),
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
    x0, y0 = min(xs) - spec.margin, min(ys) - spec.margin
    w = max(xs) - min(xs) + 2 * spec.margin
    h = max(ys) - min(ys) + 2 * spec.margin
    header = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}" '
        f'width="{_fmt(w)}" height="{_fmt(h)}">'
    )
    return "\n".join([header] + elements + ["</svg>"]) + "\n"
