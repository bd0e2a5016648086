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

from .errors import InvalidParams
from .hexlattice import LatticePoint, Word
from .regions import _CORNER_OFFSETS, BenzelParams, Region, boundary_cycle, bounding_hexagon
from .tilings import TILE_OFFSETS, TileKind, Tiling

_SQRT3_2 = math.sqrt(3.0) / 2.0

_TILE_FILLS: Dict[TileKind, str] = {
    TileKind.BONE_AB: "#9ecae1",
    TileKind.BONE_BC: "#a1d99b",
    TileKind.BONE_CA: "#fdae6b",
    TileKind.STONE_R: "#e9a3c9",
    TileKind.STONE_L: "#c2b2d6",
}
_MARGIN = 10.0
_CELL_FILL, _CELL_STROKE, _TILE_STROKE = "#f5f0e6", "#999999", "#222222"
_BOUNDARY_STROKE, _SHADOW_STROKE, _HEXAGON_STROKE = "#d62728", "#1f77b4", "#888888"


@dataclass(frozen=True)
class RenderSpec:
    """The scale of the SVG output (a positive, finite length per lattice
    unit) and whether to draw the cell layer; every other layer is drawn
    whenever it is given."""

    unit: float = 20.0
    show_cells: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.unit) and self.unit > 0):
            raise InvalidParams(f"unit must be positive and finite, got {self.unit!r}")


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
    not draw them.  Vertices stay plain integer pairs: screen x depends
    only on u = 2x - y and screen y only on y, so each distinct u and y is
    formatted once, keyed by value.
    """
    elements: List[str] = []
    unit = spec.unit
    # unit * (u / 2.0) is the float embed gives while |x|, |y| < 2**51.
    # The keys of xs and ys are the values the viewBox must span.
    xs: Dict[int, str] = {}
    ys: Dict[int, str] = {}

    def points(ring: Iterable[Tuple[int, int]], ax: int = 0, ay: int = 0) -> str:
        out = []
        for dx, dy in ring:  # each vertex of ring moved by (ax, ay)
            y = ay + dy
            u = 2 * (ax + dx) - y
            tx = xs.get(u) or xs.setdefault(u, _fmt(unit * (u / 2.0)))
            ty = ys.get(y) or ys.setdefault(y, _fmt(unit * (-y * _SQRT3_2)))
            out.append(f"{tx},{ty}")
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
        for cx, cy in region.sorted_cells():
            elements.append(
                f'<polygon class="cell" points="{points(_CORNER_OFFSETS, cx, cy)}" '
                f'fill="{_CELL_FILL}" stroke="{_CELL_STROKE}" '
                'stroke-width="1" />'
            )

    if tiling is not None:
        for p in tiling.placements:
            outline = points(_TILE_RINGS[p.kind], *p.anchor)
            elements.append(
                f'<polygon class="tile" points="{outline}" '
                f'fill="{_TILE_FILLS[p.kind]}" stroke="{_TILE_STROKE}" '
                'stroke-width="2" />'
            )
        if not (spec.show_cells and tiling.region == region):
            for cx, cy in tiling.region.cells:
                points(_CORNER_OFFSETS, cx, cy)

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

    # Both embeddings are monotone, so the keys give the extremes.
    left, right = (unit * (u / 2.0) for u in (min(xs, default=0), max(xs, default=0)))
    top, bottom = (unit * (-y * _SQRT3_2) for y in (max(ys, default=0), min(ys, default=0)))
    x0, y0 = left - _MARGIN, top - _MARGIN
    w = right - left + 2 * _MARGIN
    h = bottom - top + 2 * _MARGIN
    header = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}" '
        f'width="{_fmt(w)}" height="{_fmt(h)}">'
    )
    elements.insert(0, header)
    elements += ["</svg>", ""]
    return "\n".join(elements)
