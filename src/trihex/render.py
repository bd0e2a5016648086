"""Deterministic SVG rendering of regions, tilings, words, and shadows.

The only place the irrational Cartesian embedding appears: the lattice
point x + y*omega maps to (x - y/2, -y*sqrt(3)/2), the minus sign giving
screen coordinates (y grows downward).  Every element carries a class
attribute (cell / tile / boundary / shadow / hexagon) so output can be
inspected and counted; identical inputs produce byte-identical SVG.

There is one rendering path.  _svg_chunks does every computation that can
fail up front and returns the document as an iterator of lines, formatted
as they are read; render_svg joins them into one string, and the CLI
writes them to their file or stdout as they come, so `trihex render`
never holds the whole document.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, groupby
from operator import attrgetter, itemgetter
from typing import Collection, Dict, Iterable, Iterator, List, Optional, Tuple

from .errors import InvalidParams
from .hexlattice import LatticePoint, Word
from .regions import _CORNER_OFFSETS, BenzelParams, Region, boundary_cycle, bounding_hexagon
from .tilings import TileKind, Tiling

_SQRT3_2 = math.sqrt(3.0) / 2.0

# Tile fills by TileKind.index: boneAB, boneBC, boneCA, stoneR, stoneL.
_TILE_FILLS = ("#9ecae1", "#a1d99b", "#fdae6b", "#e9a3c9", "#c2b2d6")
_MARGIN = 10.0
_CELL_FILL, _CELL_STROKE, _TILE_STROKE = "#f5f0e6", "#999999", "#222222"
_BOUNDARY_STROKE, _SHADOW_STROKE, _HEXAGON_STROKE = "#d62728", "#1f77b4", "#888888"


@dataclass(frozen=True)
class RenderSpec:
    """The scale of the SVG output (a positive, finite number, not a bool,
    per lattice unit) and whether to draw the cell layer; every other
    layer is drawn whenever it is given."""

    unit: float = 20.0
    show_cells: bool = True

    def __post_init__(self) -> None:
        unit = self.unit
        try:  # a str or None is no number, and an int past float range overflows
            ok = not isinstance(unit, bool) and math.isfinite(unit) and unit > 0
        except (TypeError, OverflowError):
            ok = False
        if not ok:
            raise InvalidParams(f"unit must be positive and finite, got {unit!r}")


def embed(p: LatticePoint, unit: float) -> Tuple[float, float]:
    """Screen coordinates of a lattice point."""
    return (unit * (p.x - p.y / 2.0), unit * (-p.y * _SQRT3_2))


def _fmt(v: float) -> str:
    # Fixed two-decimal formatting keeps the output byte-stable.
    out = f"{v:.2f}"
    return "0.00" if out == "-0.00" else out


# Each kind's outline about an anchor at the origin, by TileKind.index.
# boundary_cycle commutes with translation, so translating this ring by a
# placement's anchor gives that tile's outline, still starting at its
# smallest vertex.
_TILE_RINGS = [boundary_cycle(kind.offsets) for kind in TileKind]


def render_svg(
    region: Optional[Region] = None,
    tiling: Optional[Tiling] = None,
    boundary: Optional[Word] = None,
    shadow: Optional[Word] = None,
    hexagon: Optional[BenzelParams] = None,
    spec: RenderSpec = RenderSpec(),
) -> str:
    """Compose the requested layers into a standalone SVG document: the
    text of _svg_chunks, joined.  Raises InvalidParams when the unit puts
    the viewBox beyond the float range, or when a coordinate does."""
    return "".join(_svg_chunks(region, tiling, boundary, shadow, hexagon, spec))


def _svg_chunks(
    region: Optional[Region],
    tiling: Optional[Tiling],
    boundary: Optional[Word],
    shadow: Optional[Word],
    hexagon: Optional[BenzelParams],
    spec: RenderSpec,
) -> Iterator[str]:
    """The SVG document of render_svg as an iterator of lines, each ending
    in a newline, built as it is read.

    Each tile is drawn as one closed path: the cell edges not shared
    between two cells of the same tile.  The viewBox spans every vertex
    drawn, and the corners of the tiling's cells when the cell layer did
    not draw them.  Vertices stay plain integer pairs: screen x depends
    only on u = 2x - y and screen y only on y, so every ring (the cell
    corners, one kind's tile outline, a word) first fills the tables of
    each distinct u and y it reaches about its anchors, formatted once and
    keyed by value.  All of that, the viewBox and both InvalidParams
    checks happen before this returns; the cell and tile layers are then
    formatted from the tables one element at a time as the iterator is
    read, so a caller that writes the lines out never holds the document.
    """
    unit = spec.unit
    # unit * (u / 2.0) is the float embed gives while |x|, |y| < 2**51.
    # The keys of xs and ys are the values drawn.
    xs: Dict[int, str] = {}
    ys: Dict[int, str] = {}
    # The document's lines after its header, one iterable per layer.
    layers: List[Iterable[str]] = []

    def points(
        ring: Iterable[Tuple[int, int]], anchors: Collection[Tuple[int, int]]
    ) -> Iterator[str]:
        # Vertex (dx, dy) about anchor (x, y) is at u = 2x - y + du, y + dy;
        # every anchor draws every vertex, so only values drawn are added.
        template = [(2 * dx - dy, dy) for dx, dy in ring]
        us, vs = {2 * x - y for x, y in anchors}, {y for _x, y in anchors}
        try:  # every int drawn meets a float here first
            for u in {u + du for du, _ in template for u in us}.difference(xs):
                xs[u] = _fmt(unit * (u / 2.0))
            for y in {y + dy for _, dy in template for y in vs}.difference(ys):
                ys[y] = _fmt(unit * (-y * _SQRT3_2))
        except OverflowError:
            raise InvalidParams("a coordinate of the drawing is beyond the float range") from None
        return (
            " ".join([f"{xs[2 * x - y + du]},{ys[y + dy]}" for du, dy in template])
            for x, y in anchors
        )

    def polyline(ring: Iterable[Tuple[int, int]]) -> str:
        return next(points(ring, [(0, 0)]))

    if tiling is not None and region is None:
        region = tiling.region

    if hexagon is not None:
        layers.append((
            f'<polygon class="hexagon" points="{polyline(bounding_hexagon(hexagon))}" '
            f'fill="none" stroke="{_HEXAGON_STROKE}" stroke-width="1" '
            'stroke-dasharray="4 3" />\n',
        ))

    if region is not None and spec.show_cells:
        cells = sorted(region.cells)
        # Fill the tables, then one f-string per cell; its corners as (du, dy)
        # are (2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1).
        points(_CORNER_OFFSETS, cells)
        layers.append(
            f'<polygon class="cell" points="{xs[u + 2]},{ys[y]} {xs[u + 1]},{ys[y + 1]} '
            f'{xs[u - 1]},{ys[y + 1]} {xs[u - 2]},{ys[y]} {xs[u - 1]},{ys[y - 1]} '
            f'{xs[u + 1]},{ys[y - 1]}" fill="{_CELL_FILL}" stroke="{_CELL_STROKE}" '
            'stroke-width="1" />\n'
            for u, y in ((2 * x - y, y) for x, y in cells)
        )

    if tiling is not None:
        # Placements sort by kind, so a group holds one kind's tiles.  Each
        # map binds its own kind's line; a generator reading a variable
        # rebound per kind would draw every group with the last kind's fill.
        for kind, group in groupby(tiling.placements, key=attrgetter("kind")):
            line = (
                f'<polygon class="tile" points="{{}}" fill="{_TILE_FILLS[kind.index]}" '
                f'stroke="{_TILE_STROKE}" stroke-width="2" />\n'
            )
            outlines = points(_TILE_RINGS[kind.index], [p.anchor for p in group])
            layers.append(map(line.format, outlines))

    for word, cls, stroke in (
        (boundary, "boundary", _BOUNDARY_STROKE),
        (shadow, "shadow", _SHADOW_STROKE),
    ):
        if word is not None:
            layers.append((
                f'<polyline class="{cls}" points="{polyline(word.vertices())}" '
                f'fill="none" stroke="{stroke}" stroke-width="2.5" '
                'stroke-linejoin="round" />\n',
            ))

    tiled = tiling.region.cells if tiling is not None else ()
    if tiled and not (spec.show_cells and tiling.region == region):
        # The corners of the tiling's cells of least and greatest u and y
        # reach the tables, which then span all of its corners.
        keys = (lambda c: 2 * c[0] - c[1], itemgetter(1))
        points(_CORNER_OFFSETS, [f(tiled, key=k) for f in (min, max) for k in keys])
    # Both embeddings are monotone, so extreme values give the extremes.
    left, right = (unit * (u / 2.0) for u in (min(xs, default=0), max(xs, default=0)))
    top, bottom = (unit * (-y * _SQRT3_2) for y in (max(ys, default=0), min(ys, default=0)))
    x0, y0 = left - _MARGIN, top - _MARGIN
    w = right - left + 2 * _MARGIN
    h = bottom - top + 2 * _MARGIN
    # Every coordinate drawn lies between the extremes, so this covers them all.
    if not all(map(math.isfinite, (x0, y0, w, h))):
        raise InvalidParams(f"unit {unit!r} is too large: the drawing overflows the float range")
    header = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}" '
        f'width="{_fmt(w)}" height="{_fmt(h)}">\n'
    )
    return chain((header,), *layers, ("</svg>\n",))
