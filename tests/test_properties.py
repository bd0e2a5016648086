"""Property-based checks on randomly grown regions (derandomized, with a
fixed number of examples, so every run tests the same regions)."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trihex.errors import NotSimplyConnected
from trihex.hexlattice import LatticePoint, rotate120
from trihex.regions import Region, trace_boundary
from trihex.tilings import (
    BONES,
    STONES_AND_BONES,
    TILE_OFFSETS,
    Placement,
    TileKind,
    cells_of,
    count_tilings,
    placement_frequency,
    placements,
)

_NEIGHBOURS = ((1, -1), (1, 2), (2, 1), (-1, 1), (-1, -2), (-2, -1))
_KINDS = list(TileKind)


def _grow(picks):
    """A region grown from one tile by adding a tile per pick.  The pick
    names a cell of the region, a neighbour of it, a kind and which cell
    of the tile lands on that neighbour; when that tile would overlap the
    region, the next choice in that order is tried.  The region is a union
    of disjoint tiles, so stones and bones tile it."""
    cells = set(cells_of(Placement(TileKind.STONE_R, LatticePoint(-2, -2))))
    order = sorted(cells)
    for pick in picks:
        for k in range(pick, pick + 90 * len(order)):
            c = order[k // 90 % len(order)]
            dx, dy = _NEIGHBOURS[k % 6]
            offsets = TILE_OFFSETS[_KINDS[k // 6 % 5]]
            ox, oy = offsets[k // 30 % 3]
            ax, ay = c.x + dx - ox, c.y + dy - oy
            tile = [LatticePoint(ax + x, ay + y) for x, y in offsets]
            if cells.isdisjoint(tile):
                cells.update(tile)
                order.extend(tile)
                break
    return Region(frozenset(cells))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(0, 2**20), min_size=3, max_size=25))
def test_frequencies_on_grown_regions(picks):
    r = _grow(picks)
    try:
        trace_boundary(r)
    except NotSimplyConnected:
        assume(False)
    rotated = Region(frozenset(rotate120(c) for c in r.cells))
    for tileset in (BONES, STONES_AND_BONES):
        total = count_tilings(r, tileset)
        assert count_tilings(rotated, tileset) == total
        ps = placements(r, tileset)
        freq = {p: placement_frequency(r, tileset, p) for p in ps}
        for p in ps:  # the definition: force p and count the rest
            rest = Region(r.cells - frozenset(cells_of(p)))
            assert freq[p] == count_tilings(rest, tileset), p
        assert sum(freq.values()) == total * len(r) // 3
        # Every tiling covers each cell exactly once.
        for c in r.cells:
            assert sum(f for p, f in freq.items() if c in cells_of(p)) == total, c
    assert count_tilings(r, STONES_AND_BONES) > 0
