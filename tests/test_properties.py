"""Property-based checks on randomly grown regions (derandomized, with a
fixed number of examples, so every run tests the same regions)."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trihex.errors import EmptyRegion, NotSimplyConnected
from trihex.hexlattice import (
    LatticePoint,
    Word,
    class_of,
    cross,
    rotate120,
    signed_area,
    step_for,
)
from trihex.regions import Region, boundary_cycle, find_spurs, trace_boundary
from trihex.shadow import StepKind, cl_invariant_path, classify_steps, shadow_word
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


def _simply_connected(picks):
    """The grown region and its boundary word; a region with a hole
    discards the example."""
    r = _grow(picks)
    try:
        return r, trace_boundary(r)
    except NotSimplyConnected:
        assume(False)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(0, 2**20), min_size=3, max_size=25))
def test_frequencies_on_grown_regions(picks):
    r, _ = _simply_connected(picks)
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


def _with_spur(w, pos):
    """w with a spur pair inserted before step pos, along the edge at that
    vertex that neither neighbouring step uses, so the pair is isolated."""
    n = len(w.steps)
    v = w.vertices()[pos]
    used = {w.steps[(pos - 1) % n].letter, w.steps[pos % n].letter}
    letter = next(x for x in "abc" if x not in used)
    s = step_for(letter, class_of(v) == 1)
    return Word(w.steps[:pos] + (s, s.inverse) + w.steps[pos:], w.basepoint)


def _spur_pair_steps(w):
    return {j for i in find_spurs(w) for j in (i, (i + 1) % len(w.steps))}


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    st.lists(st.integers(0, 2**20), min_size=1, max_size=12),
    st.lists(st.integers(0, 2**20), min_size=1, max_size=4),
    st.booleans(),
)
def test_shadow_of_spurred_boundaries(picks, sites, wrap):
    r, w = _simply_connected(picks)
    I = cl_invariant_path(r).I
    # Insert from the back, so no pair lands inside another; pairs at one
    # vertex stay isolated.
    for pos in sorted((k % (len(w.steps) + 1) for k in sites), reverse=True):
        w = _with_spur(w, pos)
    if wrap:  # the first pair now straddles the end of the word
        w = w.rotated(find_spurs(w)[0] + 1)
    spurs = _spur_pair_steps(w)
    shadow = shadow_word(w, w.basepoint)
    assert len(shadow) == len(w)
    assert _spur_pair_steps(shadow) == spurs
    for i, (mine, theirs) in enumerate(zip(classify_steps(w), classify_steps(shadow))):
        if i in spurs:
            assert mine is theirs is StepKind.SPUR_SITE
        else:
            assert {mine, theirs} == {StepKind.WEAVE, StepKind.WIND}
    assert signed_area(shadow) == (I if class_of(w.basepoint) == 0 else -I)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(0, 2**20), min_size=1, max_size=25))
def test_reflections_and_the_invariant(picks):
    r, _ = _simply_connected(picks)
    I = cl_invariant_path(r).I
    # (x, y) -> (2 - y, 2 - x) mirrors in a line of cell centres and swaps
    # the two vertex classes; it swaps stone chiralities and negates I.
    mirror = Region(frozenset(LatticePoint(2 - c.y, 2 - c.x) for c in r.cells))
    assert cl_invariant_path(mirror).I == -I
    # (x, y) -> (y, x), that is z -> omega * conj(z), keeps every class and
    # maps each stone to a stone of the same chirality, so it keeps I.
    mirror = Region(frozenset(LatticePoint(c.y, c.x) for c in r.cells))
    assert cl_invariant_path(mirror).I == I


def _pieces(cells):
    """The number of edge-connected pieces of a set of cells, by
    breadth-first search."""
    left, pieces = set(cells), 0
    while left:
        pieces += 1
        frontier = [left.pop()]
        while frontier:
            x, y = frontier.pop()
            for dx, dy in _NEIGHBOURS:
                n = LatticePoint(x + dx, y + dy)
                if n in left:
                    left.remove(n)
                    frontier.append(n)
    return pieces


def _holes(cells):
    """The number of bounded pieces of the cells around a region, searched
    in a box wide enough that the unbounded piece stays connected."""
    xs, ys = [c.x for c in cells], [c.y for c in cells]
    box = {
        LatticePoint(x, y)
        for x in range(min(xs) - 6, max(xs) + 7)
        for y in range(min(ys) - 6, max(ys) + 7)
        if (x + y) % 3 == 2
    }
    return _pieces(box - cells) - 1


def _grown_cells(picks, removals, far_picks, shift, skew=0):
    """Cells grown from picks, some removed, and at times a second grown
    piece moved 3 * shift + skew to the right.  Removals may cut the region
    or open holes in it; the second piece is near enough at times to touch
    the first, and with skew 1 or 2 its cells are centred on vertices of
    the first piece's graph, so their outlines can meet at a vertex."""
    cells = set(_grow(picks).cells)
    for k in removals:
        if cells:
            cells.discard(sorted(cells)[k % len(cells)])
    if far_picks:
        dx = 3 * shift + skew
        cells.update(LatticePoint(c.x + dx, c.y) for c in _grow(far_picks).cells)
    return cells


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    st.lists(st.integers(0, 2**20), min_size=1, max_size=15),
    st.lists(st.integers(0, 2**20), max_size=6),
    st.lists(st.integers(0, 2**20), max_size=4),
    st.integers(0, 12),
)
def test_trace_boundary_on_grown_regions(picks, removals, far_picks, shift):
    cells = _grown_cells(picks, removals, far_picks, shift)
    r = Region(frozenset(cells))
    try:
        w = trace_boundary(r)
    except EmptyRegion:
        assert not cells
    except NotSimplyConnected as e:
        if _pieces(cells) > 1:
            assert str(e) == "region cells are not edge-connected"
        else:
            assert _holes(cells) > 0
            assert str(e) == "region boundary is not a single closed curve"
    else:
        assert _pieces(cells) == 1 and _holes(cells) == 0
        assert signed_area(w) == len(r)


# The LatticePoint version of boundary_cycle, kept as the reference that
# the integer version must match ring for ring and message for message.
_REFERENCE_CORNERS = (
    LatticePoint(1, 0),
    LatticePoint(1, 1),
    LatticePoint(0, 1),
    LatticePoint(-1, 0),
    LatticePoint(-1, -1),
    LatticePoint(0, -1),
)
_REFERENCE_EDGES = tuple(
    (u, w, u + w)
    for u, w in zip(_REFERENCE_CORNERS, _REFERENCE_CORNERS[1:] + _REFERENCE_CORNERS[:1])
)


def _reference_boundary_cycle(cells):
    succ = {}
    for c in cells:
        for tail, head, across in _REFERENCE_EDGES:
            if c + across not in cells:
                v = c + tail
                if v in succ:
                    raise NotSimplyConnected(f"boundary pinches at vertex {v}")
                succ[v] = c + head
    ring = _reference_cycle(succ, min(succ))
    if len(ring) == len(succ):
        return ring
    left = set(succ).difference(ring)
    while left:
        other = _reference_cycle(succ, left.pop())
        left.difference_update(other)
        if sum(cross(v, succ[v]) for v in other) > 0:
            raise NotSimplyConnected("region cells are not edge-connected")
    raise NotSimplyConnected("region boundary is not a single closed curve")


def _reference_cycle(succ, start):
    ring = [start]
    v = succ[start]
    while v != start:
        ring.append(v)
        v = succ[v]
    return ring


def _frame(cells):
    """A band of cells four columns and rows wide round a box that holds
    the cells with five to spare, so the cells sit in its hole."""
    xs, ys = [c.x for c in cells], [c.y for c in cells]
    x0, x1, y0, y1 = min(xs) - 5, max(xs) + 5, min(ys) - 5, max(ys) + 5
    return {
        LatticePoint(x, y)
        for x in range(x0 - 4, x1 + 5)
        for y in range(y0 - 4, y1 + 5)
        if (x + y) % 3 == 2 and not (x0 <= x <= x1 and y0 <= y <= y1)
    }


def _boundary_outcome(f, cells):
    try:
        return f(cells)
    except NotSimplyConnected as e:
        return str(e)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    st.lists(st.integers(0, 2**20), min_size=1, max_size=15),
    st.lists(st.integers(0, 2**20), max_size=14),
    st.lists(st.integers(0, 2**20), max_size=4),
    st.integers(-12, 12),
    st.integers(0, 2),
    st.booleans(),
)
def test_boundary_cycle_matches_the_reference(
    picks, removals, far_picks, shift, skew, framed
):
    cells = _grown_cells(picks, removals, far_picks, shift, skew)
    if not cells:
        return
    if framed:  # pieces or holes of the cells become islands in a hole
        cells |= _frame(cells)
    cells = frozenset(cells)
    mine = _boundary_outcome(boundary_cycle, cells)
    assert mine == _boundary_outcome(_reference_boundary_cycle, cells)
    if isinstance(mine, list):
        assert all(type(v) is LatticePoint for v in mine)
