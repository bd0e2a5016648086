"""Property-based checks on randomly grown regions (derandomized, with a
fixed number of examples, so every run tests the same regions)."""

import copy
import itertools
from collections import OrderedDict
from enum import IntEnum

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trihex.errors import (
    EmptyRegion,
    FormatError,
    InvalidParams,
    InvalidPlacement,
    NotSimplyConnected,
)
from trihex.hexlattice import (
    LatticePoint,
    Step,
    Word,
    class_of,
    cross,
    rotate120,
    signed_area,
)
from trihex.pentagonal import pentagonal_benzel
from trihex.regions import (
    BenzelParams,
    Region,
    benzel,
    boundary_cycle,
    despur,
    find_spurs,
    region_from_json,
    region_to_json,
    trace_boundary,
    triangle,
)
from trihex.shadow import cl_invariant_path, shadow_word
from trihex.tilings import (
    BONES,
    KIND_BY_NAME,
    STONES_AND_BONES,
    Placement,
    TileKind,
    Tiling,
    cells_of,
    count_tilings,
    enumerate_tilings,
    placement_frequency,
    placements,
    stone_balance,
    tiling_from_json,
    tiling_to_json,
)

from reference import StepKind, classify_steps, cyclically_equal, rotated

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
            offsets = _KINDS[k // 6 % 5].offsets
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
    s = Step(letter + "'" * (class_of(v) == 1))
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
        w = rotated(w, find_spurs(w)[0] + 1)
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


def _walk(v, picks):
    """A walk on the hexagon graph from the vertex v, one step per pick."""
    steps = []
    for pick in picks:
        s = Step("abc"[pick % 3] + "'" * (class_of(v) == 1))
        steps.append(s)
        v = v + s.vector
    return steps


def _there_and_back(v, picks):
    out = _walk(v, picks)
    return out + [s.inverse for s in reversed(out)]


_HEXAGON = [Step(x) for x in "b a' c b' a c'".split()]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    st.lists(st.integers(0, 2), max_size=10),
    st.integers(0, 2**20),
    st.integers(0, 2),
    st.lists(
        st.tuples(
            st.integers(0, 2**20), st.lists(st.integers(0, 2), min_size=1, max_size=4)
        ),
        max_size=6,
    ),
    st.integers(0, 2**20),
)
def test_despur_on_nested_and_wrapping_spurs(walk, at, turn, excursions, wrap):
    # A walk there and back with a hexagon loop spliced in, then
    # back-and-forth excursions, later ones landing inside earlier ones,
    # and a rotation that can leave one straddling the end of the word.
    steps = _there_and_back(LatticePoint(0, 0), walk)
    w = Word(tuple(steps), LatticePoint(0, 0))
    pos = at % (len(steps) + 1)
    k = 2 * turn + class_of(w.vertices()[pos])
    steps[pos:pos] = _HEXAGON[k:] + _HEXAGON[:k]
    for where, picks in excursions:
        w = Word(tuple(steps), LatticePoint(0, 0))
        pos = where % (len(steps) + 1)
        steps[pos:pos] = _there_and_back(w.vertices()[pos], picks)
    w = rotated(Word(tuple(steps), LatticePoint(0, 0)), wrap)
    assert w.is_closed
    d = despur(w)
    assert find_spurs(d) == []
    assert not (d.steps and d.steps[0] is d.steps[-1].inverse)
    assert d.is_closed and signed_area(d) == signed_area(w)
    assert despur(d) == d
    for k in range(len(w.steps)):
        assert cyclically_equal(despur(rotated(w, k)), d), k


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


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(0, 2**20), min_size=1, max_size=10))
def test_enumeration_and_the_invariant_on_grown_regions(picks):
    r, _ = _simply_connected(picks)
    I = cl_invariant_path(r).I
    # The mirror (x, y) -> (2 - y, 2 - x) maps tilings to tilings.
    mirror = Region(frozenset(LatticePoint(2 - c.y, 2 - c.x) for c in r.cells))
    for tileset in (BONES, STONES_AND_BONES):
        tilings = list(enumerate_tilings(r, tileset))
        assert len(tilings) == count_tilings(r, tileset)
        assert count_tilings(mirror, tileset) == len(tilings)
        assert all(stone_balance(t) == I for t in tilings)
    # A bone tiling has no stones, so I != 0 leaves none.
    if I != 0:
        assert count_tilings(r, BONES) == 0


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


# The LatticePoint version of boundary_cycle, which probes all six
# neighbours of every cell, kept as the reference that the row-run version
# must match ring for ring and message for message.
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
    pinched = []
    for c in cells:
        for tail, head, across in _REFERENCE_EDGES:
            if c + across not in cells:
                v = c + tail
                if v in succ:
                    pinched.append(v)
                succ[v] = c + head
    if pinched:
        raise NotSimplyConnected(f"boundary pinches at vertex {min(pinched)}")
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


def _copies(cells):
    """The cells in their three 120-degree rotations, then translated by a
    vector of class 0, which moves the rows and keeps every class."""
    out = []
    for _ in range(3):
        out.append(frozenset(cells))
        cells = [rotate120(c) for c in cells]
    out.append(frozenset(LatticePoint(c.x + 5, c.y - 2) for c in out[0]))
    return out


def _ring_matches_the_reference(cells):
    ring = boundary_cycle(cells)
    assert ring == _reference_boundary_cycle(cells)
    assert all(type(v) is LatticePoint for v in ring)


def test_boundary_cycle_matches_the_reference_on_large_regions():
    for a in range(2, 15):
        for b in range(max(2, (a + 1) // 2), min(2 * a, 14) + 1):
            _ring_matches_the_reference(benzel(BenzelParams(a, b)).cells)
    for n in range(1, 21):
        _ring_matches_the_reference(triangle(n).cells)
    for kind in TileKind:  # class-0 cells about the anchor
        _ring_matches_the_reference(kind.offsets)
    for cells in _copies(benzel(pentagonal_benzel(4)).cells):
        _ring_matches_the_reference(cells)


def _rows(cells):
    """Each row u = 2x - y of the cells as the sorted list of its y."""
    rows = {}
    for x, y in cells:
        rows.setdefault(2 * x - y, []).append(y)
    return {u: sorted(ys) for u, ys in rows.items()}


def _comb():
    """A spine of 24 cells in one row with teeth on both sides, of lengths
    0 to 4 in a fixed pattern: the rows beside the spine hold many runs,
    single cells among them, that end where the next row's runs begin or
    overlap them at y + 1 or y - 1."""
    spine = [LatticePoint(-2 + i, -2 + 2 * i) for i in range(24)]
    cells = set(spine)
    for i, (x, y) in enumerate(spine):
        for (dx, dy), length in (((2, 1), (0, 3, 0, 1, 4, 2)[i % 6]), ((-1, 1), i * 5 % 7 % 4)):
            cells.update(LatticePoint(x + m * dx, y + m * dy) for m in range(1, length + 1))
    return frozenset(cells)


def _crenellated():
    """T(14) with every other cell removed from its two longest rows (the
    rows of 14 and 13 cells along one side): 7 single-cell runs each, and
    those of one row meet those of the other at y + 1 and y - 1."""
    cells = set(triangle(14).cells)
    rows = _rows(cells)
    for u in sorted(rows)[:2]:
        for y in rows[u][1::2]:
            cells.discard(LatticePoint((u + y) // 2, y))
    return frozenset(cells)


def test_boundary_cycle_matches_the_reference_on_rows_of_many_runs():
    for shape in (_comb(), _crenellated()):
        runs = [
            sum(1 for a, b in zip(ys, ys[1:]) if b - a > 2) + 1
            for ys in _rows(shape).values()
        ]
        assert max(runs) >= 5 and runs.count(1) < len(runs)
        for cells in _copies(shape):
            _ring_matches_the_reference(cells)
    # every other cell of B(6, 7) removed: pieces and holes, one message
    cells = {c for c in benzel(BenzelParams(6, 7)).cells if c.y % 4 < 2}
    for f in (boundary_cycle, _reference_boundary_cycle):
        assert _boundary_outcome(f, frozenset(cells)).startswith("region ")


def test_a_pinch_names_its_smallest_vertex():
    # Cells of the three classes: their hexagons overlap, and the boundary
    # pinches at (-1, -1), (0, -1), (0, 0), (0, 1) and (1, 1).
    cells = (LatticePoint(-1, 0), LatticePoint(0, 0), LatticePoint(1, 0))
    for order in itertools.permutations(cells):
        for f in (boundary_cycle, _reference_boundary_cycle):
            with pytest.raises(NotSimplyConnected) as e:
                f(order)
            assert str(e.value) == "boundary pinches at vertex (-1, -1)"


# -- the JSON readers against a per-entry reference ----------------------------


def _reference_point(item, what):
    if isinstance(item, list) and len(item) == 2:
        x, y = item
        if isinstance(x, int) and isinstance(y, int) and bool not in (type(x), type(y)):
            return LatticePoint(x, y)
    raise FormatError(f"{what} {item!r}")


def _reference_region_from_json(obj):
    """region_from_json as a reader that checks and converts one entry at
    a time."""
    if not isinstance(obj, dict):
        raise FormatError("region file must be a JSON object")
    unknown = set(obj) - {"cells"}
    if unknown:
        raise FormatError(f"unknown region keys: {sorted(unknown)}")
    if "cells" not in obj:
        raise FormatError("region file lacks a 'cells' key")
    if not isinstance(obj["cells"], list):
        raise FormatError("'cells' must be a list")
    cells = [_reference_point(item, "bad cell entry") for item in obj["cells"]]
    if len(set(cells)) != len(cells):
        raise FormatError("duplicate cells in region file")
    try:
        return Region(frozenset(cells))
    except InvalidParams as e:
        raise FormatError(str(e)) from None


def _reference_tiling_from_json(obj):
    """tiling_from_json as a reader that checks and builds one tile at a
    time through the public Placement constructor."""
    if not isinstance(obj, dict):
        raise FormatError("tiling must be a JSON object")
    extra = set(obj) - {"region", "tiles"}
    if extra:
        raise FormatError(f"unknown tiling keys {sorted(extra)}")
    if "region" not in obj or "tiles" not in obj:
        raise FormatError("tiling needs 'region' and 'tiles'")
    region = _reference_region_from_json(obj["region"])
    tiles = obj["tiles"]
    if not isinstance(tiles, list):
        raise FormatError("'tiles' must be a list")
    placs = []
    for entry in tiles:
        if not isinstance(entry, dict) or set(entry) != {"kind", "anchor"}:
            raise FormatError(f"bad tile entry {entry!r}")
        name = entry["kind"]
        kind = KIND_BY_NAME.get(name) if isinstance(name, str) else None
        if kind is None:
            raise FormatError(f"unknown tile kind {name!r}")
        anchor = _reference_point(entry["anchor"], "bad anchor")
        try:
            placs.append(Placement(kind, anchor))
        except InvalidPlacement as e:
            raise FormatError(str(e))
    return Tiling(region, tuple(placs))


class _One(IntEnum):
    ONE = 1


class _Pair(list):
    pass


# Entries no reader takes, and some that only the per-entry path takes
# (int and list subclasses).
_BAD_PAIRS = [
    [True, 1], [1, False], [1.0, 1], [1, 1.0], [1], [1, 1, 0], [], "1,1", None,
    {"x": 1, "y": 1}, [0, 0], [1, 0], [-2, -2.5], [_One.ONE, 1], _Pair([1, 1]),
]
_DROP = object()  # a tile key to leave out
_BAD_TILES = [
    {"extra": 1}, {"kind": _DROP}, {"anchor": _DROP}, {"kind": _DROP, "anchor": _DROP},
    {"kind": 3}, {"kind": True}, {"kind": None}, {"kind": ["boneAB"]},
    {"kind": "boneXY"}, {"kind": "BONEAB"},
] + [{"anchor": pair} for pair in _BAD_PAIRS]
_WHERE = (lambda n: 0, lambda n: n // 2, lambda n: n)  # first, middle, last


def _read_outcome(read, doc):
    try:
        return read(copy.deepcopy(doc))
    except FormatError as e:
        return (type(e), str(e))


def _same_reading(read, reference, doc):
    mine = _read_outcome(read, doc)
    assert mine == _read_outcome(reference, doc)
    return mine


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(0, 2**20), min_size=1, max_size=8))
def test_json_readers_match_the_per_entry_reference(picks):
    """Every bad entry, first, in the middle and last, of every region
    grown and its first two tilings gives the reference's object or the
    reference's error."""
    region = _grow(picks)
    doc = region_to_json(region)
    assert _same_reading(region_from_json, _reference_region_from_json, doc) == region
    cells = doc["cells"]
    for bad, where in itertools.product(_BAD_PAIRS + [cells[0]], _WHERE):
        at = where(len(cells))
        bad_doc = {"cells": cells[:at] + [bad] + cells[at:]}
        _same_reading(region_from_json, _reference_region_from_json, bad_doc)
    for t in enumerate_tilings(region, STONES_AND_BONES, 2):
        doc = tiling_to_json(t)
        assert _same_reading(tiling_from_json, _reference_tiling_from_json, doc) == t
        tiles = doc["tiles"]
        bad_tiles = [
            {k: v for k, v in {**tiles[0], **change}.items() if v is not _DROP}
            for change in _BAD_TILES
        ] + ["boneAB", [], OrderedDict(tiles[-1]), dict(tiles[0])]
        for bad, where in itertools.product(bad_tiles, _WHERE):
            at = where(len(tiles))
            bad_doc = {"region": doc["region"], "tiles": tiles[:at] + [bad] + tiles[at:]}
            _same_reading(tiling_from_json, _reference_tiling_from_json, bad_doc)
        # Two entries that fail the exact-type test: a good subclass entry
        # before each bad one, and each bad entry before the next.  Only the
        # first bad entry of a document, not the first inexact one, is named.
        kind = tiles[0]["kind"]
        subclass = [
            {"kind": kind, "anchor": _Pair([1, 1])},
            {"kind": kind, "anchor": [_One.ONE, 1]},
            OrderedDict(tiles[-1]),
        ]
        pairs = [(s, bad) for s in subclass for bad in bad_tiles[: len(_BAD_TILES)]]
        pairs += zip(bad_tiles, bad_tiles[1:] + bad_tiles[:1])
        head, tail = tiles[: len(tiles) // 2], tiles[len(tiles) // 2 :]
        for first, second in pairs:
            two_doc = {"region": doc["region"], "tiles": head + [first] + tail + [second]}
            _same_reading(tiling_from_json, _reference_tiling_from_json, two_doc)
