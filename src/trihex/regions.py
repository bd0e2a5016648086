"""Benzels, honeycomb triangles, boundary tracing, and region/word files.

The (a, b)-benzel is the union of the unit hexagons lying completely
inside the convex hexagon with vertices a*w+b, -a*w^2-b, a*w^2+b*w,
-a-b*w, a+b*w^2, -a*w-b*w^2 (w = omega).  Cells are identified by their
centers, which are the class--1 lattice points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Collection, Dict, FrozenSet, Iterable, List, Tuple

from .errors import (
    EmptyRegion,
    FormatError,
    InvalidParams,
    NonIsolatedSpur,
    NotSimplyConnected,
)
from .hexlattice import (
    ORIGIN,
    LatticePoint,
    Step,
    Word,
    class_of,
    cross,
    word_from_string,
)

# Center offsets between edge-adjacent cells.
CELL_NEIGHBOR_OFFSETS = (
    LatticePoint(1, -1),
    LatticePoint(1, 2),
    LatticePoint(2, 1),
    LatticePoint(-1, 1),
    LatticePoint(-1, -2),
    LatticePoint(-2, -1),
)

# Corners of the hexagon centered at a class--1 point, counterclockwise
# starting from the rightmost corner (center + 1).
_CORNER_OFFSETS = (
    LatticePoint(1, 0),
    LatticePoint(1, 1),
    LatticePoint(0, 1),
    LatticePoint(-1, 0),
    LatticePoint(-1, -1),
    LatticePoint(0, -1),
)

# Edge i of a cell, from corner i to corner i + 1: the offsets of its tail
# and head, and of the center of the cell on its other side, as six ints.
_CELL_EDGES = tuple(
    (u.x, u.y, w.x, w.y, u.x + w.x, u.y + w.y)
    for u, w in zip(_CORNER_OFFSETS, _CORNER_OFFSETS[1:] + _CORNER_OFFSETS[:1])
)


@dataclass(frozen=True)
class Region:
    """A finite set of hexagonal cells, identified by their class--1 centers."""

    cells: FrozenSet[LatticePoint]

    def __post_init__(self) -> None:
        for c in self.cells:
            if (c[0] + c[1]) % 3 != 2:
                raise InvalidParams(f"cell center {c} has class {class_of(c)}, not -1")

    def __len__(self) -> int:
        return len(self.cells)

    def __contains__(self, cell: LatticePoint) -> bool:
        return cell in self.cells

    def sorted_cells(self) -> List[LatticePoint]:
        return sorted(self.cells)


def region_from_cells(cells: Iterable[Tuple[int, int]]) -> Region:
    return Region(frozenset(LatticePoint(x, y) for x, y in cells))


@dataclass(frozen=True)
class BenzelParams:
    """Validated benzel parameters (a, b) with 2 <= a <= 2b and 2 <= b <= 2a."""

    a: int
    b: int

    def __post_init__(self) -> None:
        a, b = self.a, self.b
        if not (isinstance(a, int) and isinstance(b, int)):
            raise InvalidParams(f"parameters must be integers, got ({a!r}, {b!r})")
        if not (2 <= a <= 2 * b and 2 <= b <= 2 * a):
            raise InvalidParams(
                f"({a}, {b}) violates 2 <= a <= 2b and 2 <= b <= 2a"
            )

    @property
    def cls(self) -> int:
        """The benzel's class: a+b mod 3 taken in {0, 1, -1}."""
        r = (self.a + self.b) % 3
        return r if r < 2 else -1

    @property
    def s(self) -> int:
        """Repeat count for the short stretches of the boundary word."""
        num = {0: 0, 1: 2, -1: 1}[self.cls]
        return (2 * self.a - self.b - num) // 3

    @property
    def t(self) -> int:
        """Repeat count for the long stretches of the boundary word."""
        num = {0: 0, 1: 2, -1: 1}[self.cls]
        return (2 * self.b - self.a - num) // 3


def bounding_hexagon(p: BenzelParams) -> Tuple[LatticePoint, ...]:
    """The six corners of the bounding hexagon, counterclockwise.

    In (x, y) coordinates (expanding with omega^2 = -1 - omega) these are
    (b, a), (a-b, a), (-a, b-a), (-a, -b), (a-b, -b), (b, b-a); the last
    one, -a*w - b*w^2, is the rightmost corner.  Side lengths alternate
    2a-b and 2b-a.
    """
    a, b = p.a, p.b
    return (
        LatticePoint(b, a),
        LatticePoint(a - b, a),
        LatticePoint(-a, b - a),
        LatticePoint(-a, -b),
        LatticePoint(a - b, -b),
        LatticePoint(b, b - a),
    )


def rightmost_corner(p: BenzelParams) -> LatticePoint:
    return LatticePoint(p.b, p.b - p.a)


def cell_corners(center: LatticePoint) -> Tuple[LatticePoint, ...]:
    """The six corner vertices of the cell, counterclockwise from center+1."""
    return tuple(center + d for d in _CORNER_OFFSETS)


def benzel(p: BenzelParams) -> Region:
    """All cells whose six corners lie inside or on the bounding hexagon.

    Equivalent center test: per hexagon edge, the worst corner offset is
    folded into a constant, so each candidate center costs one half-plane
    test per edge instead of six.  Within a row of fixed y each test
    cross(d, (x, y) - v) + margin >= 0 reads k - d.y * x >= 0, so the row's
    cells are the class--1 centers of one interval of x.
    """
    hexagon = bounding_hexagon(p)
    edges = []
    for i in range(6):
        v, w = hexagon[i], hexagon[(i + 1) % 6]
        d = w - v
        margin = min(cross(d, off) for off in _CORNER_OFFSETS)
        edges.append((d, v, margin))
    cells = set()
    # The hexagon spans -a <= x <= b and -b <= y <= a.
    for y in range(-p.b, p.a + 1):
        lo, hi = -p.a, p.b
        for d, v, margin in edges:
            k = d.x * (y - v.y) + d.y * v.x + margin
            if d.y > 0:
                hi = min(hi, k // d.y)
            elif d.y < 0:
                lo = max(lo, -(k // -d.y))
            elif k < 0:
                hi = lo - 1
        # The first x >= lo with x + y == -1 (mod 3).
        for x in range(lo + (-1 - lo - y) % 3, hi + 1, 3):
            cells.add(LatticePoint(x, y))
    return Region(frozenset(cells))


def triangle(n: int) -> Region:
    """The honeycomb triangle T_n with rows of 1, 2, ..., n cells.

    Placed so that triangle(3) coincides with the (3, 3)-benzel: row i
    (0-based, apex row first) holds the cells (-2 + i + j, -2 + 2i - j)
    for j = 0..i, which march in steps of 1 - omega.
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidParams(f"triangle size must be a positive integer, got {n!r}")
    cells = set()
    for i in range(n):
        for j in range(i + 1):
            cells.add(LatticePoint(-2 + i + j, -2 + 2 * i - j))
    return Region(frozenset(cells))


_STEP_FOR_VECTOR = {s.vector: s for s in Step}
_Pair = Tuple[int, int]


def boundary_cycle(cells: Collection[LatticePoint]) -> List[LatticePoint]:
    """The counterclockwise boundary of a set of cells as a vertex cycle,
    starting at the lexicographically smallest vertex.  The work is done
    on plain (x, y) integer pairs; only the ring returned is made of points.

    Edge i of a cell (corner i to corner i + 1) is on the boundary exactly
    when the cell across it is not in the set.  Every vertex of the hexagon
    graph has degree 3, so a boundary vertex has one boundary edge in and
    one out, and the boundary edges form disjoint cycles: a counterclockwise
    outline for each edge-connected piece of the set and a clockwise cycle
    around each hole.  The smallest vertex lies on an outline.  Raises
    NotSimplyConnected unless that outline is the only cycle: "not
    edge-connected" when another cycle runs counterclockwise, and "not a
    single closed curve" when every other cycle goes round a hole.
    """
    succ: Dict[_Pair, _Pair] = {}
    for x, y in cells:
        for tx, ty, hx, hy, ax, ay in _CELL_EDGES:
            if (x + ax, y + ay) not in cells:
                v = (x + tx, y + ty)
                if v in succ:
                    raise NotSimplyConnected(f"boundary pinches at vertex {LatticePoint(*v)}")
                succ[v] = (x + hx, y + hy)
    ring = _cycle(succ, min(succ))
    if len(ring) == len(succ):
        return list(map(LatticePoint._make, ring))
    left = set(succ).difference(ring)
    while left:
        other = _cycle(succ, left.pop())
        left.difference_update(other)
        if sum(x * succ[x, y][1] - succ[x, y][0] * y for x, y in other) > 0:
            raise NotSimplyConnected("region cells are not edge-connected")
    raise NotSimplyConnected("region boundary is not a single closed curve")


def _cycle(succ: Dict[_Pair, _Pair], start: _Pair) -> List[_Pair]:
    ring = [start]
    v = succ[start]
    while v != start:
        ring.append(v)
        v = succ[v]
    return ring


def trace_boundary(r: Region) -> Word:
    """Trace the counterclockwise boundary of a simply connected region.

    Starts at the lexicographically smallest class-0 boundary vertex and
    returns a closed, spur-free word whose signed area is the cell count.
    Raises EmptyRegion for no cells, and NotSimplyConnected, as
    boundary_cycle does, for cells in several pieces or a region with a
    hole.
    """
    if not r.cells:
        raise EmptyRegion("cannot trace the boundary of an empty region")
    ring = boundary_cycle(r.cells)
    k = ring.index(min(v for v in ring if class_of(v) == 0))
    ring = ring[k:] + ring[:k]
    pairs = zip(ring, ring[1:] + ring[:1])
    steps = [_STEP_FOR_VECTOR[(wx - vx, wy - vy)] for (vx, vy), (wx, wy) in pairs]
    return Word(tuple(steps), ring[0])


def _rep(pattern: str, count: int) -> str:
    return " ".join([pattern] * count)


def boundary_word_closed_form(p: BenzelParams) -> Word:
    """The closed-form boundary word of the (a, b)-benzel.

    Class 1 words are spur-free; class 0 and -1 words each carry three
    corner spur pairs.  Every class -1 word, and every degenerate class 0
    word (s or t = 0), has one of those pairs across the wrap (its last
    and first steps); the degenerate class 0 words also expose a further
    spur once their pairs are removed.  Class 0 words start at the
    rightmost corner of the bounding hexagon; class 1 and -1 words start
    at a class-1 point (for class 1, one step a left of the rightmost
    corner; for class -1, the rightmost corner itself).
    """
    s, t, c = p.s, p.t, p.cls
    if c == 0:
        text = " ".join(
            [
                _rep("b a' b c'", s),
                _rep("c a' b a'", t),
                _rep("c b' c a'", s),
                _rep("a b' c b'", t),
                _rep("a c' a b'", s),
                _rep("b c' a c'", t),
            ]
        )
        base = rightmost_corner(p)
    elif c == 1:
        text = " ".join(
            [
                _rep("c' b a' b", s), "c' b",
                _rep("a' c a' b", t), "a' c",
                _rep("a' c b' c", s), "a' c",
                _rep("b' a b' c", t), "b' a",
                _rep("b' a c' a", s), "b' a",
                _rep("c' b c' a", t), "c' b",
            ]
        )
        base = rightmost_corner(p) + LatticePoint(-1, 0)
    else:
        text = " ".join(
            [
                _rep("a' b c' b", s), "a'",
                _rep("b a' c a'", t), "b",
                _rep("b' c a' c", s), "b'",
                _rep("c b' a b'", t), "c",
                _rep("c' a b' a", s), "c'",
                _rep("a c' b c'", t), "a",
            ]
        )
        base = rightmost_corner(p)
    return word_from_string(text, base)


def find_spurs(w: Word) -> List[int]:
    """Positions i (cyclic) where step i+1 immediately retraces step i.

    Raises NonIsolatedSpur if two such pairs overlap (share a step); pairs
    side by side at one vertex are allowed.
    """
    n = len(w.steps)
    hits = [i for i in range(n) if w.steps[(i + 1) % n] is w.steps[i].inverse]
    used = set()
    for i in hits:
        if i in used or (i + 1) % n in used:
            raise NonIsolatedSpur(f"overlapping spurs near step {i}")
        used.add(i)
        used.add((i + 1) % n)
    return hits


def despur(w: Word) -> Word:
    """Remove all spur pairs from a closed word.

    Removal is iterated until the word is spur-free; removing one pair can
    expose another (degenerate boundary words with zero-length stretches do
    this), and pair removal is confluent, so the result is canonical.  If a
    spur pair wraps around the end of the word the basepoint moves past it.
    """
    steps = list(w.steps)
    base = w.basepoint
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(steps):
            if steps[i + 1] is steps[i].inverse:
                del steps[i : i + 2]
                changed = True
                i = max(i - 1, 0)
            else:
                i += 1
        if len(steps) >= 2 and steps[0] is steps[-1].inverse:
            base = base + steps[0].vector
            del steps[-1]
            del steps[0]
            changed = True
    return Word(tuple(steps), base)


def cyclically_equal(u: Word, v: Word) -> bool:
    """Whether two closed words trace the same directed edge cycle.

    Compares the directed edge sequences up to cyclic rotation, so the
    basepoints may differ as long as both lie on the common cycle.
    """
    if len(u.steps) != len(v.steps):
        return False
    n = len(u.steps)
    if n == 0:
        return u.basepoint == v.basepoint
    verts_u, verts_v = u.vertices(), v.vertices()
    edges_u = list(zip(verts_u, verts_u[1:]))
    edges_v = list(zip(verts_v, verts_v[1:]))
    for k in range(n):
        if edges_v[k] == edges_u[0]:
            if all(edges_v[(k + i) % n] == edges_u[i] for i in range(n)):
                return True
    return False


# --- file formats -----------------------------------------------------------


def region_to_json(r: Region) -> dict:
    """JSON-ready dict {"cells": [[x, y], ...]} with cells sorted."""
    return {"cells": [[c.x, c.y] for c in r.sorted_cells()]}


def point_from_json(item: object, what: str) -> LatticePoint:
    """The point of an [x, y] pair of JSON integers (bools are not integers
    here); FormatError(f"{what} {item!r}") for anything else."""
    if isinstance(item, list) and len(item) == 2:
        x, y = item
        if isinstance(x, int) and isinstance(y, int) and bool not in (type(x), type(y)):
            return LatticePoint(x, y)
    raise FormatError(f"{what} {item!r}")


def region_from_json(obj: object) -> Region:
    """Parse a region from its JSON dict (or the raw file text)."""
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as e:
            raise FormatError(f"bad region JSON: {e}") from None
    if not isinstance(obj, dict):
        raise FormatError("region file must be a JSON object")
    unknown = set(obj) - {"cells"}
    if unknown:
        raise FormatError(f"unknown region keys: {sorted(unknown)}")
    if "cells" not in obj:
        raise FormatError("region file lacks a 'cells' key")
    if not isinstance(obj["cells"], list):
        raise FormatError("'cells' must be a list")
    cells = [point_from_json(item, "bad cell entry") for item in obj["cells"]]
    if len(set(cells)) != len(cells):
        raise FormatError("duplicate cells in region file")
    try:
        return Region(frozenset(cells))
    except InvalidParams as e:
        raise FormatError(str(e)) from None


def word_to_text(w: Word) -> str:
    """Serialize a word as 'base=x,y' followed by step tokens."""
    return " ".join([f"base={w.basepoint.x},{w.basepoint.y}"] + w.tokens())


def word_from_text(text: str) -> Word:
    """Parse the word syntax: optional 'base=x,y' token, then step tokens."""
    tokens = text.split()
    base = ORIGIN
    if tokens and tokens[0].startswith("base="):
        try:
            xs, ys = tokens[0][5:].split(",")
            base = LatticePoint(int(xs), int(ys))
        except ValueError:
            raise FormatError(f"bad base token {tokens[0]!r}") from None
        tokens = tokens[1:]
    try:
        return word_from_string(" ".join(tokens), base)
    except KeyError as e:
        raise FormatError(f"bad step token {e.args[0]!r}") from None
