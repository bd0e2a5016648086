"""Benzels, honeycomb triangles, boundary tracing, and region/word files.

The (a, b)-benzel is the union of the unit hexagons lying completely
inside the convex hexagon with vertices a*w+b, -a*w^2-b, a*w^2+b*w,
-a-b*w, a+b*w^2, -a*w-b*w^2 (w = omega).  Cells are identified by their
centers, which are the class--1 lattice points.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Collection, Dict, FrozenSet, List, Sequence, Tuple

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
    word_from_string,
    word_from_tokens,
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
        if not isinstance(self.cells, frozenset):
            raise InvalidParams(f"cells must be a frozenset, got {type(self.cells).__name__}")
        for c in self.cells:
            if type(c) is not LatticePoint:
                raise InvalidParams(f"cell {c!r} is not a LatticePoint")
            if (c[0] + c[1]) % 3 != 2:
                raise InvalidParams(f"cell center {c} has class {class_of(c)}, not -1")

    def __len__(self) -> int:
        return len(self.cells)

    def __contains__(self, cell: LatticePoint) -> bool:
        return cell in self.cells


@dataclass(frozen=True)
class BenzelParams:
    """Validated benzel parameters (a, b) with 2 <= a <= 2b and 2 <= b <= 2a."""

    a: int
    b: int

    def __post_init__(self) -> None:
        a, b = self.a, self.b
        if not (type(a) is int and type(b) is int):
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
        return (2 * self.a - self.b) // 3

    @property
    def t(self) -> int:
        """Repeat count for the long stretches of the boundary word."""
        return (2 * self.b - self.a) // 3


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


def benzel(p: BenzelParams) -> Region:
    """All cells whose six corners lie inside or on the bounding hexagon.

    The hexagon is -a <= x <= b, -b <= y <= a and -b <= x - y <= a, and a
    cell's corners reach exactly one unit past its center in each of x, y
    and x - y.  So the cells are the class--1 centers with
    1 - a <= x <= b - 1, 1 - b <= y <= a - 1 and 1 - b <= x - y <= a - 1:
    in each row of fixed y, those of one interval of x.
    """
    a, b = p.a, p.b
    cells = set()
    for y in range(1 - b, a):
        lo = max(1 - a, y + 1 - b)
        # The first x >= lo with x + y == -1 (mod 3).
        for x in range(lo + (-1 - lo - y) % 3, min(b - 1, y + a - 1) + 1, 3):
            cells.add(LatticePoint(x, y))
    return Region(frozenset(cells))


def triangle(n: int) -> Region:
    """The honeycomb triangle T_n with rows of 1, 2, ..., n cells.

    Placed so that triangle(3) coincides with the (3, 3)-benzel: row i
    (0-based, apex row first) holds the cells (-2 + i + j, -2 + 2i - j)
    for j = 0..i, which march in steps of 1 - omega.
    """
    if type(n) is not int or n < 1:
        raise InvalidParams(f"triangle size must be a positive integer, got {n!r}")
    cells = set()
    for i in range(n):
        for j in range(i + 1):
            cells.add(LatticePoint(-2 + i + j, -2 + 2 * i - j))
    return Region(frozenset(cells))


_STEP_FOR_VECTOR = {s.vector: s for s in Step}
_Pair = Tuple[int, int]
_Run = Tuple[int, int]

# Edge i of a cell in row terms: the cell across it lies du = 2ax - ay rows
# on (3, 0 or -3) and ay further in y; then the offsets of its tail and head.
_ROW_EDGES = tuple(
    (2 * ax - ay, ay, tx, ty, hx, hy) for tx, ty, hx, hy, ax, ay in _CELL_EDGES
)


def boundary_cycle(cells: Collection[LatticePoint]) -> List[LatticePoint]:
    """The counterclockwise boundary of a set of cells as a vertex cycle,
    starting at the lexicographically smallest vertex.  The work is done
    on plain (x, y) integer pairs; only the ring returned is made of points.

    Cells are grouped into rows u = 2x - y, where they sit two apart in y,
    and each row into maximal runs.  Edge i of a cell (corner i to corner
    i + 1) is on the boundary exactly when the cell across it is not in the
    set; that cell lies in the same row (edges 1 and 4, y + 2 and y - 2) or
    in row u + 3 (edges 0 and 5) or u - 3 (edges 2 and 3), at y + 1 or
    y - 1.  So each edge's boundary cells are a row's runs less the runs of
    the row across, shifted, and the work grows with the rows and the
    boundary edges, not with the cells.  Cells of different classes lie in
    rows of different residues mod 3 and never neighbour.

    Every vertex of the hexagon graph has degree 3, so a boundary vertex has
    one boundary edge in and one out, and the boundary edges form disjoint
    cycles: a counterclockwise outline for each edge-connected piece of the
    set and a clockwise cycle around each hole.  Only cells of different
    classes, whose hexagons overlap, can give a vertex two boundary edges
    out; then NotSimplyConnected("boundary pinches at vertex v") names the
    smallest such v.  The smallest vertex lies on an outline.  Raises
    NotSimplyConnected unless that outline is the only cycle: "not
    edge-connected" when another cycle runs counterclockwise, and "not a
    single closed curve" when every other cycle goes round a hole.  No
    cells raise EmptyRegion.
    """
    if not cells:
        raise EmptyRegion("cannot trace the boundary of an empty region")
    rows: Dict[int, List[int]] = defaultdict(list)
    for x, y in cells:
        rows[2 * x - y].append(y)
    runs = {u: _runs(ys) for u, ys in rows.items()}
    succ: Dict[_Pair, _Pair] = {}
    pinched = []
    for u, row in runs.items():
        for du, ay, tx, ty, hx, hy in _ROW_EDGES:
            for lo, hi in _uncovered(row, runs.get(u + du, ()), ay):
                for y in range(lo, hi + 1, 2):
                    x = (u + y) >> 1
                    v = (x + tx, y + ty)
                    if v in succ:
                        pinched.append(v)
                    succ[v] = (x + hx, y + hy)
    if pinched:
        raise NotSimplyConnected(f"boundary pinches at vertex {min(pinched)}")
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


def _runs(ys: List[int]) -> List[_Run]:
    """The maximal runs (first y, last y) of a row's distinct y values, two
    apart within a run.  A row that spans 2 * (len(ys) - 1) is one run and
    is not sorted; any other is sorted in place and split."""
    lo, last = min(ys), max(ys)
    if last - lo == 2 * (len(ys) - 1):
        return [(lo, last)]
    ys.sort()
    out = []
    for a, b in zip(ys, ys[1:]):
        if b - a > 2:
            out.append((lo, a))
            lo = b
    out.append((lo, last))
    return out


def _uncovered(row: List[_Run], other: Sequence[_Run], d: int) -> List[_Run]:
    """The runs of the y in row for which y + d is in none of other's runs:
    a two-pointer difference of row and other shifted by -d, both sorted
    lists of disjoint runs in steps of 2 (d keeps their parities equal)."""
    out = []
    j, m = 0, len(other)
    for lo, hi in row:
        while j < m and other[j][1] - d < lo:
            j += 1
        y = lo
        k = j
        while k < m and other[k][0] - d <= hi:
            if other[k][0] - d > y:
                out.append((y, other[k][0] - d - 2))
            y = other[k][1] - d + 2
            k += 1
        if y <= hi:
            out.append((y, hi))
    return out


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
    ring = boundary_cycle(r.cells)
    k = ring.index(min(v for v in ring if class_of(v) == 0))
    ring = ring[k:] + ring[:k]
    pairs = zip(ring, ring[1:] + ring[:1])
    steps = [_STEP_FOR_VECTOR[(wx - vx, wy - vy)] for (vx, vy), (wx, wy) in pairs]
    return Word(tuple(steps), ring[0])


# Per class, the short and the long stretch of the first third of the
# closed-form word, each as its repeated pattern and the tail after it.
_THIRDS = {
    0: ("b a' b c'", "", "c a' b a'", ""),
    1: ("c' b a' b", "c' b", "a' c a' b", "a' c"),
    -1: ("a' b c' b", "a'", "b a' c a'", "b"),
}

# Turning by 120 degrees multiplies by omega: a -> b -> c -> a, signs kept.
_TURN = str.maketrans("abc", "bca")


def boundary_word_closed_form(p: BenzelParams) -> Word:
    """The closed-form boundary word of the (a, b)-benzel: one third (s
    repeats of the class's short pattern and t of its long one, each then
    its tail), followed by that third turned by 120 and by 240 degrees.

    Class 1 words are spur-free; class 0 and -1 words each carry three
    corner spur pairs.  Every class -1 word, and every degenerate class 0
    word (s or t = 0), has one of those pairs across the wrap (its last
    and first steps); the degenerate class 0 words also expose a further
    spur once their pairs are removed.  Class 0 words start at the
    rightmost corner of the bounding hexagon; class 1 and -1 words start
    at a class-1 point (for class 1, one step a left of the rightmost
    corner; for class -1, the rightmost corner itself).
    """
    short, short_tail, long, long_tail = _THIRDS[p.cls]
    third = " ".join([short] * p.s + [short_tail] + [long] * p.t + [long_tail])
    turned = third.translate(_TURN)
    base = rightmost_corner(p)
    if p.cls == 1:
        base = base + LatticePoint(-1, 0)
    return word_from_string(" ".join([third, turned, turned.translate(_TURN)]), base)


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
            shared = i if i in used else (i + 1) % n
            raise NonIsolatedSpur(f"overlapping spurs near step {shared}")
        used.add(i)
        used.add((i + 1) % n)
    return hits


def despur(w: Word) -> Word:
    """Remove all spur pairs from a word.

    One stack pass drops each step that retraces the last kept step, which
    also catches pairs exposed by earlier removals (degenerate boundary
    words do this).  If the word is closed, inverse pairs across the ends
    are then trimmed, the basepoint moving past each; an open word keeps
    both its endpoints.  Pair removal is confluent, so the result is
    canonical.
    """
    steps: List[Step] = []
    for s in w.steps:
        if steps and steps[-1] is s.inverse:
            steps.pop()
        else:
            steps.append(s)
    base = w.basepoint
    i, j = 0, len(steps) - 1
    if w.is_closed:
        while i < j and steps[i] is steps[j].inverse:
            base = base + steps[i].vector
            i += 1
            j -= 1
    return Word(tuple(steps[i : j + 1]), base)


# --- file formats -----------------------------------------------------------


def region_to_json(r: Region) -> dict:
    """JSON-ready dict {"cells": [[x, y], ...]} with cells sorted."""
    return {"cells": [[c.x, c.y] for c in sorted(r.cells)]}


def point_from_json(item: object, what: str) -> LatticePoint:
    """The point of an [x, y] pair of JSON integers (bools are not integers
    here); FormatError(f"{what} {item!r}") for anything else."""
    if isinstance(item, list) and len(item) == 2:
        x, y = item
        if isinstance(x, int) and isinstance(y, int) and bool not in (type(x), type(y)):
            return LatticePoint(x, y)
    raise FormatError(f"{what} {item!r}")


def region_from_json(obj: object) -> Region:
    """Parse a region from its decoded JSON object."""
    if not isinstance(obj, dict):
        raise FormatError("region file must be a JSON object")
    unknown = set(obj) - {"cells"}
    if unknown:
        raise FormatError(f"unknown region keys: {sorted(unknown)}")
    if "cells" not in obj:
        raise FormatError("region file lacks a 'cells' key")
    if not isinstance(obj["cells"], list):
        raise FormatError("'cells' must be a list")
    items = obj["cells"]
    # One exact-type pass, then the points in bulk; when an entry fails it,
    # the per-entry reader runs instead and words the first bad entry.
    if not all(type(c) is list and len(c) == 2 and type(c[0]) is type(c[1]) is int for c in items):
        items = [point_from_json(item, "bad cell entry") for item in items]
    cells = frozenset(map(LatticePoint._make, items))
    if len(cells) != len(items):
        raise FormatError("duplicate cells in region file")
    try:
        return Region(cells)
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
    return word_from_tokens(tokens, base)
