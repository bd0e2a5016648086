"""Prototile placements, tiling validation, enumeration, and exact counting.

The tileset consists of the three bone orientations (three cells with
collinear centers) and the two stone chiralities (three pairwise-adjacent
cells).  Counting is a forward frontier sweep over the cells in row order
(2x - y, then y) that keeps only the live frontier states, each with an
exact int count; the memory cap bounds the estimated bytes of those live
states.  Placement frequencies run the same sweep keeping every state,
then a backward pass that counts each state's completions; a placement's
frequency sums, over the moves that place it, the partial tilings before
the move times the completions after it.  The table of all frequencies
of the latest region and tileset asked about is kept, and here the cap
bounds every state held, not just the live frontier.  A placement whose
kind is outside the tileset is answered by counting the region less its
cells.  Enumeration is a separate depth-first search over the same
move table, built in its own diagonal order (x - y, then x), which
fixes its documented output order; it keeps its own stack of frames, so
neither engine recurses and region size never meets the recursion limit.
It records each frontier state found to have no completion and never
enters one again; that dead-state set obeys the same memory cap, and
once full it stops growing while the search goes on unchanged.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .errors import FormatError, InvalidPlacement, InvalidTiling, ResourceLimit
from .hexlattice import ORIGIN, LatticePoint, class_of
from .regions import Region, point_from_json, region_from_json, region_to_json


class TileKind(Enum):
    """The five prototiles: bones along each lattice axis and the two stone
    chiralities.  StoneR is the chirality whose boundary shadow encloses
    area +3; StoneL encloses -3.

    Each member carries its sort position (index: bones before stones, in
    declaration order) and the offsets of its three cells from the anchor,
    the lexicographically smallest cell it covers (offsets, the first of
    them (0, 0)).  Bone axes are the center-difference directions
    1 - w = (1,-1), w - w^2 = (1,2), and w^2 - 1 = (-2,-1) re-anchored; the
    stone chirality labels are pinned by the shadow-area criterion (+3 for
    StoneR).  LatticePoint is a NamedTuple, so a plain (x, y) tuple hashes
    and compares equal to the point: the hot loops below look cells up by
    plain tuples built from these offsets instead of adding points.
    """

    BONE_AB = "boneAB", 0, (1, -1), (2, -2)
    BONE_BC = "boneBC", 1, (1, 2), (2, 4)
    BONE_CA = "boneCA", 2, (2, 1), (4, 2)
    STONE_R = "stoneR", 3, (1, 2), (2, 1)
    STONE_L = "stoneL", 4, (1, -1), (2, 1)

    def __new__(cls, name: str, index: int, *offsets: Tuple[int, int]) -> "TileKind":
        kind = object.__new__(cls)
        kind._value_ = name
        kind.index = index
        kind.offsets = (ORIGIN,) + tuple(LatticePoint(*o) for o in offsets)
        return kind


BONES = (TileKind.BONE_AB, TileKind.BONE_BC, TileKind.BONE_CA)
STONES = (TileKind.STONE_R, TileKind.STONE_L)
STONES_AND_BONES = BONES + STONES

# Kinds by their file and command-line names.
KIND_BY_NAME = {k.value: k for k in TileKind}


@dataclass(frozen=True)
class Placement:
    """A prototile dropped on the lattice, named by kind and anchor cell."""

    kind: TileKind
    anchor: LatticePoint

    def __post_init__(self) -> None:
        if class_of(self.anchor) != -1:
            raise InvalidPlacement(
                f"anchor {self.anchor} has class {class_of(self.anchor)}, not -1"
            )

    def __lt__(self, other: "Placement") -> bool:
        # Kinds sort in declaration order (bones before stones).
        return _placement_key(self) < _placement_key(other)


def _placement_key(p: Placement) -> Tuple[int, LatticePoint]:
    return (p.kind.index, p.anchor)


def cells_of(p: Placement) -> Tuple[LatticePoint, LatticePoint, LatticePoint]:
    """The three cells covered by a placement."""
    o = p.kind.offsets
    return (p.anchor + o[0], p.anchor + o[1], p.anchor + o[2])


@dataclass(frozen=True)
class Tiling:
    """A region together with placements intended to partition it."""

    region: Region
    placements: Tuple[Placement, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "placements", tuple(sorted(self.placements, key=_placement_key))
        )


def placements(r: Region, tileset: Sequence[TileKind]) -> List[Placement]:
    """All placements of the given kinds lying entirely inside r, in
    deterministic (kind, anchor) order."""
    cells = r.cells
    anchors = sorted(cells)
    out: List[Placement] = []
    for kind in [k for k in TileKind if k in tileset]:
        _, (x1, y1), (x2, y2) = kind.offsets  # the first is (0, 0)
        for anchor in anchors:
            x, y = anchor
            if (x + x1, y + y1) in cells and (x + x2, y + y2) in cells:
                out.append(Placement(kind, anchor))
    return out


def validate(t: Tiling) -> bool:
    """True iff the placements partition the region's cells exactly."""
    return validation_error(t) is None


def validation_error(t: Tiling) -> Optional[str]:
    """None if t validates, else a diagnostic for the first violation."""
    region_cells = t.region.cells
    covered: set = set()
    for p in t.placements:
        ax, ay = p.anchor
        for ox, oy in p.kind.offsets:
            c = (ax + ox, ay + oy)
            if c not in region_cells:
                return f"{p.kind.value} at {p.anchor} spills outside the region at {c}"
            if c in covered:
                return f"cell {c} covered twice ({p.kind.value} at {p.anchor})"
            covered.add(c)
    # Every covered cell lies in the region, once, so equal sizes mean equal sets.
    if len(covered) != len(region_cells):
        missing = min(region_cells - covered)
        return f"cell {missing} is uncovered"
    return None


def _enumeration_order(c: LatticePoint) -> Tuple[int, int]:
    # Along the x - y diagonal; enumeration's documented output order is
    # lexicographic in the choices made in this order.
    return (c.x - c.y, c.x)


def _counting_order(c: LatticePoint) -> Tuple[int, int]:
    # One cell row (2x - y constant) after another.  A translation adds a
    # constant to both parts and never changes the sort; rotating or
    # reflecting the lattice maps rows onto rows, so no input is swept
    # along a diagonal.  Of the twelve row orders and the diagonal, this
    # one's rotation orbit holds the fewest peak live states summed over
    # the benzels with a, b <= 14; see CHANGES.md for the measured table.
    return (2 * c.x - c.y, c.y)


def _move_table(
    r: Region,
    tileset: Sequence[TileKind],
    key: Callable[[LatticePoint], Tuple[int, int]],
) -> List[List[Tuple[Placement, int]]]:
    """The move table both engines share.  With the cells sorted by key,
    entry i lists the placements whose first (lowest-index) covered cell is
    cell i, each with its cells relative to cell i as mask bits."""
    index = {c: i for i, c in enumerate(sorted(r.cells, key=key))}
    table: List[List[Tuple[Placement, int]]] = [[] for _ in index]
    for p in placements(r, tileset):
        x, y = p.anchor
        _, (x1, y1), (x2, y2) = p.kind.offsets
        i0, i1, i2 = index[p.anchor], index[x + x1, y + y1], index[x + x2, y + y2]
        lo = min(i0, i1, i2)
        table[lo].append((p, (1 << (i0 - lo)) | (1 << (i1 - lo)) | (1 << (i2 - lo))))
    return table


# Resident bytes per live counting state: a dict slot plus its int mask and
# int count.  The (22, 26) bone count measured 76-106 B between 0.1 M and
# 13 M live states (peak RSS over the import baseline); rounding the top of
# that range up keeps the cap binding before memory does.  Enumeration's
# dead-state set is charged the same; its entries (a set slot and an int
# key) measured 72 B each over the 105,578 dead states of the (12, 15)
# bone enumeration.
_BYTES_PER_STATE = 110


def _memo_limit_bytes(memo_limit_mb: Optional[float]) -> Optional[int]:
    name = "memo_limit_mb"
    if memo_limit_mb is None:
        memo_limit_mb = os.environ.get("TRIBONE_MEMO_LIMIT_MB")
        if memo_limit_mb is None:
            return None
        name = "TRIBONE_MEMO_LIMIT_MB"
    try:
        limit = float(memo_limit_mb) * 1024 * 1024
    except ValueError:
        limit = math.nan
    # int() raises on nan and infinities; a negative cap is bad input, not a
    # cap that every sweep exceeds
    if not math.isfinite(limit) or limit < 0:
        raise ResourceLimit(f"bad {name} value {memo_limit_mb!r}")
    return int(limit)


def _check_cap(i: int, n: int, states: int, limit: int, kept: bool) -> None:
    """Raise ResourceLimit, naming cell i of n, if states are over the cap."""
    if states * _BYTES_PER_STATE > limit:
        what, held = ("the frequency table", "held") if kept else ("counting", "live")
        raise ResourceLimit(
            f"{what} stopped at cell {i} of {n}: {states} {held} states, "
            f"about {states * _BYTES_PER_STATE / 2**20:.0f} MB estimated, "
            f"over the cap of {limit / 2**20:g} MB"
        )


def _sweep(
    table: List[List[Tuple[Placement, int]]], limit: Optional[int], keep: bool
) -> Tuple[List[Optional[Dict[int, int]]], List[List[int]]]:
    """The forward frontier sweep behind count_tilings and the frequency
    table.  Returns the buckets (bucket i maps the window mask of each
    state at cell i to its count of partial tilings, None where no state
    arose) and each cell's move masks.  Without keep a bucket is dropped
    once popped, so only bucket n is left; with keep every bucket stays,
    and the cap is charged for all of them."""
    n = len(table)
    moves = [[bits for _p, bits in ps] for ps in table]
    reach = max((bits.bit_length() - 1 for ps in moves for bits in ps), default=0)
    buckets: List[Optional[Dict[int, int]]] = [None] * (n + 1)
    buckets[0] = {0: 1}
    held = 0  # states of the popped buckets still held
    for i in range(n):
        layer = buckets[i]
        if layer is None:
            continue
        if keep:
            held += len(layer)
        else:
            buckets[i] = None
            held = len(layer)
        for mask, count in layer.items():
            for bits in moves[i]:
                if mask & bits:
                    continue
                m = mask | bits
                j = (~m & (m + 1)).bit_length() - 1  # lowest clear bit
                m >>= j
                nxt = buckets[i + j]
                if nxt is None:
                    buckets[i + j] = {m: count}
                else:
                    nxt[m] = nxt.get(m, 0) + count
        if limit is not None:
            live = held + sum(
                len(b) for b in buckets[i + 1 : i + reach + 2] if b is not None
            )
            _check_cap(i, n, live, limit, keep)
    return buckets, moves


def count_tilings(
    r: Region,
    tileset: Sequence[TileKind],
    memo_limit_mb: Optional[float] = None,
) -> int:
    """Exact number of partitions of r into tiles of the given kinds.

    Forward frontier sweep over the cells in row order (2x - y, then y).  A
    state is the first uncovered cell i plus a window mask whose bit j says
    cell i + j is already covered.  States are kept in one bucket per cell,
    each a dict from mask to an exact count of partial tilings.  Bucket i is
    popped in turn; every placement whose first cell is i and whose other
    cells are free moves its count to the bucket of the next uncovered
    cell.  The answer is the count left in bucket n.  Only buckets not yet
    popped are held, so memory follows the live frontier.

    memo_limit_mb (or the TRIBONE_MEMO_LIMIT_MB environment variable) caps
    the estimated bytes of live states.  Past the cap the sweep raises
    ResourceLimit, naming the cell it reached; it never returns a bogus 0.
    """
    table = _move_table(r, tileset, _counting_order)
    n = len(table)
    if n % 3:
        return 0
    last = _sweep(table, _memo_limit_bytes(memo_limit_mb), keep=False)[0][n]
    return last.get(0, 0) if last is not None else 0


def _frequency_table(
    r: Region, tileset: Sequence[TileKind], memo_limit_mb: Optional[float]
) -> Dict[Tuple[int, LatticePoint], int]:
    """The frequency of every placement in placements(r, tileset), keyed by
    _placement_key, from the kept forward sweep and one backward pass over
    the same buckets."""
    table = _move_table(r, tileset, _counting_order)
    n = len(table)
    freq = {_placement_key(p): 0 for ps in table for p, _bits in ps}
    if n % 3:
        return freq
    limit = _memo_limit_bytes(memo_limit_mb)
    buckets, moves = _sweep(table, limit, keep=True)
    if buckets[n] is None:
        return freq
    # Walking back, bucket i's partial-tiling counts become its states'
    # completion counts (states with none dropped), read off its children
    # in buckets already replaced.  A move from a state with F partial
    # tilings into a child with G completions lies in F * G tilings.
    buckets[n] = {0: 1}
    held = sum(len(b) for b in buckets if b is not None)  # states the list holds
    for i in range(n - 1, -1, -1):
        layer = buckets[i]
        if layer is None:
            continue
        bits_i = moves[i]
        sums = [0] * len(bits_i)
        out = {}
        for mask, f in layer.items():
            g = 0
            for k, bits in enumerate(bits_i):
                if mask & bits:
                    continue
                m = mask | bits
                j = (~m & (m + 1)).bit_length() - 1  # lowest clear bit
                c = buckets[i + j].get(m >> j)
                if c:
                    g += c
                    sums[k] += f * c
            if g:
                out[mask] = g
        if limit is not None:
            _check_cap(i, n, held + len(out), limit, kept=True)
        held += len(out) - len(layer)
        buckets[i] = out
        for (p, _bits), total in zip(table[i], sums):
            freq[_placement_key(p)] = total
    return freq


def enumerate_tilings(
    r: Region,
    tileset: Sequence[TileKind],
    limit: Optional[int] = None,
) -> Iterator[Tiling]:
    """All tilings of r by the given kinds, lazily, in a deterministic
    order (lexicographic in the choice made at each first-uncovered cell).

    Depth-first backtracking on an explicit stack, one frame per chosen
    placement, so deep regions need no recursion; use count_tilings when
    only the number is needed.

    A frame's state is the first uncovered cell i and the window mask of
    covered cells from i on, as in count_tilings; the tilings below a
    frame depend on that state alone, not on the path to it.  A state
    whose frame is exhausted without yielding a tiling is recorded as
    dead, and the search never enters a dead state again.  Only empty
    subtrees are skipped, so the output sequence is that of plain
    backtracking, and nothing is computed ahead of the first tiling.  The
    dead set obeys the counting cap (TRIBONE_MEMO_LIMIT_MB, estimated at
    the same bytes per state): once full it stops growing and the search
    goes on without recording more, never raising for lack of room.
    """
    if limit is not None and limit <= 0:
        return
    by_first = _move_table(r, tileset, _enumeration_order)
    n = len(by_first)
    if n == 0:
        yield Tiling(r, ())
        return
    if n % 3:
        return
    cap = _memo_limit_bytes(None)
    room = None if cap is None else cap // _BYTES_PER_STATE
    shift = n.bit_length()  # the key mask << shift | i is injective for i <= n
    dead: set = set()
    # A frame is (cell, mask, untried moves, the placement that led to it,
    # the number of tilings yielded before it was pushed).
    frames = [(0, 0, iter(by_first[0]), None, 0)]
    emitted = 0
    while frames:
        i, mask, untried, _, before = frames[-1]
        for p, bits in untried:
            if not mask & bits:
                break
        else:
            frames.pop()
            if emitted == before and (room is None or len(dead) < room):
                dead.add(mask << shift | i)
            continue
        m = mask | bits
        j = (~m & (m + 1)).bit_length() - 1  # lowest clear bit
        if i + j < n:
            m >>= j
            if m << shift | (i + j) not in dead:
                frames.append((i + j, m, iter(by_first[i + j]), p, emitted))
            continue
        yield Tiling(r, tuple(f[3] for f in frames[1:]) + (p,))
        emitted += 1
        if limit is not None and emitted >= limit:
            return


def stone_balance(t: Tiling) -> int:
    """3 x (number of right stones - number of left stones); the quantity
    every tiling of a fixed region shares."""
    *_, right, left = orientation_histogram(t)
    return 3 * (right - left)


def orientation_histogram(t: Tiling) -> Tuple[int, int, int, int, int]:
    """Per-kind placement counts (nAB, nBC, nCA, nStoneR, nStoneL)."""
    _require_valid(t)
    counts = [0] * len(TileKind)
    for p in t.placements:
        counts[p.kind.index] += 1
    return tuple(counts)  # type: ignore[return-value]


def _require_valid(t: Tiling) -> None:
    err = validation_error(t)
    if err is not None:
        raise InvalidTiling(err)


# The frequency table of the (region, tileset) asked about last, as one
# (key, table) pair that is replaced whole, never updated in place.
_last_frequencies: Optional[
    Tuple[Tuple[Region, FrozenSet[TileKind]], Dict[Tuple[int, LatticePoint], int]]
] = None


def placement_frequency(
    r: Region,
    tileset: Sequence[TileKind],
    p: Placement,
    memo_limit_mb: Optional[float] = None,
) -> int:
    """Number of tilings of r (by the tileset) that contain p.

    The first call for a region and tileset builds the frequency of every
    placement at once: the counting sweep runs forward keeping every
    state, then a backward pass counts each state's completions, and a
    move's frequency is the sum over its uses of the partial tilings
    before it times the completions after it.  The table of the latest
    (region, tileset) is kept, so further calls on them are lookups.

    The table holds every state of the sweep, not only the live frontier,
    and memo_limit_mb (or TRIBONE_MEMO_LIMIT_MB) caps the estimated bytes
    of the states held while it is built; past the cap it raises
    ResourceLimit and keeps nothing.  A call answered from the kept table
    builds nothing, so the cap does not bind it.

    A placement whose kind is not in the tileset is in no such tiling; it
    is answered with the number of tilings of the region less its cells,
    by a count of that remainder.  A placement not inside r raises
    InvalidPlacement.
    """
    global _last_frequencies
    cells = frozenset(cells_of(p))
    if not cells <= r.cells:
        raise InvalidPlacement(f"{p.kind.value} at {p.anchor} is not inside the region")
    if p.kind not in tileset:
        return count_tilings(Region(r.cells - cells), tileset, memo_limit_mb)
    key = (r, frozenset(tileset))
    last = _last_frequencies
    if last is None or last[0] != key:
        last = (key, _frequency_table(r, tileset, memo_limit_mb))
        _last_frequencies = last
    return last[1][_placement_key(p)]


# -- serialization -----------------------------------------------------------

def tiling_to_json(t: Tiling) -> dict:
    """JSON-ready dict for a tiling; tiles sorted by (kind, anchor)."""
    return {
        "region": region_to_json(t.region),
        "tiles": [
            {"kind": p.kind.value, "anchor": [p.anchor.x, p.anchor.y]}
            for p in t.placements
        ],
    }


def tiling_from_json(obj: object) -> Tiling:
    """Parse the tiling JSON shape; FormatError on any malformed input."""
    if not isinstance(obj, dict):
        raise FormatError("tiling must be a JSON object")
    extra = set(obj) - {"region", "tiles"}
    if extra:
        raise FormatError(f"unknown tiling keys {sorted(extra)}")
    if "region" not in obj or "tiles" not in obj:
        raise FormatError("tiling needs 'region' and 'tiles'")
    region = region_from_json(obj["region"])
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
        anchor = point_from_json(entry["anchor"], "bad anchor")
        try:
            placs.append(Placement(kind, anchor))
        except InvalidPlacement as e:
            raise FormatError(str(e))
    return Tiling(region, tuple(placs))
