"""The explicit bone tiling of benzels with pentagonal-pair parameters.

For k >= 2 the (k(3k-1)/2, k(3k+1)/2)-benzel splits into three congruent
sectors bounded by two lattice paths and their rotations.  Sector 0 is read
off its despurred outline, whose boundary cells end its diagonal runs; each
run's length is divisible by 3, so bones of one orientation tile it, and the
same bones turned by 120 and 240 degrees tile the other two sectors.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .errors import ConstructionFailed, InvalidParams
from .hexlattice import (
    ORIGIN,
    LatticePoint,
    Word,
    signed_area,
    word_from_string,
)
from .regions import _CELL_EDGES, BenzelParams, benzel, despur
from .tilings import BONES, Tiling, _unchecked

# The center of the cell on the left of each step, as an offset from the
# step's tail: edge i of a cell runs counterclockwise round it.
_LEFT_CELL = {(hx - tx, hy - ty): (-tx, -ty) for tx, ty, hx, hy, _, _ in _CELL_EDGES}


def pentagonal_benzel(k: int) -> BenzelParams:
    """Parameters (k(3k-1)/2, k(3k+1)/2) of the k-th bone-tileable benzel."""
    if type(k) is not int:
        raise InvalidParams(f"pentagonal construction needs an integer k, got {k!r}")
    if k < 2:
        raise InvalidParams(f"pentagonal construction needs k >= 2, got {k}")
    return BenzelParams(k * (3 * k - 1) // 2, k * (3 * k + 1) // 2)


def sector_paths(k: int) -> Tuple[Word, Word]:
    """The boundary paths (P1, P2) of sector 0, from the origin to the
    upper-right corner of the bounding hexagon: P1 goes by way of the right
    corner and P2 by way of the upper-left corner.

    P1's spine alternates ever-longer zigzag blocks (a c' a b')^j (a c')
    for j < k, reaching the right corner -a*omega - b*omega^2 = (b, b-a);
    its tail (b a' b c')^s climbs to the upper-right corner.  P2 mirrors
    the pattern through the upper-left corner, with tail exponent t.
    """
    p = pentagonal_benzel(k)
    s = k * (k - 1) // 2
    t = k * (k + 1) // 2
    p1 = []
    p2 = []
    for j in range(k):
        p1 += ["a", "c'", "a", "b'"] * j + ["a", "c'"]
        p2 += ["b", "a'", "b", "c'"] * j + ["b", "a'"]
    spine_end = word_from_string(" ".join(p1)).displacement()
    if spine_end != LatticePoint(p.b, p.b - p.a):
        raise ConstructionFailed(
            f"P1 spine ends at {spine_end}, not the right corner"
        )
    p1 += ["b", "a'", "b", "c'"] * s
    p2 += ["a", "b'", "a", "c'"] * t
    w1, w2 = word_from_string(" ".join(p1)), word_from_string(" ".join(p2))
    corner = LatticePoint(p.b, p.a)
    if w1.displacement() != corner or w2.displacement() != corner:
        raise ConstructionFailed("sector paths do not meet at the upper-right corner")
    return w1, w2


def _sector0_runs(k: int) -> List[Tuple[int, int, int]]:
    """Sector 0 as diagonal runs (c, lo, hi), the cells (x, c - x) for
    lo <= x <= hi, by increasing c.

    The sector's outline is P1 then P2 reversed, less the spur pairs where
    the paths run together.  The cells on the left of its steps are the
    sector's boundary cells, the outermost two on a diagonal the ends of its
    run.  A run of a length not divisible by 3, or runs that miss the
    outline's area (a diagonal holding two runs), mean the sector geometry
    is wrong, which is a bug rather than bad input.
    """
    p1, p2 = sector_paths(k)
    back = tuple(s.inverse for s in reversed(p2.steps))
    outline = despur(Word(p1.steps + back, ORIGIN))
    xs: Dict[int, List[int]] = {}
    for v, s in zip(outline.vertices(), outline.steps):
        dx, dy = _LEFT_CELL[s.vector]
        xs.setdefault(v.x + v.y + dx + dy, []).append(v.x + dx)
    runs = [(c, min(xs[c]), max(xs[c])) for c in sorted(xs)]
    for c, lo, hi in runs:
        if (hi - lo + 1) % 3:
            raise ConstructionFailed(
                f"run of {hi - lo + 1} cells on line x+y={c} is not a multiple of 3"
            )
    total, area = sum(hi - lo + 1 for _, lo, hi in runs), signed_area(outline)
    if total != area:
        raise ConstructionFailed(f"sector runs hold {total} cells, not the area {area}")
    return runs


def construct_tiling(k: int) -> Tiling:
    """An all-bones tiling of the pentagonal benzel: each run of sector 0
    is filled with a-b bones from its low end, and each bone anchored at
    (x, y) is joined by its turns by 120 and 240 degrees, the b-c bone
    anchored at (-y, x - y) and the c-a bone at (y - x - 4, -x - 2)."""
    region = benzel(pentagonal_benzel(k))
    ab = [LatticePoint(x, c - x) for c, lo, hi in _sector0_runs(k) for x in range(lo, hi + 1, 3)]
    # Turning keeps the class -1 of every sector cell: no anchor needs a check.
    bc = [LatticePoint(-y, x - y) for x, y in ab]
    ca = [LatticePoint(y - x - 4, -x - 2) for x, y in ab]
    kinds = [kind for kind in BONES for _ in ab]
    return Tiling(region, tuple(_unchecked(kinds, ab + bc + ca)))
