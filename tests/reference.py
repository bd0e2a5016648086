"""Reference implementations the tests compare the library against.

Each is a plain, direct version of a job the library does another way, or
a small helper only tests need; none of them is part of trihex's API.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Iterable, List, Tuple

from trihex.errors import NotACellCenter, NotClosed
from trihex.hexlattice import LatticePoint, Word, _doubled, class_of
from trihex.regions import _CORNER_OFFSETS, Region
from trihex.shadow import _spur_steps


def winding_number(w: Word, cell: LatticePoint) -> int:
    """Winding number of a closed word around the given cell center.

    The cell center must have class -1; path vertices have class 0 or 1,
    so the center can never lie on the path and every crossing test is a
    strict integer comparison.
    """
    if class_of(cell) != -1:
        raise NotACellCenter(f"{cell} has class {class_of(cell)}, not -1")
    vs = w.vertices()
    if vs[-1] != vs[0]:
        raise NotClosed("winding number requires a closed word")
    ps = list(map(_doubled, vs))
    cx, cy = _doubled(cell)
    wn = 0
    for (px, py), (qx, qy) in zip(ps, ps[1:]):
        if py <= cy:
            if qy > cy and (qx - px) * (cy - py) - (cx - px) * (qy - py) > 0:
                wn += 1
        else:
            if qy <= cy and (qx - px) * (cy - py) - (cx - px) * (qy - py) < 0:
                wn -= 1
    return wn


def rotated(w: Word, k: int) -> Word:
    """Cyclic rotation: the same closed loop started k steps later."""
    if not w.steps:
        return w
    k %= len(w.steps)
    return Word(w.steps[k:] + w.steps[:k], w.vertices()[k])


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


def region_from_cells(cells: Iterable[Tuple[int, int]]) -> Region:
    return Region(frozenset(LatticePoint(x, y) for x, y in cells))


def show(value: object) -> str:
    """The library's error-message text for value: its whole repr with
    each lattice point as (x, y), cut to 80 characters."""
    s = re.sub(r"LatticePoint\(x=(-?\d+), y=(-?\d+)\)", r"(\1, \2)", repr(value))
    return s if len(s) <= 80 else s[:77] + "..."


def cell_corners(center: LatticePoint) -> Tuple[LatticePoint, ...]:
    """The six corner vertices of the cell, counterclockwise from center+1."""
    return tuple(center + d for d in _CORNER_OFFSETS)


class StepKind(Enum):
    WEAVE = "weave"
    WIND = "wind"
    SPUR_SITE = "spur"


def classify_steps(w: Word) -> List[StepKind]:
    """One StepKind per step, cyclically; spur steps get SPUR_SITE and
    every other step is classified by its nearest non-spur neighbours: it
    weaves when they are parallel (share a letter) and winds otherwise.
    Raises NotClosed for an open word."""
    if not w.is_closed:
        raise NotClosed("can only classify the steps of a closed word")
    spur = _spur_steps(w)
    free = [i for i in range(len(w.steps)) if i not in spur]
    kinds = [StepKind.SPUR_SITE] * len(w.steps)
    for j, i in enumerate(free):
        prev = w.steps[free[j - 1]]
        nxt = w.steps[free[(j + 1) % len(free)]]
        kinds[i] = StepKind.WEAVE if prev.letter == nxt.letter else StepKind.WIND
    return kinds
