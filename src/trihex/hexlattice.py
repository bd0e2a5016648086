"""Exact integer arithmetic on the Eisenstein lattice Z + Z*omega.

A point is a pair (x, y) denoting the complex number x + y*omega with
omega = e^{2 pi i / 3}.  Everything of interest (sublattice classes, the
rescaled cross product, signed areas, winding numbers) is an exact integer
in this basis, so no floating point appears anywhere; the irrational
Cartesian embedding is used only for rendering.

The sublattice of points with x + y == 0 (mod 3), together with its two
translates, partitions the lattice into classes 0, 1, -1.  Class-0 and
class-1 points are the vertices of the hexagon graph; class--1 points are
the cell centers.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum
from typing import List, NamedTuple, Sequence, Tuple

from .errors import NonIntegralArea, NotACellCenter, NotClosed


class LatticePoint(NamedTuple):
    """The Eisenstein integer x + y*omega."""

    x: int
    y: int

    def __add__(self, other: "LatticePoint") -> "LatticePoint":  # type: ignore[override]
        return LatticePoint(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "LatticePoint") -> "LatticePoint":
        return LatticePoint(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "LatticePoint":
        return LatticePoint(-self.x, -self.y)

    def scaled(self, k: int) -> "LatticePoint":
        return LatticePoint(k * self.x, k * self.y)

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


ORIGIN = LatticePoint(0, 0)


def class_of(p: LatticePoint) -> int:
    """Sublattice class of p, as an element of {0, 1, -1}.

    class(p + q) == class(p) + class(q) mod 3.
    """
    r = (p.x + p.y) % 3
    return r if r < 2 else -1


def rotate120(p: LatticePoint) -> LatticePoint:
    """Rotate p by 120 degrees counterclockwise about the origin.

    Multiplication by omega: (x + y*omega)*omega = -y + (x - y)*omega,
    using omega^2 = -1 - omega.  Applying three times is the identity.
    """
    return LatticePoint(-p.y, p.x - p.y)


def cross(v: LatticePoint, w: LatticePoint) -> int:
    """Rescaled scalar cross product: the determinant in (1, omega)
    coordinates.

    Bilinear and antisymmetric, with a x b = b x c = c x a = +1 for the
    three unit vectors.  It is a positive scalar multiple (2/sqrt(3)) of
    the Cartesian cross product, so orientation signs agree.
    """
    return v.x * w.y - w.x * v.y


class Step(Enum):
    """One of the six unit steps of the hexagon graph.

    a, b, c point from 0 to 1, omega, omega^2 respectively; the primed
    steps are their negations.  a + b + c = 0.  Each member carries its
    base letter, whether it is primed, its vector and its inverse.
    """

    A = "a", 1, 0
    B = "b", 0, 1
    C = "c", -1, -1
    AP = "a'", -1, 0
    BP = "b'", 0, -1
    CP = "c'", 1, 1

    def __new__(cls, token: str, x: int, y: int) -> "Step":
        step = object.__new__(cls)
        step._value_ = token
        step.letter = token[0]
        step.primed = len(token) == 2
        step.vector = LatticePoint(x, y)
        return step


for _step in Step:
    _step.inverse = Step(_step.letter + ("" if _step.primed else "'"))
del _step

_STEP_BY_TOKEN = {s.value: s for s in Step}


def step_for(letter: str, primed: bool) -> Step:
    """The step with the given base letter and sign."""
    return _STEP_BY_TOKEN[letter + ("'" if primed else "")]


@dataclass(frozen=True)
class Word:
    """A lattice path: a sequence of unit steps from a basepoint.

    Words standing for region boundaries are closed (their step vectors
    sum to zero) and are traversed counterclockwise.  Walks on the hexagon
    graph alternate unprimed/primed steps, starting unprimed from a class-0
    basepoint and primed from a class-1 basepoint.
    """

    steps: Tuple[Step, ...]
    basepoint: LatticePoint = ORIGIN

    def __len__(self) -> int:
        return len(self.steps)

    def displacement(self) -> LatticePoint:
        return self.vertices()[-1] - self.basepoint

    @property
    def is_closed(self) -> bool:
        return self.displacement() == ORIGIN

    def vertices(self) -> List[LatticePoint]:
        """The len(steps)+1 visited points, starting at the basepoint."""
        out = [self.basepoint]
        for s in self.steps:
            out.append(out[-1] + s.vector)
        return out

    def rotated(self, k: int) -> "Word":
        """Cyclic rotation: the same closed loop started k steps later."""
        if not self.steps:
            return self
        k %= len(self.steps)
        return Word(self.steps[k:] + self.steps[:k], self.vertices()[k])

    def tokens(self) -> List[str]:
        return [s.value for s in self.steps]


def word_from_tokens(tokens: Sequence[str], basepoint: LatticePoint = ORIGIN) -> Word:
    """Build a word from tokens like 'a', "b'", 'c'."""
    return Word(tuple(_STEP_BY_TOKEN[t] for t in tokens), basepoint)


def word_from_string(text: str, basepoint: LatticePoint = ORIGIN) -> Word:
    """Build a word from a whitespace-separated token string."""
    return word_from_tokens(text.split(), basepoint)


def signed_area(w: Word) -> int:
    """Signed area enclosed by a closed word, in units of one hexagonal cell.

    Computed as (1/6) * sum_j p_j x p_{j+1} over consecutive vertices (the
    shoelace sum, the same from any basepoint of a closed word).  Equals the
    sum over all cells of the path's winding number; the empty word has area 0.
    """
    vs = w.vertices()
    if vs[-1] != vs[0]:
        raise NotClosed(f"step vectors sum to {vs[-1] - vs[0]}, not zero")
    acc = sum(cross(p, q) for p, q in zip(vs, vs[1:]))
    if acc % 6:
        raise NonIntegralArea(f"double sum {acc} is not divisible by 6")
    return acc // 6


def winding_numbers(
    w: Word, cells: Sequence[LatticePoint]
) -> "dict[LatticePoint, int]":
    """Winding numbers of a closed word around many cell centers at once.

    Same contract as winding_number, but one pass over the path: every
    step changes the doubled y-coordinate by 0 or +-1, so each horizontal
    crossing happens exactly at a path vertex, and per-level sorted
    crossing lists answer all queries by suffix sums.
    """
    vs = w.vertices()
    if vs[-1] != vs[0]:
        raise NotClosed("winding number requires a closed word")
    ps = list(map(_doubled, vs))
    for cell in cells:
        if class_of(cell) != -1:
            raise NotACellCenter(f"{cell} has class {class_of(cell)}, not -1")
    crossings: "dict[int, List[Tuple[int, int]]]" = {}
    for (px, py), (qx, qy) in zip(ps, ps[1:]):
        if qy == py + 1:
            crossings.setdefault(py, []).append((px, 1))
        elif qy == py - 1:
            crossings.setdefault(qy, []).append((qx, -1))
    levels: "dict[int, Tuple[List[int], List[int]]]" = {}
    for level, hits in crossings.items():
        hits.sort()
        xs = [x for x, _sign in hits]
        suffix = [0] * (len(hits) + 1)
        for i in range(len(hits) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + hits[i][1]
        levels[level] = (xs, suffix)
    out = {}
    for cell in cells:
        cx, cy = _doubled(cell)
        entry = levels.get(cy)
        if entry is None:
            out[cell] = 0
        else:
            xs, suffix = entry
            out[cell] = suffix[bisect.bisect_right(xs, cx)]
    return out


def _doubled(p: LatticePoint) -> Tuple[int, int]:
    # (2x - y, y) is a positively-oriented integer image of the Cartesian
    # embedding, so ray-crossing tests below are exact.
    return (2 * p.x - p.y, p.y)


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
