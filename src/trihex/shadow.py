"""Weave/wind classification, shadow words, and the Conway-Lagarias invariant.

A closed boundary word weaves at a step when the previous and next edges
are parallel, and winds when the three edges run consecutively around one
hexagon.  A shadow of the word is a closed path that winds where the word
weaves and weaves where it winds; its signed area is the unrescaled
invariant I(R), and I(R) = 3 i(R) where i(R) is the right-minus-left
stone count common to all stones-and-bones tilings of R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import FrozenSet, List, Optional

from .errors import InvalidParams, NonIsolatedSpur, NotClosed, ShadowNotClosed
from .hexlattice import (
    ORIGIN,
    LatticePoint,
    Step,
    Word,
    class_of,
    signed_area,
)
from .regions import BenzelParams, Region, despur, find_spurs, trace_boundary


class StepKind(Enum):
    WEAVE = "weave"
    WIND = "wind"
    SPUR_SITE = "spur"


# The first letter of a shadow path picks the shadow: three shadows per
# basepoint, one per letter.
ALL_SEEDS = ("a", "b", "c")

DEFAULT_SEED = "b"


@dataclass(frozen=True)
class InvariantValue:
    """The unrescaled invariant I and its rescaling i = I/3.

    i is guaranteed integral only when the region admits a
    stones-and-bones tiling.
    """

    I: int

    @property
    def i(self) -> Fraction:
        return Fraction(self.I, 3)

    @property
    def i_integral(self) -> bool:
        return self.I % 3 == 0


def _spur_steps(w: Word) -> FrozenSet[int]:
    """Indices of the steps of w that lie in spur pairs.

    The shadowing rules cover isolated spurs only, so this raises
    NonIsolatedSpur when two pairs overlap or when dropping the pairs
    exposes another one.
    """
    spurs = find_spurs(w)  # raises NonIsolatedSpur on overlap
    if not spurs:
        return frozenset()
    if len(despur(w).steps) != len(w.steps) - 2 * len(spurs):
        raise NonIsolatedSpur("spur removal exposed another spur")
    n = len(w.steps)
    return frozenset(spurs).union((i + 1) % n for i in spurs)


def classify_steps(w: Word) -> List[StepKind]:
    """One StepKind per step, cyclically; spur steps get SPUR_SITE and
    every other step is classified by its nearest non-spur neighbours.
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


# The face-alternating edge labeling: the label of an edge at a hexagon-
# graph vertex is the type, (x - y) mod 3, of the cell touching the vertex
# that does not border the edge.  The six edges of every cell then alternate
# between two labels, which is the structure the shadow path follows.  The
# step leaving the vertex (x, y) of class 0 or 1 along the edge labeled L is
# _SHADOW_STEPS[class, (x - y - L) mod 3]; steps from class 0 are unprimed,
# steps from class 1 primed.
_SHADOW_STEPS = {
    (0, 0): Step.C,
    (0, 1): Step.A,
    (0, 2): Step.B,
    (1, 0): Step.CP,
    (1, 1): Step.BP,
    (1, 2): Step.AP,
}


def _shadow_step(v: LatticePoint, label: int) -> Step:
    step = _SHADOW_STEPS.get((class_of(v), (v.x - v.y - label) % 3))
    if step is None:
        raise ShadowNotClosed(f"path reached non-vertex point {v}")
    return step


def shadow_word(
    w: Word,
    basepoint: LatticePoint = ORIGIN,
    seed: str = DEFAULT_SEED,
) -> Word:
    """A closed word of equal length that shadows w from the given basepoint.

    The basepoint must share w's basepoint class (both 0 or both 1).
    Construction: put the face-alternating edge labeling on the hexagon
    graph; w's first non-spur letter gets the label of the edge at the
    basepoint whose step has the seed letter, which fixes a bijection
    between step letters and labels, and the shadow then traverses, step
    by step, the edge carrying its step's label.  The three seed letters
    give three shadows of one area.  The result winds where w weaves and
    weaves where w winds.  An edge carries the same label seen from
    either end, so each spur pair of w becomes a spur pair along one edge
    at the same positions.  Spurs must be isolated (NonIsolatedSpur
    otherwise); a word made only of spur pairs encloses nothing and gives
    the empty word at the basepoint.  An open word raises NotClosed.  The
    shadow's closure is asserted, not assumed; failure (ShadowNotClosed)
    means w was not a valid hexagon-graph boundary word.
    """
    if seed not in ALL_SEEDS:
        raise InvalidParams(f"seed must be one letter from abc, got {seed!r}")
    if not w.is_closed:
        raise NotClosed("can only shadow a closed word")
    if class_of(basepoint) != class_of(w.basepoint):
        raise InvalidParams(
            f"shadow basepoint class {class_of(basepoint)} differs from "
            f"word basepoint class {class_of(w.basepoint)}"
        )
    spur = _spur_steps(w)
    free = [s for i, s in enumerate(w.steps) if i not in spur]
    if not free:
        return Word((), basepoint)
    if len(free) < 6:
        raise ShadowNotClosed("closed spur-free hexagon words have length >= 6")

    # Fix the letter -> label bijection from the seed: w's first non-spur
    # letter gets the label of the seed's edge at the basepoint, and the
    # bijection extends cyclically (a -> b -> c maps to label+1).  Only the
    # cyclic bijections give the invariant its correct sign (the
    # anticyclic ones produce the mirror shadow, whose area is -I).
    # From a class-1 basepoint the roles of the two vertex classes are
    # swapped and the matching bijection runs anticyclically; that is what
    # makes the enclosed area come out as -I(R) there.
    sign = 1 if class_of(basepoint) == 0 else -1
    l1 = free[0].letter
    first = next(x for x in range(3) if _shadow_step(basepoint, x).letter == seed)
    k = first - sign * "abc".index(l1)
    label_of = {x: (sign * "abc".index(x) + k) % 3 for x in "abc"}

    steps: List[Step] = []
    v = basepoint
    for s in w.steps:
        out = _shadow_step(v, label_of[s.letter])
        steps.append(out)
        v = v + out.vector
    if v != basepoint:
        raise ShadowNotClosed(f"shadow path ends at {v}, not its basepoint")
    return Word(tuple(steps), basepoint)


def cl_invariant_path(r: Region) -> InvariantValue:
    """The Conway-Lagarias invariant of a simply connected region: the
    signed area of a shadow of its traced boundary, taken from the
    boundary's own class-0 basepoint."""
    boundary = trace_boundary(r)  # class-0 basepoint, counterclockwise
    return InvariantValue(signed_area(shadow_word(boundary, boundary.basepoint)))


def area_formula(p: BenzelParams) -> int:
    """Closed-form cell count of the (a, b)-benzel."""
    a, b = p.a, p.b
    base = -a * a + 4 * a * b - b * b - a - b
    return (base + 2) // 2 if p.cls == 1 else base // 2


def cl_invariant_formula(p: BenzelParams) -> InvariantValue:
    """Closed-form Conway-Lagarias invariant of the (a, b)-benzel."""
    a, b = p.a, p.b
    c = p.cls
    if c == 0:
        val = (-3 * a * a + 6 * a * b - 3 * b * b + a + b) // 2
    elif c == 1:
        val = (a * a - 4 * a * b + b * b + a + b - 2) // 2
    else:
        val = (-3 * a * a + 6 * a * b - 3 * b * b - a - b + 2) // 2
    return InvariantValue(val)


def is_pentagonal_pair(a: int, b: int) -> Optional[int]:
    """The k >= 2 with {a, b} = {k(3k-1)/2, k(3k+1)/2}, if one exists.

    These are exactly the parameter pairs whose benzel admits a bone
    tiling; 24*min(a,b)+1 must be the perfect square (6k-1)^2.
    """
    lo, hi = min(a, b), max(a, b)
    if lo < 2:
        return None
    # k(3k-1)/2 = lo  =>  24*lo + 1 = (6k-1)^2
    d = 24 * lo + 1
    root = math.isqrt(d)
    if root * root != d or root % 6 != 5:
        return None
    k = (root + 1) // 6
    if k >= 2 and hi == k * (3 * k + 1) // 2:
        return k
    return None
