"""Unit tests for the exact lattice layer."""

import random

import pytest

from trihex.errors import FormatError, NonIntegralArea, NotACellCenter, NotClosed
from trihex.hexlattice import (
    ORIGIN,
    LatticePoint,
    Step,
    Word,
    class_of,
    cross,
    rotate120,
    signed_area,
    winding_numbers,
    word_from_string,
    word_from_tokens,
)

from reference import rotated, winding_number

UNIT_STEPS = [Step.A, Step.B, Step.C]


def test_point_arithmetic():
    p = LatticePoint(3, -2)
    q = LatticePoint(-1, 5)
    assert p + q == LatticePoint(2, 3)
    assert p - q == LatticePoint(4, -7)
    assert -p == LatticePoint(-3, 2)


def test_class_of_is_additive_mod_three():
    rng = random.Random(11)
    for _ in range(200):
        p = LatticePoint(rng.randint(-50, 50), rng.randint(-50, 50))
        q = LatticePoint(rng.randint(-50, 50), rng.randint(-50, 50))
        assert (class_of(p + q) - class_of(p) - class_of(q)) % 3 == 0


def test_unit_steps_sum_to_zero():
    total = ORIGIN
    for s in UNIT_STEPS:
        total = total + s.vector
    assert total == ORIGIN


def test_step_roundtrips():
    for s in Step:
        assert Step(s.letter + "'" * s.primed) is s
        assert s.inverse.inverse is s
        assert s.inverse.vector == -s.vector
        assert (s.inverse.letter, s.inverse.primed) == (s.letter, not s.primed)


def test_points_print_as_pairs():
    p = LatticePoint(0, -1)
    assert (str(p), f"at {p}") == ("(0, -1)", "at (0, -1)")
    assert repr(p) == "LatticePoint(x=0, y=-1)"


def test_rotate120_three_times_is_identity():
    rng = random.Random(5)
    for _ in range(100):
        p = LatticePoint(rng.randint(-30, 30), rng.randint(-30, 30))
        assert rotate120(rotate120(rotate120(p))) == p
        assert class_of(rotate120(p)) == class_of(p)


def test_cross_is_bilinear_and_antisymmetric():
    rng = random.Random(7)
    for _ in range(100):
        u = LatticePoint(rng.randint(-9, 9), rng.randint(-9, 9))
        v = LatticePoint(rng.randint(-9, 9), rng.randint(-9, 9))
        w = LatticePoint(rng.randint(-9, 9), rng.randint(-9, 9))
        assert cross(u, v) == -cross(v, u)
        assert cross(u + w, v) == cross(u, v) + cross(w, v)


def test_cross_unit_orientation():
    a, b, c = (s.vector for s in UNIT_STEPS)
    assert cross(a, b) == cross(b, c) == cross(c, a) == 1


def test_rotation_preserves_cross():
    rng = random.Random(13)
    for _ in range(100):
        u = LatticePoint(rng.randint(-9, 9), rng.randint(-9, 9))
        v = LatticePoint(rng.randint(-9, 9), rng.randint(-9, 9))
        assert cross(rotate120(u), rotate120(v)) == cross(u, v)


def test_word_basics():
    w = word_from_string("a b a' b'")
    assert w.is_closed
    assert len(w) == 4
    assert w.vertices()[0] == w.vertices()[-1] == ORIGIN
    assert w.tokens() == ["a", "b", "a'", "b'"]


def test_word_rotation_keeps_the_loop():
    w = word_from_string("a b c a' b' c'")
    r = rotated(w, 2)
    assert r.is_closed
    assert set(r.vertices()) == set(w.vertices())
    assert rotated(w, len(w)) == w


def test_rotating_the_empty_word_returns_it():
    w = Word((), LatticePoint(2, -1))
    assert rotated(w, 3) is w


def test_signed_area_unit_hexagon():
    # Counterclockwise around the cell at (-2, -2): area +1; reverse: -1.
    w = word_from_string("b a' c b' a c'", LatticePoint(-1, -2))
    assert signed_area(w) == 1
    rev = Word(tuple(s.inverse for s in reversed(w.steps)), w.basepoint)
    assert signed_area(rev) == -1
    # The same loop far from the origin, from the class-0 point (299, -602).
    far = Word(w.steps, LatticePoint(299, -602))
    assert signed_area(far) == 1
    assert signed_area(Word(rev.steps, far.basepoint)) == -1


def test_signed_area_requires_closure():
    with pytest.raises(NotClosed):
        signed_area(word_from_string("a b"))


def test_signed_area_rejects_non_walks():
    # A triangle of three unit steps is closed but is not a walk on the
    # hexagon graph; its doubled area is not a multiple of 6.
    with pytest.raises(NonIntegralArea):
        signed_area(word_from_string("a b c"))


def _random_closed_walk(rng: random.Random, half_length: int) -> Word:
    """A closed alternating walk: out-steps followed by shuffled inverses."""
    out = [rng.choice(UNIT_STEPS) for _ in range(half_length)]
    back = [s.inverse for s in out]
    steps = []
    for s, t in zip(out, rng.sample(back, len(back))):
        steps.append(s)
        steps.append(t)
    return Word(tuple(steps), ORIGIN)


def test_area_equals_total_winding():
    rng = random.Random(2024)
    for _ in range(25):
        w = _random_closed_walk(rng, rng.randint(3, 30))
        area = signed_area(w)
        xs = [v.x for v in w.vertices()]
        ys = [v.y for v in w.vertices()]
        total = 0
        for x in range(min(xs) - 2, max(xs) + 3):
            for y in range(min(ys) - 2, max(ys) + 3):
                cell = LatticePoint(x, y)
                if class_of(cell) == -1:
                    total += winding_number(w, cell)
        assert total == area


def test_winding_number_validates_input():
    w = word_from_string("b a' c b' a c'", LatticePoint(-1, -2))
    with pytest.raises(NotACellCenter):
        winding_number(w, ORIGIN)
    with pytest.raises(NotClosed):
        winding_number(word_from_string("a"), LatticePoint(1, 1))


def test_batch_winding_validates_input():
    w = word_from_string("b a' c b' a c'", LatticePoint(-1, -2))
    with pytest.raises(NotClosed, match=r"^winding number requires a closed word$"):
        winding_numbers(word_from_string("a"), [LatticePoint(1, 1)])
    with pytest.raises(NotACellCenter, match=r"^\(0, 0\) has class 0, not -1$"):
        winding_numbers(w, [LatticePoint(-2, -2), ORIGIN])


def test_batch_winding_matches_scalar():
    rng = random.Random(99)
    for _ in range(10):
        w = _random_closed_walk(rng, rng.randint(3, 20))
        cells = []
        for x in range(-12, 13):
            for y in range(-12, 13):
                if class_of(LatticePoint(x, y)) == -1:
                    cells.append(LatticePoint(x, y))
        batch = winding_numbers(w, cells)
        for cell in cells:
            assert batch[cell] == winding_number(w, cell)
    # The unit hexagon and the cells around it, moved far from the origin.
    w = word_from_string("b a' c b' a c'", LatticePoint(-1, -2))
    shift = LatticePoint(300, -600)
    far = Word(w.steps, w.basepoint + shift)
    assert class_of(far.basepoint) == 0
    cells = [LatticePoint(x, y) for x in range(-6, 3) for y in range(-6, 3)
             if class_of(LatticePoint(x, y)) == -1]
    moved = [c + shift for c in cells]
    near = [winding_number(w, c) for c in cells]
    assert near == [int(c == LatticePoint(-2, -2)) for c in cells]
    assert [winding_number(far, c) for c in moved] == near
    batch = winding_numbers(far, moved)
    assert [batch[c] for c in moved] == near


def test_word_from_tokens_rejects_nothing_valid():
    w = word_from_tokens(["a", "c'", "b"])
    assert [s.value for s in w.steps] == ["a", "c'", "b"]


def test_bad_step_token_is_a_format_error():
    for text, token in (("a x", "x"), ("a b'' c", "b''"), ("A", "A")):
        with pytest.raises(FormatError) as e:
            word_from_string(text)
        assert str(e.value) == f"bad step token {token!r}"
    with pytest.raises(FormatError) as e:
        word_from_tokens(["a", ["b"]])
    assert str(e.value) == "bad step token ['b']"
