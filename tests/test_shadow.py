"""Unit tests for weave/wind classification, shadows, and the invariant."""

from fractions import Fraction

import pytest

from trihex.errors import InvalidParams, NotClosed, ShadowNotClosed
from trihex.hexlattice import (
    LatticePoint,
    Word,
    class_of,
    signed_area,
    word_from_string,
)
from trihex.regions import (
    BenzelParams,
    benzel,
    boundary_word_closed_form,
    despur,
    find_spurs,
    trace_boundary,
    triangle,
    word_from_text,
)
from trihex.shadow import (
    ALL_SEEDS,
    DEFAULT_SEED,
    InvariantValue,
    area_formula,
    cl_invariant_formula,
    cl_invariant_path,
    is_pentagonal_pair,
    shadow_word,
)

from reference import StepKind, classify_steps, region_from_cells, rotated

def all_valid_params(bound: int):
    for a in range(2, bound + 1):
        for b in range(2, bound + 1):
            if a <= 2 * b and b <= 2 * a:
                yield BenzelParams(a, b)


def isolated_spur_closed_forms(bound: int):
    """Closed-form words with isolated spurs: all but the degenerate class 0
    ones, whose spurs cascade (see test_shadow_rejects_cascading_spurs)."""
    for p in all_valid_params(bound):
        if not (p.cls == 0 and 0 in (p.s, p.t)):
            yield p, boundary_word_closed_form(p)


def spur_pair_steps(w: Word) -> set:
    n = len(w.steps)
    return {j for i in find_spurs(w) for j in (i, (i + 1) % n)}


def test_seed_validation():
    w = trace_boundary(triangle(3))
    for seed in ("d", "", "ab"):
        with pytest.raises(InvalidParams):
            shadow_word(w, w.basepoint, seed)
    assert len(ALL_SEEDS) == 3


def test_invariant_value_rescaling():
    v = InvariantValue(6)
    assert v.i == Fraction(2)
    assert v.i_integral
    assert not InvariantValue(7).i_integral


def test_classify_steps_triangle():
    w = trace_boundary(triangle(3))
    kinds = classify_steps(w)
    assert len(kinds) == len(w.steps)
    # Spur-free words are all weave/wind.
    assert set(kinds) <= {StepKind.WEAVE, StepKind.WIND}
    assert StepKind.WEAVE in kinds and StepKind.WIND in kinds


def test_classify_steps_marks_spur_sites():
    w = boundary_word_closed_form(BenzelParams(2, 3))
    assert StepKind.SPUR_SITE in classify_steps(w)
    # Exactly the steps of spur pairs, also for a pair across the wrap
    # (every class -1 word has one).
    for p, w in isolated_spur_closed_forms(20):
        kinds = classify_steps(w)
        sites = {i for i, k in enumerate(kinds) if k is StepKind.SPUR_SITE}
        assert sites == spur_pair_steps(w), (p.a, p.b)


def test_shadow_swaps_weave_and_wind():
    w = trace_boundary(benzel(BenzelParams(4, 5)))
    shadow = shadow_word(w, w.basepoint)
    assert len(shadow) == len(w)
    for orig, sh in zip(classify_steps(w), classify_steps(shadow)):
        if orig is StepKind.SPUR_SITE:
            assert sh is StepKind.SPUR_SITE
        else:
            assert sh is not orig


def test_shadow_requires_closed_word():
    with pytest.raises(NotClosed, match="^can only shadow a closed word$"):
        shadow_word(word_from_string("a b"))
    for text in ("a b' a", "a b' a a'"):
        with pytest.raises(NotClosed):
            classify_steps(word_from_string(text))


def test_shadow_of_a_word_shorter_than_a_hexagon_is_not_closed():
    # Closed and spur-free, but shorter than any cycle of the hexagon graph.
    for text in ("a b c", "a b a' b'"):
        w = word_from_string(text)
        assert w.is_closed and not find_spurs(w)
        with pytest.raises(
            ShadowNotClosed, match=r"^closed spur-free hexagon words have length >= 6$"
        ):
            shadow_word(w)


def test_shadow_requires_matching_basepoint_class():
    w = trace_boundary(triangle(3))
    assert class_of(w.basepoint) == 0
    with pytest.raises(InvalidParams):
        shadow_word(w, LatticePoint(1, 0))  # class 1


def test_shadow_area_independent_of_seed_and_basepoint():
    w = trace_boundary(benzel(BenzelParams(4, 4)))
    values = set()
    for seed in ALL_SEEDS:
        for k, v in enumerate(w.vertices()[:-1]):
            if class_of(v) == 0:
                values.add(signed_area(shadow_word(rotated(w, k), v, seed)))
    assert len(values) == 1
    # Three seed letters, three distinct shadows of one area.
    shadows = {shadow_word(w, w.basepoint, seed) for seed in ALL_SEEDS}
    assert len(shadows) == 3
    assert {signed_area(s) for s in shadows} == values


def test_class1_basepoint_negates_the_area():
    w = trace_boundary(benzel(BenzelParams(3, 3)))
    base_area = signed_area(shadow_word(w, w.basepoint))
    k = next(
        k for k, v in enumerate(w.vertices()[:-1]) if class_of(v) == 1
    )
    w1 = rotated(w, k)
    assert signed_area(shadow_word(w1, w1.basepoint)) == -base_area


def test_invariant_path_matches_formula():
    for p in all_valid_params(10):
        r = benzel(p)
        if r.cells:
            assert cl_invariant_path(r).I == cl_invariant_formula(p).I, (p.a, p.b)


def test_invariant_examples():
    assert cl_invariant_path(benzel(BenzelParams(3, 3))).I == 3
    assert cl_invariant_path(triangle(6)).I == 6
    assert cl_invariant_formula(BenzelParams(5, 7)).I == 0


def test_shadow_of_spurred_closed_form_keeps_length():
    for p in (BenzelParams(2, 3), BenzelParams(4, 4), BenzelParams(5, 6)):
        w = boundary_word_closed_form(p)
        shadow = shadow_word(w, w.basepoint)
        assert len(shadow) == len(w)
        assert shadow.is_closed
        assert spur_pair_steps(shadow) == spur_pair_steps(w)


def test_closed_form_shadow_area_sign():
    # The area is I from a class-0 basepoint and -I from a class-1 one,
    # also when a spur pair straddles the end of the word.
    for p, w in isolated_spur_closed_forms(20):
        I = cl_invariant_formula(p).I
        want = I if class_of(w.basepoint) == 0 else -I
        assert signed_area(shadow_word(w, w.basepoint)) == want, (p.a, p.b)


def test_two_spur_pairs_at_one_vertex_keep_their_order():
    w = word_from_text("base=-3,-3 a c' c a' a c' a c' b a' b a' c b' c b'")
    shadow = shadow_word(w, w.basepoint)
    assert find_spurs(shadow) == find_spurs(w) == [1, 3]
    short = despur(w)
    assert signed_area(shadow) == signed_area(shadow_word(short, short.basepoint))
    assert abs(signed_area(shadow)) == 3


def test_shadow_of_spur_pairs_alone_is_the_empty_word():
    w = word_from_string("a a' b b'")
    assert classify_steps(w) == [StepKind.SPUR_SITE] * 4
    assert shadow_word(w) == Word((), LatticePoint(0, 0))
    assert shadow_word(w, LatticePoint(3, 0)) == Word((), LatticePoint(3, 0))


def test_shadow_rejects_cascading_spurs():
    # Degenerate closed-form words (a zero-length stretch) have touching
    # spur pairs, which the shadowing rules do not cover.
    from trihex.errors import NonIsolatedSpur

    w = boundary_word_closed_form(BenzelParams(2, 4))
    with pytest.raises(NonIsolatedSpur):
        shadow_word(w, w.basepoint)


def test_single_stone_invariants():
    right = region_from_cells([(-2, -2), (-1, 0), (0, -1)])
    left = region_from_cells([(-2, -2), (-1, -3), (0, -1)])
    bone = region_from_cells([(-2, -2), (-1, -3), (0, -4)])
    assert cl_invariant_path(right).I == 3
    assert cl_invariant_path(left).I == -3
    assert cl_invariant_path(bone).I == 0


def test_shadow_closure_needs_cell_count_divisible_by_three():
    # The relabeled path picks up a net displacement of one cell-triple
    # per residue; only regions with |cells| = 0 mod 3 have closed shadows.
    for n in (1, 4, 7):
        w = trace_boundary(triangle(n))
        with pytest.raises(ShadowNotClosed):
            shadow_word(w, w.basepoint)
    for n in (2, 3, 5, 6):
        w = trace_boundary(triangle(n))
        assert shadow_word(w, w.basepoint).is_closed


def test_area_formula_values():
    assert area_formula(BenzelParams(5, 7)) == 27
    assert area_formula(BenzelParams(3, 3)) == 6
    assert area_formula(BenzelParams(2, 2)) == 3


def test_pentagonal_pairs():
    assert is_pentagonal_pair(5, 7) == 2
    assert is_pentagonal_pair(7, 5) == 2
    assert is_pentagonal_pair(12, 15) == 3
    assert is_pentagonal_pair(22, 26) == 4
    assert is_pentagonal_pair(6, 6) is None
    assert is_pentagonal_pair(1, 2) is None
    assert is_pentagonal_pair(5, 8) is None


@pytest.mark.parametrize("a, b", [(2.5, 3), ("5", 7), (True, 2)])
def test_pentagonal_pair_needs_integers(a, b):
    with pytest.raises(InvalidParams) as err:
        is_pentagonal_pair(a, b)
    assert str(err.value) == f"parameters must be integers, got ({a!r}, {b!r})"


def test_vanishing_iff_pentagonal():
    for p in all_valid_params(40):
        vanishes = cl_invariant_formula(p).I == 0
        assert vanishes == (is_pentagonal_pair(p.a, p.b) is not None), (p.a, p.b)
