"""Unit tests for placements, counting, enumeration, and statistics."""

import json
import math
import random
import sys
from itertools import combinations

import pytest

from trihex.errors import (
    FormatError,
    InvalidParams,
    InvalidPlacement,
    InvalidTiling,
    ResourceLimit,
)
from trihex.hexlattice import LatticePoint, rotate120
from trihex.regions import (
    CELL_NEIGHBOR_OFFSETS,
    BenzelParams,
    Region,
    benzel,
    region_from_cells,
    region_from_json,
    triangle,
)
from trihex.shadow import cl_invariant_path
from trihex.tilings import (
    BONES,
    KIND_BY_NAME,
    STONES,
    STONES_AND_BONES,
    Placement,
    TileKind,
    Tiling,
    cells_of,
    count_tilings,
    enumerate_tilings,
    orientation_histogram,
    placement_frequency,
    placements,
    stone_balance,
    tiling_from_json,
    tiling_to_json,
    validate,
    validation_error,
    _BYTES_PER_STATE,
    _counting_order,
    _move_table,
    _sweep,
)

ANCHOR = LatticePoint(-2, -2)


def test_cells_of_each_kind():
    expected = {
        TileKind.BONE_AB: {(0, 0), (1, -1), (2, -2)},
        TileKind.BONE_BC: {(0, 0), (1, 2), (2, 4)},
        TileKind.BONE_CA: {(0, 0), (2, 1), (4, 2)},
        TileKind.STONE_R: {(0, 0), (1, 2), (2, 1)},
        TileKind.STONE_L: {(0, 0), (1, -1), (2, 1)},
    }
    for kind, offs in expected.items():
        got = {(c.x - ANCHOR.x, c.y - ANCHOR.y) for c in cells_of(Placement(kind, ANCHOR))}
        assert got == offs, kind


def test_kind_data():
    # What the anchor rule, the sort order and construct_tiling rely on.
    assert [k.index for k in TileKind] == list(range(5))
    for kind in TileKind:
        assert KIND_BY_NAME[kind.value] is kind
        assert kind.offsets[0] == (0, 0) == min(kind.offsets)
        assert len(set(kind.offsets)) == 3
    assert len(KIND_BY_NAME) == 5
    for kind in BONES:  # three cells in a row
        _, step, end = kind.offsets
        assert step in CELL_NEIGHBOR_OFFSETS and end == step.scaled(2)
    for kind in STONES:  # three pairwise-adjacent cells
        for u, v in combinations(kind.offsets, 2):
            assert v - u in CELL_NEIGHBOR_OFFSETS

    def rotated(kind):
        cells = [rotate120(o) for o in kind.offsets]
        return sorted(c - min(cells) for c in cells)

    for r, kind in enumerate(BONES):
        assert rotated(kind) == sorted(BONES[(r + 1) % 3].offsets)
    for kind in STONES:
        assert rotated(kind) == sorted(kind.offsets)


def test_placement_anchor_must_be_a_cell():
    with pytest.raises(InvalidPlacement):
        Placement(TileKind.BONE_AB, LatticePoint(0, 0))


def test_stone_chirality_matches_shadow_area():
    for kind, expected in ((TileKind.STONE_R, 3), (TileKind.STONE_L, -3)):
        region = Region(frozenset(cells_of(Placement(kind, ANCHOR))))
        assert cl_invariant_path(region).I == expected


def test_bone_shadow_area_vanishes():
    for kind in BONES:
        region = Region(frozenset(cells_of(Placement(kind, ANCHOR))))
        assert cl_invariant_path(region).I == 0


def test_placements_ordering_and_containment():
    r = benzel(BenzelParams(3, 3))
    ps = placements(r, BONES)
    assert len(ps) == 3
    assert ps == sorted(ps)
    for p in ps:
        assert all(c in r for c in cells_of(p))
    assert placements(region_from_cells([(-2, -2)]), STONES_AND_BONES) == []


def test_middle_stone_of_the_smallest_benzel():
    ps = placements(benzel(BenzelParams(2, 2)), STONES)
    assert len(ps) == 1


def test_validate_catches_problems():
    r = benzel(BenzelParams(2, 2))
    good = Tiling(r, tuple(placements(r, STONES)))
    assert validate(good)
    assert validate(Tiling(Region(frozenset()), ()))
    # Missing cells:
    assert not validate(Tiling(r, ()))
    # Overlap (duplicate placement appears once after dedup in a tuple,
    # so overlap two distinct placements instead):
    r2 = benzel(BenzelParams(3, 3))
    ps = placements(r2, BONES)
    assert not validate(Tiling(r2, (ps[0], ps[0])))
    # Spill outside the region:
    outside = Placement(TileKind.BONE_AB, LatticePoint(10, 10))
    assert not validate(Tiling(r2, (outside,)))


def test_validation_error_messages():
    r = benzel(BenzelParams(3, 3))
    ab = Placement(TileKind.BONE_AB, LatticePoint(0, 2))
    bc = Placement(TileKind.BONE_BC, LatticePoint(-2, -2))
    spill = Placement(TileKind.BONE_AB, LatticePoint(2, 0))
    assert validation_error(Tiling(r, (spill,))) == (
        "boneAB at (2, 0) spills outside the region at (3, -1)"
    )
    assert validation_error(Tiling(r, (bc, ab))) == (
        "cell (0, 2) covered twice (boneBC at (-2, -2))"
    )
    assert validation_error(Tiling(r, (ab,))) == "cell (-2, -2) is uncovered"


def _reference_tilings(r, tileset):
    """Plain backtracking with no pruning: at the first uncovered cell in
    the (x - y, x) order, try in (kind, anchor) order every placement that
    covers it and fits, and record the tiling when no cell is left."""
    order = sorted(r.cells, key=lambda c: (c.x - c.y, c.x))
    covering = {c: [] for c in order}
    for p in placements(r, tileset):
        for c in cells_of(p):
            covering[c].append((p, cells_of(p)))
    covered, chosen, out = set(), [], []

    def extend(k):
        while k < len(order) and order[k] in covered:
            k += 1
        if k == len(order):
            out.append(Tiling(r, tuple(chosen)))
            return
        for p, cs in covering[order[k]]:
            if covered.isdisjoint(cs):
                covered.update(cs)
                chosen.append(p)
                extend(k + 1)
                chosen.pop()
                covered.difference_update(cs)

    extend(0)
    return out


def test_enumeration_matches_plain_backtracking():
    # The dead-state memo prunes only subtrees with no tiling, so the
    # sequence must equal that of backtracking without it.
    shapes = [benzel(p) for p in _valid_params(8)] + [triangle(n) for n in range(1, 8)]
    for r in shapes:
        for tileset in (BONES, STONES_AND_BONES):
            got = [t.placements for t in enumerate_tilings(r, tileset)]
            expected = [t.placements for t in _reference_tilings(r, tileset)]
            assert got == expected, (len(r), tileset)


def test_enumeration_under_a_tiny_memo_cap(monkeypatch):
    # Past the cap the dead-state set stops growing; the search goes on
    # as plain backtracking, with the same sequence and no ResourceLimit.
    r = benzel(BenzelParams(7, 7))
    expected = [t.placements for t in _reference_tilings(r, STONES_AND_BONES)]
    monkeypatch.setenv("TRIBONE_MEMO_LIMIT_MB", "0.001")
    got = [t.placements for t in enumerate_tilings(r, STONES_AND_BONES)]
    assert got == expected
    assert len(got) == 5766


def test_count_small_cases():
    assert count_tilings(benzel(BenzelParams(5, 7)), BONES) == 2
    assert count_tilings(benzel(BenzelParams(3, 3)), STONES_AND_BONES) == 3
    assert count_tilings(triangle(6), BONES) == 0
    assert count_tilings(Region(frozenset()), BONES) == 1
    assert count_tilings(region_from_cells([(-2, -2)]), BONES) == 0


def test_count_matches_enumeration():
    rng = random.Random(0)
    params = [(2, 2), (3, 3), (4, 4), (4, 5), (5, 6), (5, 7), (6, 6)]
    for a, b in params:
        r = benzel(BenzelParams(a, b))
        tileset = STONES_AND_BONES if rng.random() < 0.7 else BONES
        ts = list(enumerate_tilings(r, tileset))
        assert count_tilings(r, tileset) == len(ts)
        seen = set()
        for t in ts:
            assert validate(t)
            key = json.dumps(tiling_to_json(t), sort_keys=True)
            assert key not in seen
            seen.add(key)


def _rotated_and_translated(r):
    """The region in its three 120-degree rotations, then translated by a
    vector of class 0 (so cell centres stay cell centres)."""
    cells = r.cells
    out = []
    for _ in range(3):
        out.append(Region(cells))
        cells = frozenset(rotate120(c) for c in cells)
    out.append(Region(frozenset(LatticePoint(c.x + 5, c.y - 2) for c in r.cells)))
    return out


def _valid_params(bound):
    for a in range(2, bound + 1):
        for b in range(2, bound + 1):
            try:
                yield BenzelParams(a, b)
            except InvalidParams:
                continue


def test_count_matches_enumeration_under_rotation_and_translation():
    # Enumeration sweeps its own diagonal order with a separate engine, so
    # it is an independent oracle for the row-order counting sweep.
    shapes = [benzel(p) for p in _valid_params(8)] + [triangle(n) for n in range(1, 8)]
    for shape in shapes:
        for r in _rotated_and_translated(shape):
            for tileset in (BONES, STONES_AND_BONES):
                expected = sum(1 for _ in enumerate_tilings(r, tileset))
                assert count_tilings(r, tileset) == expected, (len(r), tileset)


def test_count_does_not_depend_on_recursion_depth():
    r = benzel(BenzelParams(12, 15))
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    # A straight bone strip: its one tiling is 3,000 placements deep.
    strip = Region(frozenset(LatticePoint(-2 + i, -2 - i) for i in range(9000)))
    old = sys.getrecursionlimit()
    low = depth + 20
    sys.setrecursionlimit(low)
    try:
        assert count_tilings(r, BONES) == 42705
        t = next(enumerate_tilings(strip, BONES, limit=1))
        assert len(t.placements) == 3000
        assert sys.getrecursionlimit() == low
    finally:
        sys.setrecursionlimit(old)
    assert validate(t)


def test_enumerate_respects_limit():
    r = benzel(BenzelParams(3, 3))
    assert len(list(enumerate_tilings(r, STONES_AND_BONES, limit=2))) == 2
    assert list(enumerate_tilings(r, STONES_AND_BONES, limit=0)) == []


def test_memo_cap_raises_resource_limit():
    r = benzel(BenzelParams(12, 15))
    with pytest.raises(ResourceLimit):
        count_tilings(r, BONES, memo_limit_mb=0.001)


def test_resource_limit_says_where_it_stopped():
    with pytest.raises(ResourceLimit, match=r"cell \d+ of 162: \d+ live states"):
        count_tilings(benzel(BenzelParams(12, 15)), BONES, memo_limit_mb=0.01)


def test_memo_cap_env_var(monkeypatch):
    monkeypatch.setenv("TRIBONE_MEMO_LIMIT_MB", "0.001")
    with pytest.raises(ResourceLimit):
        count_tilings(benzel(BenzelParams(12, 15)), BONES)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_memo_limit(value):
    with pytest.raises(ResourceLimit, match="memo_limit_mb"):
        count_tilings(benzel(BenzelParams(5, 7)), BONES, memo_limit_mb=value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "ten"])
def test_non_finite_memo_limit_env_var(monkeypatch, value):
    monkeypatch.setenv("TRIBONE_MEMO_LIMIT_MB", value)
    r = benzel(BenzelParams(5, 7))
    with pytest.raises(ResourceLimit, match="TRIBONE_MEMO_LIMIT_MB"):
        count_tilings(r, BONES)
    with pytest.raises(ResourceLimit, match="TRIBONE_MEMO_LIMIT_MB"):
        next(enumerate_tilings(r, BONES))


def _fresh_frequency(memo_limit_mb=None):
    """placement_frequency on one bone's cells, after a call on another
    region, so no kept table answers it."""
    other = Placement(TileKind.BONE_AB, LatticePoint(-1, 0))
    placement_frequency(benzel(BenzelParams(5, 7)), BONES, other)
    p = Placement(TileKind.BONE_AB, ANCHOR)
    return placement_frequency(Region(frozenset(cells_of(p))), BONES, p, memo_limit_mb)


def test_one_bone_frequency():
    assert _fresh_frequency() == 1


@pytest.mark.parametrize("value", [-1, -0.5, -math.inf])
def test_negative_memo_limit(value):
    with pytest.raises(ResourceLimit, match="bad memo_limit_mb value"):
        count_tilings(benzel(BenzelParams(5, 7)), BONES, memo_limit_mb=value)
    with pytest.raises(ResourceLimit, match="bad memo_limit_mb value"):
        _fresh_frequency(value)


def test_negative_memo_limit_env_var(monkeypatch):
    monkeypatch.setenv("TRIBONE_MEMO_LIMIT_MB", "-1")
    r = benzel(BenzelParams(5, 7))
    message = "bad TRIBONE_MEMO_LIMIT_MB value '-1'"
    with pytest.raises(ResourceLimit, match=message):
        count_tilings(r, BONES)
    with pytest.raises(ResourceLimit, match=message):
        _fresh_frequency()
    with pytest.raises(ResourceLimit, match=message):
        next(enumerate_tilings(r, BONES))


@pytest.mark.parametrize("value", [0, -0.0, "0"])
def test_zero_memo_limit_is_a_cap(monkeypatch, value):
    r = benzel(BenzelParams(5, 7))
    with pytest.raises(ResourceLimit, match="over the cap of 0 MB"):
        count_tilings(r, BONES, memo_limit_mb=value)
    monkeypatch.setenv("TRIBONE_MEMO_LIMIT_MB", str(value))
    with pytest.raises(ResourceLimit, match="over the cap of 0 MB"):
        count_tilings(r, BONES)


def test_stone_balance_and_histogram():
    r = benzel(BenzelParams(3, 3))
    for t in enumerate_tilings(r, STONES_AND_BONES):
        assert stone_balance(t) == 3
        h = orientation_histogram(t)
        assert sum(h) * 3 == len(r)
    with pytest.raises(InvalidTiling):
        stone_balance(Tiling(r, ()))
    with pytest.raises(InvalidTiling):
        orientation_histogram(Tiling(r, ()))


def test_all_bones_tilings_balance_zero():
    for t in enumerate_tilings(benzel(BenzelParams(5, 7)), BONES):
        assert stone_balance(t) == 0
        assert orientation_histogram(t) == (3, 3, 3, 0, 0)


def test_placement_frequency():
    r = benzel(BenzelParams(5, 7))
    ps = placements(r, BONES)
    freqs = [placement_frequency(r, BONES, p) for p in ps]
    assert sum(freqs) == 2 * len(r) // 3
    assert freqs.count(2) == 3  # the three forced outermost bones
    with pytest.raises(InvalidPlacement):
        placement_frequency(r, BONES, Placement(TileKind.BONE_AB, LatticePoint(41, 45)))


def test_tiling_json_roundtrip():
    r = benzel(BenzelParams(5, 7))
    t = next(enumerate_tilings(r, BONES))
    doc = tiling_to_json(t)
    again = tiling_from_json(json.loads(json.dumps(doc)))
    assert again.region.cells == t.region.cells
    assert again.placements == t.placements
    kinds = [e["kind"] for e in doc["tiles"]]
    assert kinds == sorted(kinds, key=[k.value for k in TileKind].index)


def test_tiling_json_rejects_bad_input():
    with pytest.raises(FormatError):
        tiling_from_json([])
    with pytest.raises(FormatError):
        tiling_from_json({"region": {"cells": []}, "tiles": [{"kind": "phone", "anchor": [0, 0]}]})
    with pytest.raises(FormatError):
        tiling_from_json({"region": {"cells": []}, "tiles": [{"kind": "boneAB"}]})
    with pytest.raises(FormatError):
        tiling_from_json({"region": {"cells": []}, "tiles": [{"kind": "boneAB", "anchor": [0, 0]}]})
    # Unhashable kinds are unknown kinds, not a TypeError.
    for kind in (["boneAB"], {"name": "boneAB"}):
        with pytest.raises(FormatError) as e:
            tiling_from_json({"region": {"cells": []}, "tiles": [{"kind": kind, "anchor": [-2, -2]}]})
        assert str(e.value) == f"unknown tile kind {kind!r}"


def test_tiling_region_must_be_an_object():
    # A region given as JSON text inside the tiling is not the documented
    # shape.
    region = {"cells": [[-2, -2], [-1, 0], [0, -1]]}
    tiles = [{"kind": "stoneR", "anchor": [-2, -2]}]
    assert tiling_from_json({"region": region, "tiles": tiles}).region.cells
    for odd in (json.dumps(region), [[-2, -2]], 7, None):
        with pytest.raises(FormatError) as e:
            tiling_from_json({"region": odd, "tiles": tiles})
        assert str(e.value) == "region file must be a JSON object"


_ODD_PAIRS = [
    True, [True, -2], [-2, False], [1.0, -2], [-2, -2.0], [-2], [-2, -2, 0],
    (-2, -2), "-2,-2", None, [None, -2], ["-2", "-2"], {"x": -2}, -2,
]


@pytest.mark.parametrize("entry", _ODD_PAIRS, ids=repr)
def test_json_pairs_reject_odd_entries(entry):
    # Cells and anchors go through one [x, y] integer-pair check.
    with pytest.raises(FormatError) as cell:
        region_from_json({"cells": [[-2, -2], entry]})
    assert str(cell.value) == f"bad cell entry {entry!r}"
    tiles = [{"kind": "boneAB", "anchor": entry}]
    with pytest.raises(FormatError) as anchor:
        tiling_from_json({"region": {"cells": []}, "tiles": tiles})
    assert str(anchor.value) == f"bad anchor {entry!r}"


def test_json_pairs_take_integers_of_any_size():
    big = 3 * 2**64 - 2  # class -1 with y = -2
    assert region_from_json({"cells": [[big, -2]]}).cells == {LatticePoint(big, -2)}
    t = tiling_from_json(
        {"region": {"cells": []}, "tiles": [{"kind": "boneAB", "anchor": [big, -2]}]}
    )
    assert t.placements == (Placement(TileKind.BONE_AB, LatticePoint(big, -2)),)
    with pytest.raises(FormatError, match="has class 0, not -1"):
        region_from_json({"cells": [[2**65, -2]]})
    with pytest.raises(FormatError, match="has class 0, not -1"):
        tiling_from_json(
            {"region": {"cells": []}, "tiles": [{"kind": "boneAB", "anchor": [2**65, -2]}]}
        )


# -- placement frequencies ----------------------------------------------------

def _reference_frequency(r, tileset, p):
    """Force p and count the rest: the definition, with no table."""
    return count_tilings(Region(r.cells - frozenset(cells_of(p))), tileset)


def test_frequency_of_a_kind_outside_the_tileset():
    r = benzel(BenzelParams(4, 4))
    stones = placements(r, STONES)
    assert stones
    for p in stones:
        assert placement_frequency(r, BONES, p) == _reference_frequency(r, BONES, p)
    assert {placement_frequency(r, BONES, p) for p in stones} != {0}


def test_frequency_of_a_placement_not_inside_the_region():
    r = benzel(BenzelParams(5, 7))
    inside = placements(r, BONES)[0]
    # Shift the anchor by a class-0 vector until one cell leaves the region.
    for dx, dy in ((1, 2), (2, 1), (1, -1), (-1, -2), (-2, -1), (-1, 1)):
        shifted = Placement(inside.kind, LatticePoint(inside.anchor.x + 3 * dx, inside.anchor.y + 3 * dy))
        if not all(c in r for c in cells_of(shifted)):
            with pytest.raises(InvalidPlacement):
                placement_frequency(r, BONES, shifted)
    with pytest.raises(InvalidPlacement):
        placement_frequency(r, STONES, Placement(TileKind.STONE_R, LatticePoint(41, 45)))


def test_frequency_when_the_cell_count_is_not_a_multiple_of_three():
    r = triangle(4)
    assert len(r) % 3
    ps = placements(r, STONES_AND_BONES)
    assert ps
    assert {placement_frequency(r, STONES_AND_BONES, p) for p in ps} == {0}
    assert {placement_frequency(r, BONES, p) for p in ps} == {0}


def test_frequency_is_never_stale():
    a = benzel(BenzelParams(5, 7))
    b = benzel(BenzelParams(4, 5))
    a_copy = Region(frozenset(LatticePoint(c.x, c.y) for c in a.cells))
    assert a_copy == a and a_copy is not a
    calls = []
    for region in (a, b):
        for tileset in (BONES, STONES_AND_BONES):
            for p in placements(region, STONES_AND_BONES):
                calls.append((region, tileset, p))
    expected = [_reference_frequency(r, ts, p) for r, ts, p in calls]
    rng = random.Random(5)
    order = list(range(len(calls))) * 2
    rng.shuffle(order)
    for k in order:
        r, ts, p = calls[k]
        if r is a and k % 2:
            r = a_copy
        assert placement_frequency(r, ts, p) == expected[k], (len(r), ts, p)


def test_frequency_cap_raises_resource_limit():
    r = benzel(BenzelParams(12, 15))
    p = placements(r, BONES)[0]
    # A call on another region first, so no earlier result for r is at hand.
    placement_frequency(benzel(BenzelParams(3, 3)), BONES, placements(benzel(BenzelParams(3, 3)), BONES)[0])
    for _ in range(2):  # a failed call leaves nothing behind to answer the next
        with pytest.raises(ResourceLimit, match=r"cell \d+ of \d+"):
            placement_frequency(r, BONES, p, memo_limit_mb=0.01)
    # A cap of exactly the kept forward sweep's states lets the sweep pass;
    # the backward pass, holding the new bucket beside the one it replaces,
    # then goes over it near the end.
    table = _move_table(r, BONES, _counting_order)
    states = sum(len(b) for b in _sweep(table, None, keep=True)[0] if b is not None)
    _sweep(table, states * _BYTES_PER_STATE, keep=True)
    with pytest.raises(ResourceLimit, match=r"^the frequency table stopped at cell 154 of 162: "):
        placement_frequency(r, BONES, p, memo_limit_mb=states * _BYTES_PER_STATE / 2**20)
    assert placement_frequency(r, BONES, p) == _reference_frequency(r, BONES, p)


def _assert_frequencies_match_recount(r, tileset):
    ps = placements(r, tileset)
    got = [placement_frequency(r, tileset, p) for p in ps]
    assert got == [_reference_frequency(r, tileset, p) for p in ps], (len(r), tileset)
    assert sum(got) == count_tilings(r, tileset) * len(r) // 3


def test_frequencies_match_the_recount():
    shapes = [benzel(p) for p in _valid_params(8)] + [triangle(n) for n in range(1, 8)]
    for shape in shapes:
        rotated = Region(frozenset(rotate120(c) for c in shape.cells))
        moved = Region(frozenset(LatticePoint(c.x + 5, c.y - 2) for c in shape.cells))
        for r in (shape, rotated, moved):
            for tileset in (BONES, STONES_AND_BONES):
                _assert_frequencies_match_recount(r, tileset)

