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
    BenzelParams,
    Region,
    benzel,
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
    _frequency_table,
    _move_table,
    _placement_key,
    _sweep,
    _trusted,
)

from reference import region_from_cells, show

ANCHOR = LatticePoint(-2, -2)

# Center offsets between edge-adjacent cells.
CELL_NEIGHBOR_OFFSETS = [
    LatticePoint(*d) for d in ((1, -1), (1, 2), (2, 1), (-1, 1), (-1, -2), (-2, -1))
]


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
        assert kind.label == kind.value
        assert kind.offsets[0] == (0, 0) == min(kind.offsets)
        assert len(set(kind.offsets)) == 3
    assert len(KIND_BY_NAME) == 5
    for kind in BONES:  # three cells in a row
        _, step, end = kind.offsets
        assert step in CELL_NEIGHBOR_OFFSETS and end == step + step
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


@pytest.mark.parametrize(
    "kind, anchor, message",
    [
        ("boneAB", LatticePoint(-1, 0), "kind 'boneAB' is not a TileKind"),
        (None, LatticePoint(-1, 0), "kind None is not a TileKind"),
        (TileKind.BONE_AB, (-1, 0), "anchor (-1, 0) is not a LatticePoint"),
        (TileKind.BONE_AB, [-1, 0], "anchor [-1, 0] is not a LatticePoint"),
        # The kind is judged first, and both before the anchor's class.
        ("boneAB", (0, 0), "kind 'boneAB' is not a TileKind"),
        (TileKind.STONE_R, (0, 0), "anchor (0, 0) is not a LatticePoint"),
    ],
)
def test_placement_entries_must_have_their_types(kind, anchor, message):
    with pytest.raises(InvalidParams) as err:
        Placement(kind, anchor)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "entries, message",
    [
        (("x",), "placement 'x' is not a Placement"),
        ("x", "placement 'x' is not a Placement"),
        ((Placement(TileKind.BONE_AB, ANCHOR), (TileKind.BONE_BC, (-2, -2))),
         "placement (<TileKind.BONE_BC: 'boneBC'>, (-2, -2)) is not a Placement"),
        (5, "placements must be an iterable of Placement, got int"),
        (None, "placements must be an iterable of Placement, got NoneType"),
    ],
)
def test_tiling_placements_must_be_placements(entries, message):
    with pytest.raises(InvalidParams) as err:
        Tiling(benzel(BenzelParams(3, 3)), entries)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda r: Tiling(r, [(TileKind.BONE_BC, LatticePoint(-2, -2))]),
         "placement (<TileKind.BONE_BC: 'boneBC'>, (-2, -2)) is not a Placement"),
        (lambda r: Placement(LatticePoint(-1, 0), TileKind.BONE_AB),
         "kind (-1, 0) is not a TileKind"),
        (lambda r: count_tilings(r, [LatticePoint(0, 0)]),
         "tileset entry (0, 0) is not a TileKind"),
        (lambda r: next(enumerate_tilings(r, BONES, LatticePoint(1, 1))),
         "limit must be an int or None, got (1, 1)"),
    ],
    ids=["placement", "kind", "tileset entry", "limit"],
)
def test_messages_write_lattice_points_as_pairs(call, message):
    with pytest.raises(InvalidParams) as err:
        call(benzel(BenzelParams(3, 3)))
    assert str(err.value) == message


def test_messages_cut_a_long_value_short():
    # A region passed as the tileset was named by its full repr, every
    # cell a LatticePoint(x=..., y=...): about 1 MB of text at k = 12.
    head = "a tileset is a collection of TileKind, got Region(cells=frozenset({("
    for r, cut in ((benzel(BenzelParams(3, 3)), False), (benzel(BenzelParams(40, 40)), True)):
        with pytest.raises(InvalidParams) as err:
            count_tilings(BONES, r)
        message = str(err.value)
        assert message.startswith(head) and "LatticePoint(" not in message
        assert len(message) < 200 and message.endswith("...") == cut
        assert all(str(c) in message for c in r.cells) != cut


@pytest.mark.parametrize(
    "shape",
    [lambda: Region(frozenset()), lambda: triangle(1), lambda: benzel(BenzelParams(3, 3)),
     lambda: benzel(BenzelParams(40, 40)), lambda: benzel(BenzelParams(176, 210))],
    ids=["empty", "T(1)", "B(3,3)", "B(40,40)", "B(176,210)"],
)
def test_messages_name_a_region_as_its_full_repr_would(shape):
    # The message writes only the cells it shows; the reference writes
    # the whole repr and then cuts it.
    region = shape()
    with pytest.raises(InvalidParams) as err:
        count_tilings(BONES, region)
    assert str(err.value) == f"a tileset is a collection of TileKind, got {show(region)}"


def test_tiling_takes_any_iterable_of_placements():
    t = next(enumerate_tilings(benzel(BenzelParams(5, 7)), BONES))
    for entries in (list(t.placements), iter(t.placements), reversed(t.placements)):
        assert Tiling(t.region, entries) == t


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
    # placements skips Placement's anchor check; every anchor still passes it.
    for region in (r, benzel(BenzelParams(5, 7)), triangle(6)):
        for tileset in (BONES, STONES_AND_BONES):
            ps = placements(region, tileset)
            assert ps == [Placement(p.kind, p.anchor) for p in ps]


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
    assert list(enumerate_tilings(r, STONES_AND_BONES, limit=-1)) == []


@pytest.mark.parametrize("limit", ["3", 1.5, True, False], ids=["str", "float", "True", "False"])
def test_enumerate_limit_of_the_wrong_type(limit):
    # A bool is no count even though it is an int; each raises before the
    # first tiling, where a str met a bare TypeError and 1.5 yielded 2.
    with pytest.raises(InvalidParams) as err:
        next(enumerate_tilings(benzel(BenzelParams(3, 3)), STONES_AND_BONES, limit))
    assert str(err.value) == f"limit must be an int or None, got {limit!r}"


def test_memo_cap_raises_resource_limit():
    r = benzel(BenzelParams(12, 15))
    with pytest.raises(ResourceLimit):
        count_tilings(r, BONES, memo_limit_mb=0.001)


def test_resource_limit_says_where_it_stopped():
    with pytest.raises(ResourceLimit, match=r"cell \d+ of 162: \d+ live states"):
        count_tilings(benzel(BenzelParams(12, 15)), BONES, memo_limit_mb=0.01)


def test_resource_limit_messages_are_pinned():
    with pytest.raises(ResourceLimit) as err:
        count_tilings(benzel(BenzelParams(12, 15)), BONES, memo_limit_mb=0.1)
    assert str(err.value).startswith("counting stopped at cell 31 of 162: 1069 live states")
    with pytest.raises(ResourceLimit) as err:
        count_tilings(triangle(14), STONES_AND_BONES, memo_limit_mb=1)
    assert "cell 11 of 105: 15664 live states" in str(err.value)


def _plain_sweep(table):
    """The forward sweep with keep, written plainly: every state tests each
    move of its cell, and the lowest clear bit comes from the bit trick
    alone.  Also returns how many moves led ahead by 12 cells or more."""
    n = len(table)
    moves = [[bits for _rank, bits in ms] for ms in table]
    buckets = [None] * (n + 1)
    buckets[0] = {0: 1}
    far = 0
    for i in range(n):
        if buckets[i] is None:
            continue
        for mask, count in buckets[i].items():
            for bits in moves[i]:
                if mask & bits:
                    continue
                m = mask | bits
                j = (~m & (m + 1)).bit_length() - 1
                far += j >= 12
                nxt = buckets[i + j]
                if nxt is None:
                    nxt = buckets[i + j] = {}
                nxt[m >> j] = nxt.get(m >> j, 0) + count
    return buckets, moves, far


def _plain_frequency_table(r, tileset):
    """The frequency table written plainly: the plain sweep, then a backward
    pass in which every state tests each move of its cell again and sums
    by the move's index in its cell's list."""
    ps, table = _move_table(r, tileset, _counting_order)
    n = len(table)
    freq = {_placement_key(p): 0 for p in ps}
    buckets, moves, _ = _plain_sweep(table)
    if n % 3 or buckets[n] is None:
        return freq
    buckets[n] = {0: 1}
    for i in range(n - 1, -1, -1):
        if buckets[i] is None:
            continue
        sums = [0] * len(moves[i])
        out = {}
        for mask, f in buckets[i].items():
            g = 0
            for k, bits in enumerate(moves[i]):
                if mask & bits:
                    continue
                m = mask | bits
                j = (~m & (m + 1)).bit_length() - 1
                c = buckets[i + j].get(m >> j)
                if c:
                    g += c
                    sums[k] += f * c
            if g:
                out[mask] = g
        buckets[i] = out
        for (rank, _bits), total in zip(table[i], sums):
            freq[_placement_key(ps[rank])] = total
    return freq


def _sweep_cases():
    """Regions and tilesets on which the sweep and the frequency table are
    checked against their plain versions."""
    return [
        (benzel(BenzelParams(9, 9)), STONES_AND_BONES),
        (benzel(BenzelParams(12, 12)), STONES_AND_BONES),
        (benzel(BenzelParams(12, 15)), BONES),
        (triangle(8), STONES_AND_BONES),
        (_rotated_and_translated(triangle(8))[1], STONES_AND_BONES),
        (_rotated_and_translated(benzel(BenzelParams(9, 9)))[3], STONES_AND_BONES),
    ]


def test_sweep_matches_the_plain_sweep():
    # The sweep looks up the moves that fit by window pattern and reads the
    # lowest clear bit from a 12-bit table; every bucket must come out as
    # from the plain loop, including the moves that jump 12 or more cells.
    # The _Fits returned are those of the popped cells, each over its
    # cell's move masks in table order.
    far = []
    for r, tileset in _sweep_cases():
        table = _move_table(r, tileset, _counting_order)[1]
        expected, expected_moves, jumps = _plain_sweep(table)
        buckets, fits = _sweep(table, None, keep=True)
        assert buckets == expected, (len(r), tileset)
        popped = [i for i in range(len(table)) if expected[i] is not None]
        assert [f.moves for f in fits if f is not None] == [expected_moves[i] for i in popped]
        far.append(jumps)
    assert far[:3] == [21, 1488, 90]


def test_frequency_table_matches_the_plain_backward_pass():
    # Whole tables on regions too large for the recount oracle, B(12,12)
    # stones+bones among them with its 1,488 moves that jump 12 or more
    # cells: the backward pass reads the sweep's fitting-move tables.
    for r, tileset in _sweep_cases():
        assert _frequency_table(r, tileset, None) == _plain_frequency_table(r, tileset), (
            len(r), tileset,
        )


def test_memo_cap_env_var(monkeypatch):
    monkeypatch.setenv("TRIBONE_MEMO_LIMIT_MB", "0.001")
    with pytest.raises(ResourceLimit):
        count_tilings(benzel(BenzelParams(12, 15)), BONES)


def _bad_cap(name, value):
    """The InvalidParams text for a bad cap from name."""
    return f"{name} must be finite and 0 or more, got {value!r}"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_memo_limit(value):
    with pytest.raises(InvalidParams) as err:
        count_tilings(benzel(BenzelParams(5, 7)), BONES, memo_limit_mb=value)
    assert str(err.value) == _bad_cap("memo_limit_mb", value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "ten"])
def test_non_finite_memo_limit_env_var(monkeypatch, value):
    monkeypatch.setenv("TRIBONE_MEMO_LIMIT_MB", value)
    r = benzel(BenzelParams(5, 7))
    message = _bad_cap("TRIBONE_MEMO_LIMIT_MB", value)
    with pytest.raises(InvalidParams) as err:
        count_tilings(r, BONES)
    assert str(err.value) == message
    with pytest.raises(InvalidParams) as err:
        next(enumerate_tilings(r, BONES))
    assert str(err.value) == message


def _fresh_frequency(memo_limit_mb=None):
    """placement_frequency on one bone's cells, after a call on another
    region, so no kept table answers it.  That first call sets its own cap,
    so a TRIBONE_MEMO_LIMIT_MB the test sets does not reach it."""
    other = Placement(TileKind.BONE_AB, LatticePoint(-1, 0))
    placement_frequency(benzel(BenzelParams(5, 7)), BONES, other, 64)
    p = Placement(TileKind.BONE_AB, ANCHOR)
    return placement_frequency(Region(frozenset(cells_of(p))), BONES, p, memo_limit_mb)


def test_one_bone_frequency():
    assert _fresh_frequency() == 1


@pytest.mark.parametrize("value", [-1, -0.5, -math.inf])
def test_negative_memo_limit(value):
    message = _bad_cap("memo_limit_mb", value)
    with pytest.raises(InvalidParams) as err:
        count_tilings(benzel(BenzelParams(5, 7)), BONES, memo_limit_mb=value)
    assert str(err.value) == message
    with pytest.raises(InvalidParams) as err:
        _fresh_frequency(value)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "value", [[1], 1j, 10**400, True, False], ids=["list", "complex", "10**400", "True", "False"]
)
def test_memo_limit_of_the_wrong_type(value):
    # Each is bad input worded like a negative cap: not a bare TypeError
    # or OverflowError, and a bool is no size even though it is an int.
    message = _bad_cap("memo_limit_mb", value)
    with pytest.raises(InvalidParams) as err:
        count_tilings(benzel(BenzelParams(5, 7)), BONES, memo_limit_mb=value)
    assert str(err.value) == message
    with pytest.raises(InvalidParams) as err:
        _fresh_frequency(value)
    assert str(err.value) == message


def test_negative_memo_limit_env_var(monkeypatch):
    monkeypatch.setenv("TRIBONE_MEMO_LIMIT_MB", "-1")
    r = benzel(BenzelParams(5, 7))
    message = "TRIBONE_MEMO_LIMIT_MB must be finite and 0 or more, got '-1'"
    with pytest.raises(InvalidParams) as err:
        count_tilings(r, BONES)
    assert str(err.value) == message
    with pytest.raises(InvalidParams) as err:
        _fresh_frequency()
    assert str(err.value) == message
    with pytest.raises(InvalidParams) as err:
        next(enumerate_tilings(r, BONES))
    assert str(err.value) == message


@pytest.mark.parametrize("value", [-1, math.nan, "env nan"])
def test_bad_memo_limit_is_checked_whatever_the_region(monkeypatch, value):
    # T4 has 10 cells, so no tiling; the cap is judged before that is seen.
    if value == "env nan":
        monkeypatch.setenv("TRIBONE_MEMO_LIMIT_MB", "nan")
        value, message = None, _bad_cap("TRIBONE_MEMO_LIMIT_MB", "nan")
    else:
        message = _bad_cap("memo_limit_mb", value)
    r = triangle(4)
    p = placements(r, BONES)[0]
    stone = placements(r, STONES)[0]  # outside the tileset: the remainder's count
    for call in (
        lambda: count_tilings(r, BONES, value),
        lambda: placement_frequency(r, BONES, p, value),
        lambda: placement_frequency(r, BONES, stone, value),
    ):
        with pytest.raises(InvalidParams) as err:
            call()
        assert str(err.value) == message


def test_bad_memo_limit_with_a_kept_frequency_table():
    r = benzel(BenzelParams(5, 7))
    p = placements(r, BONES)[0]
    kept = placement_frequency(r, BONES, p)
    with pytest.raises(InvalidParams) as err:
        placement_frequency(r, BONES, p, math.nan)
    assert str(err.value) == _bad_cap("memo_limit_mb", math.nan)
    assert placement_frequency(r, BONES, p, 0) == kept  # the kept table answers, uncapped


def test_bad_memo_limit_env_var_before_any_tiling(monkeypatch):
    monkeypatch.setenv("TRIBONE_MEMO_LIMIT_MB", "nan")
    message = _bad_cap("TRIBONE_MEMO_LIMIT_MB", "nan")
    for r, limit in [(triangle(4), None), (benzel(BenzelParams(5, 7)), 0), (Region(frozenset()), None)]:
        with pytest.raises(InvalidParams) as err:
            list(enumerate_tilings(r, BONES, limit))
        assert str(err.value) == message


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


def test_enumerated_tilings_recheck_valid():
    # The statistics trust what enumeration yields; the full check must
    # agree with that trust on every tiling.
    checked = 0
    for a, b in ((3, 3), (4, 5), (5, 7)):
        r = benzel(BenzelParams(a, b))
        invariant = cl_invariant_path(r).I
        for tileset in (BONES, STONES_AND_BONES):
            ts = list(enumerate_tilings(r, tileset))
            assert len(ts) == count_tilings(r, tileset), (a, b, tileset)
            checked += len(ts)
            for t in ts:
                assert t._valid
                assert validation_error(t) is None, (a, b, tileset)
                assert stone_balance(t) == invariant
    assert checked == 3 + 18 + 2 + 142


def test_enumerated_tilings_are_in_canonical_order():
    # Enumeration sorts each tiling's placements by rank, not through
    # Tiling's constructor; the result must be what the constructor makes.
    shapes = [benzel(BenzelParams(a, b)) for a, b in ((3, 3), (4, 5), (5, 7), (7, 7))]
    shapes.append(Region(frozenset(rotate120(c) + LatticePoint(5, -2) for c in shapes[2].cells)))
    checked = 0
    for r in shapes:
        for tileset in (BONES, STONES_AND_BONES):
            ts = list(enumerate_tilings(r, tileset))
            assert len(ts) == count_tilings(r, tileset)
            assert list(enumerate_tilings(r, tileset, 7)) == ts[:7]
            for t in ts:
                keys = [_placement_key(p) for p in t.placements]
                assert keys == sorted(keys)
                for rebuilt in (Tiling(r, t.placements), Tiling(r, t.placements[::-1])):
                    assert rebuilt == t and hash(rebuilt) == hash(t)
                    assert rebuilt.placements == t.placements
                assert t._valid and validation_error(t) is None
            checked += len(ts)
    assert checked == 165 + 5766 + 144  # (3,3) to (5,7), (7,7), the moved (5,7)


def test_invalid_tiling_is_checked_after_a_valid_one():
    r = benzel(BenzelParams(3, 3))
    good = next(enumerate_tilings(r, STONES_AND_BONES))
    ps = placements(r, BONES)
    for bad in (Tiling(r, ()), Tiling(r, (ps[0], ps[0])), Tiling(r, good.placements[1:])):
        assert stone_balance(good) == 3
        assert validate(Tiling(r, good.placements))
        for stat in (stone_balance, orientation_histogram):
            with pytest.raises(InvalidTiling) as err:
                stat(bad)
            assert str(err.value) == validation_error(bad)
        assert not validate(bad) and not bad._valid


def test_validity_belongs_to_one_tiling_object():
    r = benzel(BenzelParams(5, 7))
    twin = next(enumerate_tilings(r, BONES))
    hand = Tiling(r, tuple(reversed(twin.placements)))
    assert hand == twin and hash(hand) == hash(twin) and repr(hand) == repr(twin)
    assert tiling_to_json(hand) == tiling_to_json(twin)
    assert twin._valid and not hand._valid
    # Validating a copy marks the copy only, so the other is still checked.
    copy = Tiling(r, hand.placements)
    assert validate(copy)
    assert copy._valid and not hand._valid
    assert orientation_histogram(hand) == (3, 3, 3, 0, 0)
    assert hand._valid
    # A parsed tiling is checked on first use too.
    parsed = tiling_from_json(tiling_to_json(twin))
    assert parsed == twin and not parsed._valid


def test_reference_check_ignores_the_mark():
    # Only the statistics read the mark; validate and validation_error
    # recompute, so a tiling marked by mistake still fails them.
    r = benzel(BenzelParams(3, 3))
    forged = _trusted(r, ())
    assert validation_error(forged) == "cell (-2, -2) is uncovered"
    assert not validate(forged)
    assert orientation_histogram(forged) == (0, 0, 0, 0, 0)


def test_empty_region_has_one_empty_tiling():
    empty = Region(frozenset())
    for tileset in (BONES, STONES_AND_BONES):
        ts = list(enumerate_tilings(empty, tileset))
        assert ts == [Tiling(empty, ())]
        assert ts[0]._valid and validation_error(ts[0]) is None
        assert orientation_histogram(ts[0]) == (0, 0, 0, 0, 0)
        assert stone_balance(ts[0]) == 0
    assert list(enumerate_tilings(empty, BONES, limit=0)) == []


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


def test_tiling_json_reads_kind_labels(monkeypatch):
    # The writer names each tile by its kind's plain label attribute, never
    # through the Enum.value property, and the text stays the same.
    r = benzel(BenzelParams(5, 7))
    t = next(
        t for t in enumerate_tilings(r, STONES_AND_BONES) if len({p.kind for p in t.placements}) == 5
    )
    expected = [{"kind": p.kind.value, "anchor": [p.anchor.x, p.anchor.y]} for p in t.placements]
    monkeypatch.setattr(TileKind, "value", property(lambda kind: 1 / 0), raising=False)
    assert tiling_to_json(t)["tiles"] == expected
    assert json.dumps(tiling_to_json(t)["tiles"][-3:]) == (
        '[{"kind": "boneCA", "anchor": [-3, -4]}, {"kind": "stoneR", "anchor": [-4, -3]}, '
        '{"kind": "stoneL", "anchor": [2, 0]}]'
    )


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


@pytest.mark.parametrize("tileset, entry", [
    (["boneAB", "boneBC", "boneCA"], "'boneAB'"),
    ((TileKind.BONE_AB, "x"), "'x'"),
    ("bones", "'b'"),
])
def test_tileset_entries_must_be_tile_kinds(tileset, entry):
    # Names, or a stray entry among kinds, used to give a silent wrong
    # count (0 for the bone tileset by name, where the count is 2).
    r = benzel(BenzelParams(5, 7))
    p = placements(r, BONES)[0]
    calls = (
        lambda: placements(r, tileset),
        lambda: count_tilings(r, tileset),
        lambda: list(enumerate_tilings(r, tileset)),
        lambda: list(enumerate_tilings(r, tileset, 0)),
        lambda: placement_frequency(r, tileset, p),
        lambda: placement_frequency(r, tileset, Placement(TileKind.STONE_R, LatticePoint(41, 45))),
    )
    for call in calls:
        with pytest.raises(InvalidParams, match=rf"^tileset entry {entry} is not a TileKind$"):
            call()


def test_tileset_that_is_not_a_collection():
    r = benzel(BenzelParams(5, 7))
    with pytest.raises(InvalidParams, match=r"^a tileset is a collection of TileKind, got None$"):
        count_tilings(r, None)
    # The kinds themselves, in any collection, are a tileset.
    names = ["boneAB", "boneBC", "boneCA"]
    for tileset in ([KIND_BY_NAME[n] for n in names], set(BONES), BONES[::-1]):
        assert count_tilings(r, tileset) == 2
        assert len(list(enumerate_tilings(r, tileset))) == 2


def test_empty_tileset():
    r = benzel(BenzelParams(5, 7))
    p = placements(r, BONES)[0]
    assert placements(r, ()) == []
    assert count_tilings(r, ()) == 0 and list(enumerate_tilings(r, ())) == []
    assert placement_frequency(r, (), p) == 0
    empty = Region(frozenset())
    assert count_tilings(empty, ()) == 1
    assert list(enumerate_tilings(empty, ())) == [Tiling(empty, ())]


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
    table = _move_table(r, BONES, _counting_order)[1]
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

