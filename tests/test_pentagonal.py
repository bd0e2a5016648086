"""Unit tests for the sector decomposition and explicit bone tiling."""

import json

import pytest

from trihex.errors import InvalidParams, InvalidPlacement
from trihex.hexlattice import (
    ORIGIN,
    LatticePoint,
    Word,
    class_of,
    rotate120,
    signed_area,
    winding_numbers,
)
from trihex.pentagonal import (
    _sector0_runs,
    construct_tiling,
    pentagonal_benzel,
    sector_paths,
)
from trihex.regions import benzel, despur
from trihex.tilings import (
    BONES,
    Placement,
    TileKind,
    cells_of,
    enumerate_tilings,
    orientation_histogram,
    tiling_to_json,
    validate,
    validation_error,
)


def test_pentagonal_benzel_values():
    assert (pentagonal_benzel(2).a, pentagonal_benzel(2).b) == (5, 7)
    assert (pentagonal_benzel(3).a, pentagonal_benzel(3).b) == (12, 15)
    assert (pentagonal_benzel(4).a, pentagonal_benzel(4).b) == (22, 26)
    with pytest.raises(InvalidParams):
        pentagonal_benzel(1)
    for k in (2.0, True, "2"):
        for build in (pentagonal_benzel, construct_tiling):
            with pytest.raises(InvalidParams) as e:
                build(k)
            assert str(e.value) == f"pentagonal construction needs an integer k, got {k!r}"


def sector0(k):
    """The cells of sector 0, from its diagonal runs."""
    runs = _sector0_runs(k)
    return frozenset(LatticePoint(x, c - x) for c, lo, hi in runs for x in range(lo, hi + 1))


def test_sector_path_endpoints():
    for k in range(2, 21):
        p = pentagonal_benzel(k)
        p1, p2 = sector_paths(k)
        corner = LatticePoint(p.b, p.a)
        assert p1.displacement() == corner
        assert p2.displacement() == corner
        # Spine lengths: k blocks of 4j+2 steps, then the 4-step tail units.
        s, t = k * (k - 1) // 2, k * (k + 1) // 2
        assert len(p1) == sum(4 * j + 2 for j in range(k)) + 4 * s
        assert len(p2) == sum(4 * j + 2 for j in range(k)) + 4 * t


def test_sectors_partition_the_benzel():
    """Sector 0 turned by 0, 120 and 240 degrees partitions the benzel."""
    for k in range(2, 13):
        region = benzel(pentagonal_benzel(k))
        cells = sector0(k)
        seen = set()
        for _ in range(3):
            assert len(cells) == len(region) // 3
            assert not (seen & cells)
            seen |= cells
            cells = frozenset(rotate120(c) for c in cells)
        assert seen == region.cells


def test_sector_rotation_relation():
    """The construction's bones of each orientation cover one sector:
    sector 0 turned by 0, 120 and 240 degrees."""
    for k in (2, 3, 4):
        cells = sector0(k)
        t = construct_tiling(k)
        for kind in BONES:
            assert {c for p in t.placements if p.kind is kind for c in cells_of(p)} == cells
            cells = frozenset(rotate120(c) for c in cells)


def test_sector_matches_the_winding_numbers():
    """Sector 0 read off its despurred outline is the set of cells that
    P1 followed by P2 reversed winds round once."""
    for k in range(2, 13):
        region = benzel(pentagonal_benzel(k))
        p1, p2 = sector_paths(k)
        back = tuple(s.inverse for s in reversed(p2.steps))
        polygon = Word(p1.steps + back, ORIGIN)
        wn = winding_numbers(polygon, sorted(region.cells))
        assert sector0(k) == {c for c, n in wn.items() if n == 1}
        assert signed_area(despur(polygon)) == len(region) // 3


def test_construct_small():
    t = construct_tiling(2)
    assert validate(t)
    assert orientation_histogram(t) == (3, 3, 3, 0, 0)


def test_construct_builds_what_the_public_constructor_builds():
    # construct_tiling skips Placement's per-anchor class check; its
    # placements must still be valid, class -1 and equal to checked ones.
    for k in range(2, 7):
        t = construct_tiling(k)
        assert validation_error(t) is None
        assert all(class_of(p.anchor) == -1 for p in t.placements)
        rebuilt = tuple(Placement(p.kind, LatticePoint(*p.anchor)) for p in t.placements)
        assert t.placements == rebuilt
        assert list(map(hash, t.placements)) == list(map(hash, rebuilt))
        assert [type(p.anchor) for p in t.placements] == [LatticePoint] * len(rebuilt)
    with pytest.raises(InvalidPlacement) as e:
        Placement(TileKind.BONE_AB, LatticePoint(0, 0))
    assert str(e.value) == "anchor (0, 0) has class 0, not -1"


def test_construct_uses_one_orientation_per_sector():
    for k in (2, 3, 4):
        t = construct_tiling(k)
        assert validate(t)
        h = orientation_histogram(t)
        assert h[0] == h[1] == h[2] == len(t.region) // 9
        assert h[3] == h[4] == 0


def test_construction_appears_among_enumerated_tilings():
    for k in (2, 3):
        region = benzel(pentagonal_benzel(k))
        target = json.dumps(tiling_to_json(construct_tiling(k)), sort_keys=True)
        assert any(
            json.dumps(tiling_to_json(t), sort_keys=True) == target
            for t in enumerate_tilings(region, BONES)
        )


def test_construct_medium_scale():
    t = construct_tiling(7)
    assert validate(t)
    assert len(t.placements) == len(t.region) // 3
