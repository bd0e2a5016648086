"""End-to-end tests of the command-line interface."""

import json

import pytest

from trihex.cli import main
from trihex.regions import BenzelParams, benzel, region_to_json
from trihex.tilings import tiling_from_json, validate


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_benzel_area(capsys):
    code, out, _ = run(capsys, "benzel", "--a", "5", "--b", "7", "--area")
    assert code == 0
    assert out.strip() == "27"


def test_benzel_invariant(capsys):
    code, out, _ = run(capsys, "benzel", "--a", "5", "--b", "7", "--invariant")
    assert code == 0
    assert out.strip() == "0"


def test_benzel_invalid_params(capsys):
    code, _, err = run(capsys, "benzel", "--a", "2", "--b", "5", "--area")
    assert code == 2
    assert "violates" in err


def test_benzel_error_as_json(capsys):
    code, out, _ = run(capsys, "benzel", "--a", "2", "--b", "5", "--area", "--json")
    assert code == 2
    assert "error" in json.loads(out)


def test_benzel_cells_roundtrip(capsys):
    code, out, _ = run(capsys, "benzel", "--a", "3", "--b", "3", "--cells")
    assert code == 0
    assert json.loads(out) == region_to_json(benzel(BenzelParams(3, 3)))


def test_benzel_boundary_word(capsys):
    code, out, _ = run(capsys, "benzel", "--a", "5", "--b", "7", "--boundary-word")
    assert code == 0
    assert out.startswith("base=7,2")


def test_triangle_invariant(capsys):
    code, out, _ = run(capsys, "triangle", "--n", "6", "--invariant")
    assert code == 0
    assert out.strip() == "6"


def test_shadow_json(capsys):
    code, out, _ = run(capsys, "shadow", "--triangle", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["area"] == 3
    assert doc["shadow"].startswith("base=")


def test_shadow_seed_flag(capsys):
    code1, out1, _ = run(capsys, "shadow", "--benzel", "4,4", "--seed", "ab", "--json")
    code2, out2, _ = run(capsys, "shadow", "--benzel", "4,4", "--seed", "cb", "--json")
    assert code1 == code2 == 0
    assert json.loads(out1)["area"] == json.loads(out2)["area"]


def test_shadow_of_closed_form_word_file(capsys, tmp_path):
    # The (2,3) word's spur pair straddles its end; its basepoint (3,1) is
    # class 1, so the area is -I = 3.
    code, out, _ = run(capsys, "benzel", "--a", "2", "--b", "3", "--boundary-word")
    assert code == 0
    path = tmp_path / "w.txt"
    path.write_text(out)
    code, out, _ = run(capsys, "shadow", "--word", str(path))
    assert code == 0
    assert out.splitlines()[-1] == "area 3"


def test_tile_count(capsys):
    code, out, _ = run(capsys, "tile", "count", "--benzel", "5,7", "--tiles", "bones")
    assert code == 0
    assert out.strip() == "2"


def test_tile_count_stones_and_bones(capsys):
    code, out, _ = run(
        capsys, "tile", "count", "--benzel", "3,3", "--tiles", "stones+bones"
    )
    assert code == 0
    assert out.strip() == "3"


def test_tile_count_resource_limit(capsys):
    code, out, _ = run(
        capsys, "tile", "count", "--benzel", "12,15", "--tiles", "bones",
        "--memo-limit-mb", "0.001",
    )
    assert code == 3
    assert out.strip() == "resource-limit"


def test_tile_count_resource_limit_detail_on_stderr(capsys):
    code, out, err = run(
        capsys, "tile", "count", "--benzel", "12,15", "--tiles", "bones",
        "--memo-limit-mb", "0.01",
    )
    assert code == 3
    assert out.strip() == "resource-limit"
    assert "of 162" in err and "live states" in err


def test_tile_enumerate_limit(capsys):
    code, out, _ = run(
        capsys, "tile", "enumerate", "--benzel", "3,3", "--tiles", "stones+bones",
        "--limit", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        assert validate(tiling_from_json(json.loads(line)))


def test_tile_construct_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "t.json"
    code, _, _ = run(capsys, "tile", "construct", "--k", "2", "-o", str(out_file))
    assert code == 0
    t = tiling_from_json(json.loads(out_file.read_text()))
    assert validate(t)
    assert len(t.placements) == 9


def test_tile_freq(capsys):
    code, out, _ = run(
        capsys, "tile", "freq", "--benzel", "5,7", "--tiles", "bones",
        "--placement", "boneAB,-1,0",
    )
    assert code == 0
    assert out.strip().isdigit()


def test_tile_count_region_file(tmp_path, capsys):
    f = tmp_path / "r.json"
    f.write_text(json.dumps(region_to_json(benzel(BenzelParams(5, 7)))))
    code, out, _ = run(capsys, "tile", "count", "--region", str(f), "--tiles", "bones")
    assert code == 0
    assert out.strip() == "2"


def test_scan_text_and_json(capsys):
    code, out, _ = run(capsys, "scan", "--max", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 2  # header + the (2,2) row

    code, out, _ = run(capsys, "scan", "--max", "8", "--json")
    assert code == 0
    rows = json.loads(out)
    by_ab = {(r["a"], r["b"]): r for r in rows}
    assert by_ab[(5, 7)]["invariantI"] == 0
    assert by_ab[(5, 7)]["pentagonalK"] == 2
    assert by_ab[(3, 3)]["cellCount"] == 6


def test_scan_search_flags_bone_tileable(capsys):
    code, out, _ = run(capsys, "scan", "--max", "8", "--search", "--json")
    assert code == 0
    rows = json.loads(out)
    tileable = {(r["a"], r["b"]) for r in rows if r.get("boneTileable")}
    assert tileable == {(5, 7), (7, 5)}


def test_render_region(tmp_path, capsys):
    out_file = tmp_path / "b.svg"
    code, _, _ = run(capsys, "render", "--benzel", "5,7", "-o", str(out_file))
    assert code == 0
    svg = out_file.read_text()
    assert svg.count('class="cell"') == 27
    assert svg.startswith("<svg")


def test_render_is_deterministic(tmp_path, capsys):
    f1, f2 = tmp_path / "a.svg", tmp_path / "b.svg"
    for f in (f1, f2):
        run(capsys, "render", "--triangle", "3", "--boundary", "--shadow",
            "-o", str(f))
    assert f1.read_bytes() == f2.read_bytes()


def test_render_bad_file(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{")
    code, _, err = run(capsys, "render", "--region", str(f))
    assert code == 2
    assert "error" in err


def test_tile_freq_placement_without_coordinates(capsys):
    for placement in ("boneAB", "boneAB,1"):
        code, out, err = run(
            capsys, "tile", "freq", "--benzel", "5,7", "--tiles", "bones",
            "--placement", placement,
        )
        assert code == 2, placement
        assert out == "" and err.startswith("error: "), placement


def test_tile_freq_resource_limit(capsys):
    # A call on another region first, so no earlier result for (12,15) is at hand.
    assert run(
        capsys, "tile", "freq", "--benzel", "5,7", "--tiles", "bones",
        "--placement", "boneAB,-1,0",
    )[0] == 0
    code, out, err = run(
        capsys, "tile", "freq", "--benzel", "12,15", "--tiles", "bones",
        "--placement", "boneAB,-1,0", "--memo-limit-mb", "0.001",
    )
    assert code == 3
    assert out.strip() == "resource-limit"
    assert "resource-limit: " in err


def test_scan_with_no_benzels_prints_the_header(capsys):
    code, out, err = run(capsys, "scan", "--max", "1")
    assert code == 0 and err == ""
    assert out.split() == ["a", "b", "class", "cellCount", "invariantI", "pentagonalK"]


@pytest.mark.parametrize("seed", ["a", "abc", ""])
def test_shadow_seed_needs_two_letters(capsys, seed):
    code, out, err = run(capsys, "shadow", "--benzel", "4,4", "--seed", seed)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def _tile_on_a_fresh_region(capsys, command, *extra):
    """Run `tile command` on the (12,15) benzel with bones; for freq, after
    a call on another region, so no kept (12,15) table answers it."""
    argv = ["tile", command, "--benzel", "12,15", "--tiles", "bones", *extra]
    if command == "freq":
        argv += ["--placement", "boneAB,-1,0"]
        assert run(
            capsys, "tile", "freq", "--benzel", "5,7", "--tiles", "bones",
            "--placement", "boneAB,-1,0",
        )[0] == 0
    return run(capsys, *argv)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["count", "freq"])
def test_non_finite_memo_limit(capsys, command, value):
    code, out, err = _tile_on_a_fresh_region(capsys, command, f"--memo-limit-mb={value}")
    assert code == 3
    assert out.strip() == "resource-limit"
    assert err.startswith("resource-limit: ")


@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
@pytest.mark.parametrize("command", ["count", "freq", "enumerate"])
def test_non_finite_memo_limit_env(capsys, monkeypatch, command, value):
    monkeypatch.setenv("TRIBONE_MEMO_LIMIT_MB", value)
    code, out, err = _tile_on_a_fresh_region(capsys, command)
    assert code == 3
    assert out.strip() == "resource-limit"
    assert "TRIBONE_MEMO_LIMIT_MB" in err
