"""End-to-end tests of the command-line interface."""

import gc
import hashlib
import json

import pytest

from trihex import cli
from trihex.cli import main
from trihex.regions import (
    BenzelParams,
    benzel,
    boundary_word_closed_form,
    region_to_json,
    trace_boundary,
    triangle,
    word_to_text,
)
from trihex.render import render_svg
from trihex.tilings import (
    BONES,
    STONES_AND_BONES,
    count_tilings,
    enumerate_tilings,
    tiling_from_json,
    tiling_to_json,
    validate,
)


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


def test_benzel_boundary_word_builds_no_benzel(capsys, monkeypatch):
    # The word is the closed form, so no benzel is built for it; its cells
    # grow with a * b while the word grows with a + b.
    def no_benzel(params):
        raise AssertionError("benzel built")

    monkeypatch.setattr("trihex.cli.benzel", no_benzel)
    word = word_to_text(boundary_word_closed_form(BenzelParams(400, 400)))
    code, out, _ = run(capsys, "benzel", "--a", "400", "--b", "400", "--boundary-word")
    assert code == 0 and out == word + "\n"
    code, out, _ = run(capsys, "benzel", "--a", "400", "--b", "400", "--boundary-word", "--json")
    assert code == 0 and json.loads(out) == {"word": word}


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


@pytest.mark.parametrize("args, tileset, limit", [
    (("--benzel", "4,5", "--tiles", "stones+bones"), STONES_AND_BONES, None),
    (("--benzel", "5,7", "--tiles", "bones"), BONES, None),
    (("--benzel", "12,15", "--tiles", "bones", "--limit", "25"), BONES, 25),
])
def test_tile_enumerate_prints_each_tiling_json(capsys, args, tileset, limit):
    # The region is encoded once per run; every line must still be exactly
    # the tiling's own JSON.
    code, out, _ = run(capsys, "tile", "enumerate", *args)
    assert code == 0
    r = benzel(BenzelParams(*map(int, args[1].split(","))))
    expected = "".join(
        json.dumps(tiling_to_json(t)) + "\n" for t in enumerate_tilings(r, tileset, limit)
    )
    assert out == expected and out.count("\n") == (limit or count_tilings(r, tileset))


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


def test_scan_search_text_table(capsys):
    code, out, err = run(capsys, "scan", "--max", "8", "--search")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 38  # the header and 37 benzels
    assert lines[0] == "a  b  class  cellCount  invariantI  pentagonalK  boneTileable"
    assert lines[1] == "2  2      1          3          -3            -         False"
    assert lines[20] == "5  7      0         27           0            2          True"
    assert lines[29] == "7  5      0         27           0            2          True"
    digest = "2379fb576e1c5dcfd234d755ccf8a871ba51fa12d2c4bf5c0d9d347b3d8409d5"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    # Above the cap the search is skipped and its cell reads "-".
    code, out, _ = run(capsys, "scan", "--max", "8", "--search", "--search-cap", "20")
    assert code == 0
    assert out.splitlines()[20] == "5  7      0         27           0            2             -"
    assert out.splitlines()[13] == "4  6      1         18         -18            -         False"


def test_triangle_boundary_word(capsys):
    word = (
        "base=-3,-3 a c' a c' a c' a c' b a' b a' b a' b a' c b' c b' c b' c b'"
    )
    assert word == word_to_text(trace_boundary(triangle(4)))
    assert run(capsys, "triangle", "--n", "4", "--boundary-word") == (0, word + "\n", "")
    code, out, err = run(capsys, "triangle", "--n", "4", "--boundary-word", "--json")
    assert (code, err) == (0, "")
    assert out == json.dumps({"word": word}) + "\n"


def test_render_region(tmp_path, capsys):
    out_file = tmp_path / "b.svg"
    code, _, _ = run(capsys, "render", "--benzel", "5,7", "-o", str(out_file))
    assert code == 0
    svg = out_file.read_text()
    assert svg.count('class="cell"') == 27
    assert svg.startswith("<svg")


def test_render_tiling_file_with_boundary(tmp_path, capsys):
    t = list(enumerate_tilings(benzel(BenzelParams(4, 5)), STONES_AND_BONES))[-1]
    src, out_file = tmp_path / "t.json", tmp_path / "t.svg"
    src.write_text(json.dumps(tiling_to_json(t)))
    code, out, err = run(
        capsys, "render", "--tiling", str(src), "--boundary", "-o", str(out_file)
    )
    assert (code, out, err) == (0, "", "")
    parsed = tiling_from_json(json.loads(src.read_text()))
    assert parsed == t
    expected = render_svg(parsed.region, parsed, trace_boundary(parsed.region))
    assert out_file.read_text() == expected
    assert expected.count('class="tile"') == len(t.placements)
    assert expected.count('class="boundary"') == 1


def test_render_to_a_file_writes_what_stdout_gets(tmp_path, capsys):
    src, out_file = tmp_path / "t.json", tmp_path / "t.svg"
    assert run(capsys, "tile", "construct", "--k", "3", "-o", str(src))[0] == 0
    argv = ["render", "--tiling", str(src), "--boundary"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out.count('class="tile"') == 54
    assert run(capsys, *argv, "-o", str(out_file)) == (0, "", "")
    assert out_file.read_bytes() == out.encode()


def test_render_is_deterministic(tmp_path, capsys):
    f1, f2 = tmp_path / "a.svg", tmp_path / "b.svg"
    for f in (f1, f2):
        run(capsys, "render", "--triangle", "3", "--boundary", "--shadow",
            "-o", str(f))
    assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize("option", ["--region", "--tiling"])
def test_render_show_hexagon_needs_a_benzel(tmp_path, capsys, option):
    f = tmp_path / "in.json"
    assert run(capsys, "tile", "construct", "--k", "2", "-o", str(f))[0] == 0
    if option == "--region":
        f.write_text(json.dumps(json.loads(f.read_text())["region"]))
    code, out, err = run(capsys, "render", option, str(f), "--show-hexagon")
    assert code == 2 and out == ""
    assert err == "error: --show-hexagon needs --benzel\n"


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


def test_scan_max_below_2_is_an_input_error(capsys):
    # The smallest benzel is (2, 2), so no such bound lists anything.
    for value in ("-3", "0", "1"):
        message = f"--max must be 2 or more, got {value}"
        assert run(capsys, "scan", "--max", value) == (2, "", f"error: {message}\n")
        code, out, err = run(capsys, "scan", "--max", value, "--json")
        assert (code, json.loads(out), err) == (2, {"error": message}, "")


@pytest.mark.parametrize("seed", ["a", "abc", "", "aa", "ad"])
def test_shadow_seed_needs_two_letters(capsys, seed):
    code, out, err = run(capsys, "shadow", "--benzel", "4,4", "--seed", seed)
    assert code == 2 and out == ""
    assert err == f"error: expected two distinct seed letters from abc, got {seed!r}\n"


def test_shadow_seed_second_letter_changes_nothing(capsys):
    code1, out1, _ = run(capsys, "shadow", "--benzel", "4,4", "--seed", "ab")
    code2, out2, _ = run(capsys, "shadow", "--benzel", "4,4", "--seed", "ac")
    assert code1 == code2 == 0
    assert out1 == out2


def _tile_on_a_fresh_region(capsys, command, *extra):
    """Run `tile command` on the (12,15) benzel with bones; for freq, after
    a call on another region, so no kept (12,15) table answers it.  That
    call sets its own cap, so a TRIBONE_MEMO_LIMIT_MB the test sets does
    not reach it."""
    argv = ["tile", command, "--benzel", "12,15", "--tiles", "bones", *extra]
    if command == "freq":
        argv += ["--placement", "boneAB,-1,0"]
        assert run(
            capsys, "tile", "freq", "--benzel", "5,7", "--tiles", "bones",
            "--placement", "boneAB,-1,0", "--memo-limit-mb", "64",
        )[0] == 0
    return run(capsys, *argv)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["count", "freq"])
def test_non_finite_memo_limit(capsys, command, value):
    code, out, err = _tile_on_a_fresh_region(capsys, command, f"--memo-limit-mb={value}")
    assert code == 2 and out == ""
    assert err == f"error: memo_limit_mb must be finite and 0 or more, got {value}\n"


@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
@pytest.mark.parametrize("command", ["count", "freq", "enumerate"])
def test_non_finite_memo_limit_env(capsys, monkeypatch, command, value):
    monkeypatch.setenv("TRIBONE_MEMO_LIMIT_MB", value)
    code, out, err = _tile_on_a_fresh_region(capsys, command)
    assert code == 2 and out == ""
    assert err == f"error: TRIBONE_MEMO_LIMIT_MB must be finite and 0 or more, got {value!r}\n"


# --- one input path ----------------------------------------------------------


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["--show-hexagon", "--boundary", "--shadow", "--unit", "7.5"],
            "85b55ddb16452473019df3b7f4cb956ea5a69e1652d2c0dd7fffa4d2db858f87",
        ),
        (
            ["--no-cells"],
            "941765b744161a17d64dd41d09614ba470f6b8b7220205766f95b243fb1b78eb",
        ),
    ],
)
def test_render_stdout_is_unchanged(capsys, argv, digest):
    code, out, err = run(capsys, "render", "--benzel", "5,7", *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tile", "count", "--benzel", "5", "--tiles", "bones"],
         "expected 'a,b' integers, got '5'"),
        (["tile", "count", "--benzel", "5,x", "--tiles", "bones"],
         "expected 'a,b' integers, got '5,x'"),
        (["render", "--benzel", "5,7,9"], "expected 'a,b' integers, got '5,7,9'"),
        (["shadow", "--basepoint", "1", "--triangle", "3"],
         "expected 'x,y' integers, got '1'"),
        (["shadow", "--basepoint", "a,b", "--benzel", "4,4"],
         "expected 'x,y' integers, got 'a,b'"),
        (["tile", "freq", "--benzel", "5,7", "--tiles", "bones",
          "--placement", "boneAB,1,y"], "expected 'x,y' integers, got '1,y'"),
        (["tile", "enumerate", "--benzel", "3,3", "--tiles", "bones",
          "--limit", "-1"], "--limit must be 0 or more, got -1"),
        (["render", "--triangle", "3", "--show-hexagon"],
         "--show-hexagon needs --benzel"),
        (["scan", "--max", "3", "--search", "--search-cap", "-1"],
         "--search-cap must be 0 or more, got -1"),
        (["tile", "freq", "--benzel", "5,7", "--tiles", "bones",
          "--placement", "boneXY,0,0"], "unknown tile kind 'boneXY'"),
        *[
            (["tile", command, "--benzel", "5,7", "--tiles", "bones", *extra,
              "--memo-limit-mb", value],
             f"memo_limit_mb must be finite and 0 or more, got {shown}")
            for command, extra in [("count", []), ("freq", ["--placement", "boneAB,-1,0"])]
            for value, shown in [("-1", "-1.0"), ("nan", "nan"), ("inf", "inf")]
        ],
    ],
)
def test_input_error_messages(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


_FILE_OPTIONS = [
    ["tile", "count", "--tiles", "bones", "--region"],
    ["tile", "enumerate", "--tiles", "bones", "--region"],
    ["tile", "freq", "--tiles", "bones", "--placement", "boneAB,-1,0", "--region"],
    ["shadow", "--word"],
    ["render", "--region"],
    ["render", "--tiling"],
    ["render", "--triangle", "3", "--word"],
]


@pytest.mark.parametrize("argv", _FILE_OPTIONS)
def test_missing_file(capsys, tmp_path, argv):
    path = str(tmp_path / "absent")
    code, out, err = run(capsys, *argv, path)
    assert code == 2 and out == ""
    assert err == f"error: [Errno 2] No such file or directory: {path!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["tile", "count", "--tiles", "bones", "--region"],
        ["render", "--region"],
        ["render", "--tiling"],
    ],
)
def test_file_that_is_not_json(capsys, tmp_path, argv):
    path = tmp_path / "notes.txt"
    path.write_text("not json\n")
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("option", ["--region", "--tiling"])
def test_json_error_names_the_file(capsys, tmp_path, option):
    path = tmp_path / "notes.txt"
    path.write_text("not json\n")
    code, out, err = run(capsys, "render", option, str(path))
    assert (code, out) == (2, "")
    what = option[2:]
    assert err == f"error: bad {what} JSON: Expecting value: line 1 column 1 (char 0)\n"


_FREQ = ["tile", "freq", "--tiles", "bones", "--benzel", "5,7", "--placement"]


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (_FREQ + ["boneAB,0,0"], None, "anchor (0, 0) has class 0, not -1"),
        (_FREQ + ["boneAB,41,45"], None, "boneAB at (41, 45) is not inside the region"),
        (["tile", "count", "--tiles", "bones", "--region"], '{"cells": [[0, 0]]}',
         "cell center (0, 0) has class 0, not -1"),
        (["render", "--tiling"],
         '{"region": {"cells": []}, "tiles": [{"kind": "boneAB", "anchor": [0, 0]}]}',
         "anchor (0, 0) has class 0, not -1"),
        (["shadow", "--word"], "base=-2,-2 a b c a b c",
         "path reached non-vertex point (-2, -2)"),
        # The shape of each input file, and a word's step tokens.
        (["render", "--tiling"], '{"region": {"cells": []}, "tiles": [], "z": 1}',
         "unknown tiling keys ['z']"),
        (["render", "--tiling"], '{"tiles": []}', "tiling needs 'region' and 'tiles'"),
        (["render", "--tiling"], '{"region": {"cells": []}}',
         "tiling needs 'region' and 'tiles'"),
        (["render", "--tiling"], '{"region": {"cells": []}, "tiles": {}}',
         "'tiles' must be a list"),
        (["tile", "count", "--tiles", "bones", "--region"], "{}",
         "region file lacks a 'cells' key"),
        (["tile", "count", "--tiles", "bones", "--region"], '{"cells": {}}',
         "'cells' must be a list"),
        (["shadow", "--word"], "base=7,2 a x", "bad step token 'x'"),
    ],
    ids=[
        "anchor", "outside", "region-cell", "tiling-anchor", "shadow-basepoint",
        "tiling-keys", "tiling-no-region", "tiling-no-tiles", "tiling-tiles-dict",
        "region-no-cells", "region-cells-dict", "word-token",
    ],
)
def test_points_print_as_pairs(capsys, tmp_path, argv, text, message):
    if text is not None:
        path = tmp_path / "input"
        path.write_text(text)
        argv = argv + [str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "LatticePoint(" not in err
    assert err == f"error: {message}\n"


def test_tiling_region_given_as_text(capsys, tmp_path):
    region = {"cells": [[-2, -2], [-1, 0], [0, -1]]}
    tiles = [{"kind": "stoneR", "anchor": [-2, -2]}]
    path = tmp_path / "tiling.json"
    path.write_text(json.dumps({"region": json.dumps(region), "tiles": tiles}))
    code, out, err = run(capsys, "render", "--tiling", str(path))
    assert (code, out) == (2, "")
    assert err == "error: region file must be a JSON object\n"


@pytest.mark.parametrize("argv", _FILE_OPTIONS)
def test_file_that_is_not_text(capsys, tmp_path, argv):
    path = tmp_path / "bytes.bin"
    path.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("command", ["render", "shadow"])
def test_triangle_size_must_be_positive(capsys, command, n):
    code, out, err = run(capsys, command, "--triangle", n)
    assert code == 2 and out == ""
    assert err == f"error: triangle size must be a positive integer, got {n}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["render", "--benzel", ""],
        ["render", "--region", ""],
        ["render", "--tiling", ""],
        ["render", "--triangle", "3", "--word", ""],
        ["shadow", "--benzel", ""],
        ["shadow", "--word", ""],
        ["tile", "count", "--tiles", "bones", "--benzel", ""],
        ["tile", "count", "--tiles", "bones", "--region", ""],
        ["tile", "construct", "--k", "2", "-o", ""],
        ["render", "--triangle", "3", "-o", ""],
    ],
)
def test_empty_option_value_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("unit", ["nan", "inf", "-inf", "0", "-5", "1e308"])
def test_render_unit_must_be_positive_and_finite(capsys, unit):
    code, out, err = run(capsys, "render", "--triangle", "3", f"--unit={unit}")
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["--region", "far.json"],
        ["--region", "far.json", "--no-cells", "--boundary"],
        ["--benzel", "5,7", "--word", "far.txt"],
    ],
)
def test_render_coordinates_beyond_the_float_range(capsys, monkeypatch, tmp_path, argv):
    # region_from_json takes a class -1 cell with ints of any size, and a
    # word file any base; neither fits in a float.
    (tmp_path / "far.json").write_text(json.dumps({"cells": [[3 * 10**400 - 1, 0]]}))
    (tmp_path / "far.txt").write_text(f"base={3 * 10**400},2 b a' c b' a c'\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "render", *argv)
    assert code == 2 and out == ""
    assert err == "error: a coordinate of the drawing is beyond the float range\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--benzel", "3,3", "--unit", "1e308"],
         "unit 1e+308 is too large: the drawing overflows the float range"),
        *[
            (argv, "a coordinate of the drawing is beyond the float range")
            for argv in (
                ["--region", "far.json"],
                ["--region", "far.json", "--no-cells", "--boundary"],
                ["--benzel", "5,7", "--word", "far.txt"],
            )
        ],
    ],
)
def test_render_error_leaves_the_output_file_alone(capsys, monkeypatch, tmp_path, argv, message):
    # Every render error is raised before the output file is opened, so a
    # missing file is not created and an existing one is not truncated.
    (tmp_path / "far.json").write_text(json.dumps({"cells": [[3 * 10**400 - 1, 0]]}))
    (tmp_path / "far.txt").write_text(f"base={3 * 10**400},2 b a' c b' a c'\n")
    monkeypatch.chdir(tmp_path)
    out_file = tmp_path / "out.svg"
    assert run(capsys, "render", *argv, "-o", str(out_file)) == (2, "", f"error: {message}\n")
    assert not out_file.exists()
    out_file.write_bytes(b"<svg>kept</svg>\n")
    assert run(capsys, "render", *argv, "-o", str(out_file)) == (2, "", f"error: {message}\n")
    assert out_file.read_bytes() == b"<svg>kept</svg>\n"


@pytest.mark.parametrize("command", ["count", "freq"])
def test_negative_memo_limit(capsys, command):
    code, out, err = _tile_on_a_fresh_region(capsys, command, "--memo-limit-mb=-1")
    assert code == 2 and out == ""
    assert err == "error: memo_limit_mb must be finite and 0 or more, got -1.0\n"


@pytest.mark.parametrize("command", ["count", "freq", "enumerate"])
def test_negative_memo_limit_env(capsys, monkeypatch, command):
    monkeypatch.setenv("TRIBONE_MEMO_LIMIT_MB", "-1")
    code, out, err = _tile_on_a_fresh_region(capsys, command)
    assert code == 2 and out == ""
    assert err == "error: TRIBONE_MEMO_LIMIT_MB must be finite and 0 or more, got '-1'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["tile", "count", "--region", "t4.json", "--tiles", "bones"],
        ["tile", "enumerate", "--benzel", "3,3", "--tiles", "bones", "--limit", "0"],
    ],
)
def test_bad_memo_limit_env_whatever_the_region(capsys, monkeypatch, tmp_path, argv):
    # T4 has 10 cells, so no tiling, and limit 0 asks for none; the cap is
    # judged first all the same.
    (tmp_path / "t4.json").write_text(json.dumps(region_to_json(triangle(4))))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("TRIBONE_MEMO_LIMIT_MB", "nan")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: TRIBONE_MEMO_LIMIT_MB must be finite and 0 or more, got 'nan'\n"


@pytest.mark.parametrize("value", ["0", "-0"])
def test_zero_memo_limit_is_a_cap(capsys, value):
    code, out, err = _tile_on_a_fresh_region(capsys, "count", f"--memo-limit-mb={value}")
    assert code == 3
    assert out.strip() == "resource-limit"
    assert "over the cap of 0 MB" in err


@pytest.fixture(params=[True, False], ids=["gc on", "gc off"])
def collector(request):
    """The cyclic collector switched on or off for the test, then put back."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["benzel", "--a", "5", "--b", "7", "--area"], 0),
        (["tile", "count", "--benzel", "2,5", "--tiles", "bones"], 2),
        (["tile", "count", "--benzel", "5,7", "--tiles", "bones", "--memo-limit-mb", "0.001"], 3),
    ],
    ids=["exit 0", "exit 2", "exit 3"],
)
def test_main_leaves_the_collector_as_it_found_it(capsys, collector, argv, code):
    assert main(argv) == code
    assert gc.isenabled() == collector


@pytest.mark.parametrize("argv", [["tile"], ["--help"]], ids=["usage error", "help"])
def test_argparse_exit_leaves_the_collector_as_it_found_it(capsys, collector, argv):
    with pytest.raises(SystemExit):
        main(argv)
    assert gc.isenabled() == collector


def test_escaping_exception_leaves_the_collector_as_it_found_it(monkeypatch, collector):
    def fail(args):
        assert not gc.isenabled()  # the command runs with the collector paused
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "benzel", fail)
    with pytest.raises(RuntimeError, match="boom"):
        main(["benzel", "--a", "5", "--b", "7", "--area"])
    assert gc.isenabled() == collector


@pytest.mark.parametrize("collector", [True], indirect=True, ids=["gc on"])
def test_tile_construct_sets_off_no_collection(tmp_path, collector):
    starts = []

    def note(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(note)
    try:
        assert main(["tile", "construct", "--k", "12", "-o", str(tmp_path / "t.json")]) == 0
    finally:
        gc.callbacks.remove(note)
    assert starts == []


@pytest.mark.parametrize("collector", [False], indirect=True, ids=["gc off"])
def test_tile_construct_leaves_no_cycles_that_grow_with_k(tmp_path, collector):
    # Only argparse's parser is cyclic garbage, the same at every k, so the
    # paused collector holds back no memory that grows with the tiling.
    # The collector stays off so that no automatic collection takes garbage
    # before it is counted.
    found = []
    for k in ("3", "12"):
        gc.collect()
        assert main(["tile", "construct", "--k", k, "-o", str(tmp_path / "t.json")]) == 0
        found.append(gc.collect())
    assert found[0] == found[1] > 0
