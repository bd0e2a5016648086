"""Command-line interface.

Commands: benzel, triangle, shadow, tile (construct|count|enumerate|freq),
scan, render.  Exit codes: 0 success, 2 input error, 3 resource limit.
Every command resolves --benzel/--triangle/--region/--tiling and reads
files through one path, so a bad value or file exits 2 under any command.
All numeric output is exact decimal.  `tile count` runs the forward
frontier sweep of trihex.tilings.count_tilings, and --memo-limit-mb caps
the estimated bytes of its live states; `tile freq` runs that sweep
keeping every state plus a backward pass, and the cap bounds all the
states it holds.  Hitting the cap prints "resource-limit" on stdout,
never a count of 0, and on stderr the cell the sweep reached, its states
and their estimated bytes; a bad cap, given here or in
TRIBONE_MEMO_LIMIT_MB, is an input error that the library reports.
A command runs with the cyclic garbage collector paused, and main puts
the collector back as it found it on return: the regions, tilings and
JSON documents a command builds hold no reference cycles, so reference
counting frees them, and the collections their many containers would set
off find nothing.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from .errors import FormatError, ResourceLimit, TrihexError
from .hexlattice import LatticePoint, signed_area
from .pentagonal import construct_tiling
from .regions import (
    BenzelParams,
    Region,
    benzel,
    boundary_word_closed_form,
    region_from_json,
    region_to_json,
    trace_boundary,
    triangle,
    word_from_text,
    word_to_text,
)
from .render import RenderSpec, _svg_chunks
from .shadow import (
    DEFAULT_SEED,
    area_formula,
    cl_invariant_formula,
    cl_invariant_path,
    is_pentagonal_pair,
    shadow_word,
)
from .tilings import (
    BONES,
    KIND_BY_NAME,
    STONES_AND_BONES,
    Placement,
    Tiling,
    count_tilings,
    placement_frequency,
    enumerate_tilings,
    tiling_from_json,
    tiling_to_json,
    _tiles_to_json,
)

_TILESETS = {"bones": BONES, "stones+bones": STONES_AND_BONES}

T = TypeVar("T")


def _parse_ints(text: str, what: str) -> Tuple[int, int]:
    """The two integers of 'a,b' text; what names them in the error."""
    try:
        a_str, b_str = text.split(",")
        return int(a_str), int(b_str)
    except ValueError:
        raise TrihexError(f"expected {what!r} integers, got {text!r}") from None


def _parse_placement(text: str) -> Placement:
    kind_str, sep, rest = text.partition(",")
    if not sep:
        raise TrihexError(f"expected 'KIND,X,Y', got {text!r}")
    kind = KIND_BY_NAME.get(kind_str)
    if kind is None:
        raise TrihexError(f"unknown tile kind {kind_str!r}")
    return Placement(kind, LatticePoint(*_parse_ints(rest, "x,y")))


def _read(path: str, parse: Callable[[str], T]) -> T:
    """parse of the text of the file at path (a text that is not UTF-8
    raises UnicodeDecodeError, which main reports as an input error)."""
    with open(path) as f:
        return parse(f.read())


def _write(path: Optional[str], chunks: Iterable[str]) -> None:
    """Write the text chunks, in order and as they come, to the file at
    path, or to stdout when there is none.  The file is opened only here,
    so a caller whose input is bad raises before it is created or
    truncated, provided the chunks themselves cannot fail."""
    if path is not None:
        with open(path, "w") as f:
            f.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _read_json(path: str, what: str) -> object:
    """The decoded JSON document in the file at path; what names it in the
    error.  Only the document outlives the call, so the text is freed
    before a region or tiling is built beside it."""
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise FormatError(f"bad {what} JSON: {e}") from None


def _resolve(
    args: argparse.Namespace,
) -> Tuple[Optional[Region], Optional[Tiling], Optional[BenzelParams]]:
    """The region, tiling and benzel parameters of whichever of --tiling,
    --region, --benzel and --triangle was given; None for the parts that
    option lacks."""
    region = tiling = params = None
    if getattr(args, "tiling", None) is not None:
        tiling = tiling_from_json(_read_json(args.tiling, "tiling"))
        region = tiling.region
    elif getattr(args, "region", None) is not None:
        region = region_from_json(_read_json(args.region, "region"))
    elif args.benzel is not None:
        params = BenzelParams(*_parse_ints(args.benzel, "a,b"))
        region = benzel(params)
    elif getattr(args, "triangle", None) is not None:
        region = triangle(args.triangle)
    return region, tiling, params


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload))
    else:
        print(text)


def _cmd_region(args: argparse.Namespace) -> int:
    """The benzel and triangle commands; a benzel's boundary word is its
    closed form, so that branch builds no region."""
    params = BenzelParams(args.a, args.b) if args.command == "benzel" else None
    if args.boundary_word:
        if params is None:
            word = trace_boundary(triangle(args.n))
        else:
            word = boundary_word_closed_form(params)
        _emit(args, {"word": word_to_text(word)}, word_to_text(word))
        return 0
    region = triangle(args.n) if params is None else benzel(params)
    if args.cells:
        print(json.dumps(region_to_json(region)))
    elif args.area:
        _emit(args, {"area": len(region)}, str(len(region)))
    else:
        inv = cl_invariant_path(region)
        payload = {"I": inv.I, "i": str(inv.i), "iIntegral": inv.i_integral}
        _emit(args, payload, str(inv.I))
    return 0


def _cmd_shadow(args: argparse.Namespace) -> int:
    if args.word is not None:
        word = _read(args.word, word_from_text)
    else:
        word = trace_boundary(_resolve(args)[0])
    seed = DEFAULT_SEED
    if args.seed is not None:
        # Both letters are checked, but only the first picks the shadow.
        if args.seed not in [f + s for f in "abc" for s in "abc" if f != s]:
            raise TrihexError(
                f"expected two distinct seed letters from abc, got {args.seed!r}"
            )
        seed = args.seed[0]
    base = word.basepoint
    if args.basepoint is not None:
        base = LatticePoint(*_parse_ints(args.basepoint, "x,y"))
    shadow = shadow_word(word, base, seed)
    area = signed_area(shadow)
    payload = {"shadow": word_to_text(shadow), "area": area}
    _emit(args, payload, f"{word_to_text(shadow)}\narea {area}")
    return 0


def _cmd_tile(args: argparse.Namespace) -> int:
    if args.tile_cmd == "construct":
        _write(args.output, (json.dumps(tiling_to_json(construct_tiling(args.k))), "\n"))
        return 0
    if getattr(args, "limit", None) is not None and args.limit < 0:
        raise TrihexError(f"--limit must be 0 or more, got {args.limit}")
    region = _resolve(args)[0]
    tileset = _TILESETS[args.tiles]
    if args.tile_cmd == "count":
        print(count_tilings(region, tileset, args.memo_limit_mb))
    elif args.tile_cmd == "enumerate":
        # Each line is json.dumps(tiling_to_json(t)); every line holds the
        # same region, so its text is encoded once.
        head = '{"region": ' + json.dumps(region_to_json(region)) + ', "tiles": '
        for t in enumerate_tilings(region, tileset, args.limit):
            print(head + json.dumps(_tiles_to_json(t)) + "}")
    else:  # freq
        p = _parse_placement(args.placement)
        print(placement_frequency(region, tileset, p, args.memo_limit_mb))
    return 0


def _scan_rows(args: argparse.Namespace) -> List[dict]:
    rows = []
    for a in range(2, args.max + 1):
        for b in range(2, args.max + 1):
            try:
                p = BenzelParams(a, b)
            except TrihexError:
                continue
            count = area_formula(p)
            k = is_pentagonal_pair(a, b)
            row = {
                "a": a,
                "b": b,
                "class": p.cls,
                "cellCount": count,
                "invariantI": cl_invariant_formula(p).I,
                "pentagonalK": k,
            }
            if args.search and count % 3 == 0 and count <= args.search_cap:
                row["boneTileable"] = count_tilings(benzel(p), BONES) > 0
            rows.append(row)
    return rows


def _cmd_scan(args: argparse.Namespace) -> int:
    if args.max < 2:  # the smallest benzel is (2, 2)
        raise TrihexError(f"--max must be 2 or more, got {args.max}")
    if args.search_cap < 0:
        raise TrihexError(f"--search-cap must be 0 or more, got {args.search_cap}")
    rows = _scan_rows(args)
    if args.json:
        print(json.dumps(rows))
        return 0
    cols = ["a", "b", "class", "cellCount", "invariantI", "pentagonalK"]
    if args.search:
        cols.append("boneTileable")
    widths = {c: max([len(c)] + [len(str(r.get(c, ""))) for r in rows]) for c in cols}
    print("  ".join(c.rjust(widths[c]) for c in cols))
    for r in rows:
        print(
            "  ".join(
                str(r.get(c, "") if r.get(c) is not None else "-").rjust(widths[c])
                for c in cols
            )
        )
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    if args.show_hexagon and args.benzel is None:
        raise TrihexError("--show-hexagon needs --benzel")
    spec = RenderSpec(unit=args.unit, show_cells=not args.no_cells)
    region, tiling, params = _resolve(args)
    boundary = shadow = None
    if args.word is not None:
        boundary = _read(args.word, word_from_text)
    elif args.boundary:
        boundary = trace_boundary(region)
    if args.shadow:
        source = boundary if boundary is not None else trace_boundary(region)
        shadow = shadow_word(source, source.basepoint)
    hexagon = params if args.show_hexagon else None
    _write(args.output, _svg_chunks(region, tiling, boundary, shadow, hexagon, spec))
    return 0


def _add_source(p: argparse.ArgumentParser, *names: str, **helps: str) -> None:
    """The required group of p's mutually exclusive input options, in the
    order named; --triangle takes an int, the others a string."""
    group = p.add_mutually_exclusive_group(required=True)
    for name in names:
        kind = int if name == "triangle" else None
        metavar = {"benzel": "A,B", "triangle": "N"}.get(name, "FILE")
        group.add_argument(f"--{name}", type=kind, metavar=metavar, help=helps.get(name))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trihex",
        description="Trihex (stone/bone) tilings of benzels on the hexagonal grid",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("benzel", "triangle"):
        p = sub.add_parser(name, help=f"inspect a {name}")
        if name == "benzel":
            p.add_argument("--a", type=int, required=True)
            p.add_argument("--b", type=int, required=True)
        else:
            p.add_argument("--n", type=int, required=True)
        sel = p.add_mutually_exclusive_group(required=True)
        sel.add_argument("--cells", action="store_true", help="print the region JSON")
        sel.add_argument(
            "--boundary-word", action="store_true", help="print the boundary word"
        )
        sel.add_argument("--area", action="store_true", help="print the cell count")
        sel.add_argument(
            "--invariant", action="store_true", help="print the invariant I"
        )
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("shadow", help="shadow a boundary word")
    _add_source(p, "benzel", "triangle", "word", word="word text file")
    p.add_argument("--basepoint", metavar="X,Y")
    p.add_argument(
        "--seed",
        metavar="LL",
        help="two distinct letters from abc; the first picks the shadow",
    )
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("tile", help="construct, count, or enumerate tilings")
    tile_sub = p.add_subparsers(dest="tile_cmd", required=True)
    pc = tile_sub.add_parser("construct", help="explicit bone tiling, pentagonal k")
    pc.add_argument("--k", type=int, required=True)
    pc.add_argument("-o", "--output", metavar="FILE")
    for name in ("count", "enumerate", "freq"):
        ps = tile_sub.add_parser(name)
        _add_source(
            ps, "benzel", "region", benzel="benzel parameters", region="region JSON file"
        )
        ps.add_argument(
            "--tiles", choices=sorted(_TILESETS), required=True, help="prototile set"
        )
        if name == "enumerate":
            ps.add_argument("--limit", type=int, default=None)
        else:
            ps.add_argument("--memo-limit-mb", type=float, default=None)
        if name == "freq":
            ps.add_argument(
                "--placement", metavar="KIND,X,Y", required=True,
                help="e.g. boneAB,-1,0",
            )

    p = sub.add_parser("scan", help="tabulate benzels up to a parameter bound")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--search", action="store_true", help="also search for bone tilings")
    p.add_argument(
        "--search-cap", type=int, default=400,
        help="skip the search above this many cells",
    )
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("render", help="write an SVG figure")
    _add_source(p, "tiling", "region", "benzel", "triangle")
    p.add_argument("--word", metavar="FILE", help="overlay a word from a file")
    p.add_argument("--boundary", action="store_true", help="overlay the traced boundary")
    p.add_argument("--shadow", action="store_true", help="overlay a shadow path")
    p.add_argument("--show-hexagon", action="store_true")
    p.add_argument("--no-cells", action="store_true")
    p.add_argument("--unit", type=float, default=20.0)
    p.add_argument("-o", "--output", metavar="FILE")
    return parser


_HANDLERS = {
    "benzel": _cmd_region,
    "triangle": _cmd_region,
    "shadow": _cmd_shadow,
    "tile": _cmd_tile,
    "scan": _cmd_scan,
    "render": _cmd_render,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv (sys.argv's when None), run its command and return the
    exit code, with the cyclic collector paused throughout."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(build_parser().parse_args(argv))
    finally:
        if was_enabled:
            gc.enable()


def _run(args: argparse.Namespace) -> int:
    try:
        return _HANDLERS[args.command](args)
    except ResourceLimit as e:
        print("resource-limit")
        print(f"resource-limit: {e}", file=sys.stderr)
        return 3
    except (TrihexError, OSError, UnicodeDecodeError) as e:
        if getattr(args, "json", False):
            print(json.dumps({"error": str(e)}))
        else:
            print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
