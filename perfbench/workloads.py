"""Seeded job lists for the three workloads, and the exact-result oracle.

A job calls into trihex, either the library or ``trihex.cli.main``
in-process, and checks what it gets against an exact value in ``SIZES``.
A wrong value raises ``Mismatch``; the worker counts that, or any other
exception, as a failed job.

The seed chooses the job order and a class-preserving translation of
every generated region (x + y = 0 mod 3, so cell centres keep class -1).
Neither changes any expected value, so the oracle does not depend on the
seed, except for the SVG of the translated copy that ``construct``
renders, whose hash is tabulated per translation.

Every benzel is symmetric under the 120 degree rotation about the origin,
so its three rotations in ``count``, and the seeded rotation in
``construct``, are the same cell set; the triangle's three differ.

Library functions are looked up on their module at call time
(``th.count_tilings``, ``cli.main``) so that the tracer's wrappers, which
rebind those names, see every call.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import trihex as th
import trihex.cli as cli

# Translations of the region that ``construct`` renders; its SVG hash is
# tabulated for each.
RENDER_TRANSLATIONS = ((0, 0), (5, -2), (-7, -14))

FREQ_CHUNKS = 5

# Exact expected values.  The (12,15) bone count 42705 is the paper's; the
# other counts are exact results of the current engine.  Digests pin the
# current byte-exact output, so output drift shows as a failure instead of
# a speed-up.
SIZES = {
    "full": {
        "count": (
            ("benzel", (12, 15), "bones", 42705),
            ("benzel", (12, 12), "stones+bones", 1649148053301),
            ("benzel", (11, 13), "stones+bones", 447570610457),
            ("triangle", 14, "stones+bones", 410382321560202),
        ),
        "count_cli": (
            (("tile", "count", "--benzel", "12,15", "--tiles", "bones"), "42705\n"),
            (("scan", "--max", "12", "--search"),
             "sha256:7cb5c5e568e5cebdf9b855d7865b8e703154921ec43cabd34fcea53f60806460"),
        ),
        # (benzel, its tiling count, its number of placements)
        "freq": ((9, 9), 3759277, 265),
        # (benzel, its tiling count, its invariant I)
        "enumerate": ((7, 7), 5766, -6),
        # (benzel, prefix length, summed orientation histogram of the prefix)
        "prefix": ((12, 15), 3000, (61137, 51243, 49620, 0, 0)),
        "k": 12,
        "scan_max": 30,
        "construct_json": "sha256:eb6c4adfe7763ad0171cfa1176d4c95d34d9d41fe1ea61d5864f252e8605f098",
        "tiling_svg": "sha256:b20688592506af52b66fb60e632e6eb08a85d5dcf3f06030ce99095bf9ed4ac4",
        # by index into RENDER_TRANSLATIONS
        "region_svg": (
            "sha256:88a9ad1c8696381135d7eb11632ca4ddfcd89f38edfbd032cfc08368d099ebe6",
            "sha256:6767001ca820ead412c2d02856628511729c2e1f2e2ae992b12f51bde7027856",
            "sha256:251e269b350305ce0c5f7dd85f0b6555f468bf3ef6b8afea2b055352733c74f8",
        ),
        "scan_out": "sha256:3ca3915c61c7a6804998b0deee5daf54cb0e255a37be48110d2ee77841e3858c",
    },
    "smoke": {
        "count": (
            ("benzel", (5, 7), "bones", 2),
            ("benzel", (3, 3), "stones+bones", 3),
            ("triangle", 5, "stones+bones", 30),
        ),
        "count_cli": (
            (("tile", "count", "--benzel", "5,7", "--tiles", "bones"), "2\n"),
            (("scan", "--max", "6", "--search"),
             "sha256:77d9b25123817fa74a17dc5b96410006d5d7b5facb6f401787be7d25fb186ccd"),
        ),
        "freq": ((4, 5), 18, 34),
        "enumerate": ((4, 4), 10, -3),
        "prefix": ((5, 7), 2, (6, 6, 6, 0, 0)),
        "k": 3,
        "scan_max": 8,
        "construct_json": "sha256:9ccc5f9e47307d62560cee2b070138e48fb4a855aa9cc237f0d0bec15c7c68eb",
        "tiling_svg": "sha256:6e37f51023a5886a4535d7190801233a7bc8bd4993808b90b622297efa5f2b34",
        "region_svg": (
            "sha256:9e4d9fa5c0114e3992e844c0e04cfdfa9d6fd3d56b9b45fa62363adb5f6094a4",
            "sha256:b7590009d746698b6f289e1c896208f10fa0c9ac2587380fd3535094c0f28823",
            "sha256:9e9b8d9d06176b45277e9c85dedf059d6e15468202813ca317d27c2ad4acd23a",
        ),
        "scan_out": "sha256:e6687f32396b3206986108ebe33b78fb2e0af7e0f899b37733848ad294568d03",
    },
}


class Mismatch(Exception):
    """A job returned something other than its exact expected value."""


@dataclass
class Job:
    name: str
    run: Callable[[], None]


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def _digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _check_text(what: str, got: str, expected: str) -> None:
    shown = _digest(got) if expected.startswith("sha256:") else got
    _check(shown == expected, f"{what}: got {shown!r}, expected {expected!r}")


def run_cli(argv: Sequence[str]) -> str:
    """Run the CLI in-process and return its stdout; a non-zero exit fails."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    _check(rc == 0, f"trihex {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def _translation(rng: random.Random, reach: int = 30) -> Tuple[int, int]:
    dx = rng.randint(-reach, reach)
    dy = 3 * rng.randint(-reach // 3, reach // 3) - dx
    return dx, dy


def _moved(region: th.Region, rotations: int, shift: Tuple[int, int]) -> th.Region:
    cells = region.cells
    for _ in range(rotations):
        cells = [th.rotate120(c) for c in cells]
    dx, dy = shift
    return th.Region(frozenset(th.LatticePoint(c.x + dx, c.y + dy) for c in cells))


def _tileset(name: str):
    return th.BONES if name == "bones" else th.STONES_AND_BONES


def _shape(kind: str, size) -> th.Region:
    return th.benzel(th.BenzelParams(*size)) if kind == "benzel" else th.triangle(size)


def _count_jobs(sz: dict, rng: random.Random) -> List[Job]:
    jobs = []
    for kind, size, tiles, expected in sz["count"]:
        label = f"{kind}({size[0]},{size[1]})" if kind == "benzel" else f"T({size})"
        base = _shape(kind, size)
        for rot in range(3):
            region = _moved(base, rot, _translation(rng))

            def run(region=region, tiles=tiles, expected=expected) -> None:
                got = th.count_tilings(region, _tileset(tiles))
                _check(got == expected, f"count {got}, expected {expected}")

            jobs.append(Job(f"count {label} {tiles} r{rot}", run))
    for argv, expected in sz["count_cli"]:
        def run(argv=argv, expected=expected) -> None:
            _check_text(" ".join(argv), run_cli(argv), expected)

        jobs.append(Job("cli " + " ".join(argv), run))
    return jobs


def _marginal_jobs(sz: dict, rng: random.Random) -> List[Job]:
    (fa, fb), f_count, f_places = sz["freq"]
    freq_region = _moved(th.benzel(th.BenzelParams(fa, fb)), 0, _translation(rng))
    order_seed = rng.randrange(2**32)

    # The sweep runs as FREQ_CHUNKS jobs, so that the machine-speed
    # calibration between jobs (see speed.py) samples it often enough.
    sums: List[int] = []

    def freq(chunk: int) -> None:
        ps = th.placements(freq_region, th.STONES_AND_BONES)
        _check(len(ps) == f_places, f"{len(ps)} placements, expected {f_places}")
        random.Random(order_seed).shuffle(ps)
        total = 0
        for p in ps[chunk::FREQ_CHUNKS]:
            f = th.placement_frequency(freq_region, th.STONES_AND_BONES, p)
            _check(0 <= f <= f_count, f"freq {f} outside [0, {f_count}]")
            total += f
        sums.append(total)
        if len(sums) == FREQ_CHUNKS:
            # Every tiling has n/3 tiles, so the frequencies sum to count * n/3.
            expected = f_count * len(freq_region) // 3
            _check(sum(sums) == expected, f"sum of freqs {sum(sums)}, expected {expected}")

    (ea, eb), e_count, e_inv = sz["enumerate"]
    enum_params = th.BenzelParams(ea, eb)
    enum_region = _moved(th.benzel(enum_params), 0, _translation(rng))

    def enumerate_balance() -> None:
        inv = th.cl_invariant_formula(enum_params).I
        _check(inv == e_inv, f"I = {inv}, expected {e_inv}")
        n = bad = 0
        for t in th.enumerate_tilings(enum_region, th.STONES_AND_BONES):
            n += 1
            bad += th.stone_balance(t) != inv
        _check(n == e_count, f"{n} tilings, expected {e_count}")
        _check(bad == 0, f"{bad} tilings with stone balance != I")

    (pa, pb), p_len, p_hist = sz["prefix"]
    prefix_region = _moved(th.benzel(th.BenzelParams(pa, pb)), 0, _translation(rng))

    def prefix() -> None:
        n, hist = 0, [0] * 5
        for t in th.enumerate_tilings(prefix_region, th.BONES, p_len):
            n += 1
            for i, v in enumerate(th.orientation_histogram(t)):
                hist[i] += v
        _check(n == p_len, f"{n} tilings, expected {p_len}")
        _check(tuple(hist) == p_hist, f"histogram {tuple(hist)}, expected {p_hist}")

    return [
        *(Job(f"freq benzel({fa},{fb}) stones+bones placements {i}::{FREQ_CHUNKS}",
              functools.partial(freq, i)) for i in range(FREQ_CHUNKS)),
        Job(f"enumerate benzel({ea},{eb}) stones+bones stone_balance", enumerate_balance),
        Job(f"prefix benzel({pa},{pb}) bones {p_len} orientation_histogram", prefix),
    ]


def _construct_jobs(sz: dict, rng: random.Random, tmp: str) -> List[Job]:
    k = sz["k"]
    params = th.pentagonal_benzel(k)
    rot = rng.randrange(3)
    shift_index = rng.randrange(len(RENDER_TRANSLATIONS))
    region = _moved(th.benzel(params), rot, RENDER_TRANSLATIONS[shift_index])
    region_file = os.path.join(tmp, "region.json")
    with open(region_file, "w") as f:
        json.dump(th.region_to_json(region), f)
    tiling_file = os.path.join(tmp, "tiling.json")
    tiling_svg = os.path.join(tmp, "tiling.svg")
    region_svg = os.path.join(tmp, "region.svg")
    third = len(region) // 9

    def construct() -> None:
        run_cli(["tile", "construct", "--k", str(k), "-o", tiling_file])
        with open(tiling_file) as f:
            text = f.read()
        _check_text("tiling JSON", text, sz["construct_json"])
        t = th.tiling_from_json(json.loads(text))
        _check(th.validate(t), "constructed tiling does not validate")
        hist = th.orientation_histogram(t)
        _check(hist == (third, third, third, 0, 0), f"histogram {hist} is not equal thirds")

    def render_tiling() -> None:
        run_cli(["render", "--tiling", tiling_file, "--boundary", "-o", tiling_svg])
        with open(tiling_svg) as f:
            _check_text("tiling SVG", f.read(), sz["tiling_svg"])

    def render_region() -> None:
        run_cli(["render", "--region", region_file, "--boundary", "--shadow", "-o", region_svg])
        with open(region_svg) as f:
            _check_text(f"region SVG t{shift_index}", f.read(), sz["region_svg"][shift_index])

    def invariant() -> None:
        out = run_cli(["benzel", "--a", str(params.a), "--b", str(params.b), "--invariant"])
        _check_text("invariant", out, "0\n")

    def scan() -> None:
        _check_text("scan", run_cli(["scan", "--max", str(sz["scan_max"])]), sz["scan_out"])

    return [
        Job(f"cli tile construct --k {k}", construct),
        Job("cli render --tiling --boundary", render_tiling),
        Job(f"cli render --region r{rot} t{shift_index} --boundary --shadow", render_region),
        Job(f"cli benzel --a {params.a} --b {params.b} --invariant", invariant),
        Job(f"cli scan --max {sz['scan_max']}", scan),
    ]


def build_jobs(workload: str, seed: int, scale: str, tmp: str) -> List[Job]:
    """The seeded job list of one workload.  Builds every input region and
    file; runs no job."""
    sz = SIZES[scale]
    rng = random.Random(seed)
    if workload == "count":
        jobs = _count_jobs(sz, rng)
    elif workload == "marginals":
        jobs = _marginal_jobs(sz, rng)
    else:
        jobs = _construct_jobs(sz, rng, tmp)
    rng.shuffle(jobs)
    if workload == "construct":
        # Rendering the tiling reads the file that constructing it writes.
        names = [j.name for j in jobs]
        i = names.index(f"cli tile construct --k {sz['k']}")
        j = names.index("cli render --tiling --boundary")
        if j < i:
            jobs[i], jobs[j] = jobs[j], jobs[i]
    return jobs
