"""The trihex benchmark: three exact-result workloads, stdlib only.

    python3 perfbench/run.py --workload {count,marginals,construct} \\
        --seed N --seconds S --trace {0,1} [--scale {full,smoke}]

Run it from the repository root.  Each pass of a workload runs in a fresh
single-threaded process (``perfbench/worker.py``), so ``ru_maxrss`` and
the process-wide recursion limit never carry over between passes.  Passes
run one after another, never in parallel, until the next one would end
after ``--seconds``; at least one always runs.

Workloads (see ``workloads.py`` for the job lists and expected values):

* ``count``: ``count_tilings`` on four regions, each in its three 120
  degree rotations, plus ``tile count`` and ``scan --search`` through the
  CLI.  The memoized counting engine does almost all the work and sets
  peak memory.
* ``marginals``: every ``placement_frequency`` of a small benzel, a full
  enumeration checked tiling by tiling with ``stone_balance``, and a
  prefix of the (12,15) bone tilings with ``orientation_histogram``.  The
  same engine, used as hundreds of small counts, plus the backtracker and
  per-tiling validation.
* ``construct``: the pentagonal construction at k = 12, two renders, the
  invariant and a scan, all through ``trihex.cli.main``.  Geometry and
  rendering; no counting.

With ``--trace 0`` the last line reports the end-to-end metrics:
``setup_s`` (fresh interpreter to ``import trihex`` done and the seeded
job list built, median over several processes), ``wall_s`` (the job
list, untraced; median over passes) and ``peak_rss_mb`` (``ru_maxrss``
of a pass; median).  The two times are in reference seconds, rescaled by
a calibration kernel measured next to the work (see ``speed.py``); the
raw seconds are printed as ``raw_setup_s`` and ``raw_wall_s``.  Failed
jobs, a wrong exact value or any exception, are counted in ``failed`` of
``attempted``; their ratio is printed as ``failed_frac``.

With ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics of ``tracer.py`` (raw seconds of the traced pass)
plus ``trace.overhead_frac`` (traced ``wall_s`` / untraced ``wall_s`` - 1).  The traced pass also
prints this machine's numbers next to the ROADMAP reference numbers in
``reference.json``.

Every run writes its metrics together with machine info, Python version,
git revision, a digest of ``src/trihex`` and the seed to
``.perfbench_out/``; traced runs write their spans there too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracer import LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = ".perfbench_out"
WORKLOADS = ("count", "marginals", "construct")
SETUP_ONLY_PROCESSES = 3
# Every worker must have ended this long after the run started.
DEADLINE_S = 170

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    # An inherited memo cap would turn the counts into ResourceLimit.
    env.pop("TRIBONE_MEMO_LIMIT_MB", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _pass(mode: str, args, index: int, started: float) -> dict:
    """Start one worker process, wait for it and return its report."""
    tag = f"{args.workload}-{args.scale}-seed{args.seed}-{os.getpid()}-{index}"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, args.workload,
           str(args.seed), args.scale, os.path.join(OUT, "tmp-" + tag)]
    if mode == "traced":
        cmd.append(os.path.join(OUT, f"spans-{args.workload}-{args.scale}-seed{args.seed}.json"))
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=_child_env(),
                          timeout=max(1.0, started + DEADLINE_S - t0), text=True)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["raw_setup_s"] = report["ready"] - t0
    report["setup_s"] = report["raw_setup_s"] * report["setup_scale"]
    report["elapsed_s"] = elapsed
    return report


def _passes(args, started: float) -> list:
    """Passes in order, until the next would end after --seconds."""
    modes = ["plain", "traced"] if args.trace else ["plain"]
    start = time.monotonic()
    reports = []
    while True:
        group = [_pass(m, args, 2 * len(reports) + i, started) for i, m in enumerate(modes)]
        reports.append(group)
        used = time.monotonic() - start
        if used + sum(r["elapsed_s"] for r in group) > args.seconds:
            return reports


def _git_revision() -> str:
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join("src", "trihex")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()


def _machine() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "memory_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "python": platform.python_version(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> dict:
    started = time.monotonic()
    if not os.path.isfile(os.path.join("src", "trihex", "__init__.py")):
        raise BenchError("src/trihex not found; run from the repository root")
    os.makedirs(OUT, exist_ok=True)
    setups = []
    if not args.trace:
        setups = [_pass("setup", args, -1 - i, started) for i in range(SETUP_ONLY_PROCESSES)]
    groups = _passes(args, started)
    plain = [g[0] for g in groups]
    reports = [r for g in groups for r in g]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    wall = statistics.median(r["wall_ref_s"] for r in plain)
    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace, "passes": len(groups),
        "git_revision": _git_revision(), "src_sha256": _source_digest(),
        "machine": _machine(), "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "failures": [f for r in reports for f in r["failures"]],
        "jobs": plain[0]["jobs"],
        "raw_wall_s": statistics.median(r["wall_s"] for r in plain),
        "wall_s_each": [r["wall_ref_s"] for r in plain],
        "raw_wall_s_each": [r["wall_s"] for r in plain],
        "job_s_each": [dict(zip(r["jobs"], r["job_s"])) for r in plain],
    }
    if args.trace:
        traced = [g[1] for g in groups]
        layers = {}
        for name, unit in LAYER_UNITS.items():
            if name == "trace.overhead_frac":
                value = statistics.median(r["wall_ref_s"] for r in traced) / wall - 1
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            layers[name] = _metric(value, unit)
        record["metrics"] = layers
        record["reference"] = traced[0]["reference"]
        record["self_by_span"] = traced[0]["self_by_span"]
    else:
        setups += plain
        record["setup_s_each"] = [r["setup_s"] for r in setups]
        record["raw_setup_s"] = statistics.median(r["raw_setup_s"] for r in setups)
        values = {
            "setup_s": statistics.median(record["setup_s_each"]),
            "wall_s": wall,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        }
        record["metrics"] = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
    path = os.path.join(OUT, f"result-{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    return record


def _print_report(record: dict) -> None:
    m = record["machine"]
    print(f"# trihex benchmark: workload={record['workload']} seed={record['seed']} "
          f"scale={record['scale']} trace={record['trace']} passes={record['passes']}")
    print(f"# git {record['git_revision']}  src {record['src_sha256'][:16]}  "
          f"python {m['python']}  {m['platform']}  cpus={m['cpus']}  mem={m['memory_gb']} GB")
    for name, metric in record["metrics"].items():
        print(f"{name:34s} {metric['value']:>14.6g} {metric['unit']}")
    for name in ("raw_setup_s", "raw_wall_s"):
        if name in record and not record["trace"]:
            print(f"{name:34s} {record[name]:>14.6g} s (raw, not rescaled)")
    print(f"{'failed_frac':34s} {record['failed_frac']:>14.6g} frac "
          f"({record['failed']} of {record['attempted']} jobs)")
    for failure in sorted(set(record["failures"])):
        print(f"# FAILED {failure}")
    for row in record.get("reference", []):
        print(f"# reference {row['what']:34s} ROADMAP {row['roadmap_s']:8.3f} s   "
              f"here {row['here_s']:8.3f} s  ({row['spans']} spans)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: reduced sizes, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    try:
        record = run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        print(f"benchmark failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    _print_report(record)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
