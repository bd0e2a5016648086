"""Smoke test of the benchmark itself, at reduced size.

    python3 perfbench/smoke.py

Runs every workload with ``--scale smoke``, untraced and traced, from the
repository root, and checks that no job fails, that ``failed_frac`` is
printed as 0, and that the metrics printed are exactly those that
``BENCHMARK.json`` names, each with its unit.  Exits non-zero on the
first problem.  Takes a few seconds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def check(workload: str, trace: int, declared: dict) -> None:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        raise SystemExit(f"{where}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise SystemExit(f"{where}: {result['failed']} of {result['attempted']} jobs failed")
    if not any(line.split()[:2] == ["failed_frac", "0"] for line in lines):
        raise SystemExit(f"{where}: failed_frac 0 not printed")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        raise SystemExit(f"{where}: metrics {got}, BENCHMARK.json declares {declared}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise SystemExit(f"{where}: {name} = {m['value']!r}")
        if not any(line.split()[:1] == [name] and line.split()[-1] == m["unit"] for line in lines):
            raise SystemExit(f"{where}: {name} not printed with its unit")
    print(f"ok {where}: {result['attempted']} jobs, {len(got)} metrics")


def main() -> int:
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = {t: {m["name"]: m["unit"] for m in bench[key]}
                for t, key in ((0, "end_to_end"), (1, "per_layer"))}
    for w in bench["workloads"]:
        for trace in (0, 1):
            check(w["name"], trace, declared[trace])
    return 0


if __name__ == "__main__":
    sys.exit(main())
