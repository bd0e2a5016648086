"""One pass of one workload, in a fresh single-threaded process.

    python3 perfbench/worker.py MODE WORKLOAD SEED SCALE TMPDIR [SPANS_FILE]

MODE is ``setup`` (import and build the job list, then stop), ``plain``
(run the job list untraced) or ``traced`` (run it with spans on every
wrapped trihex function, then write the spans to SPANS_FILE).  Run from
the repository root; ``perfbench/run.py`` starts this script and reads
the one JSON line it prints.
"""

import gc
import json
import os
import resource
import shutil
import sys
import time
import traceback

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv) -> int:
    mode, workload, seed, scale, tmp = argv[:5]
    os.makedirs(tmp, exist_ok=True)
    try:
        return _run(mode, workload, int(seed), scale, tmp, argv[5:])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(mode, workload, seed, scale, tmp, rest) -> int:
    import trihex

    src = os.path.join(ROOT, "src", "trihex")
    if os.path.dirname(os.path.abspath(trihex.__file__)) != src:
        print(f"imported trihex from {trihex.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads
    from speed import REF_KERNEL_S, kernel_s
    from tracer import Tracer

    jobs = workloads.build_jobs(workload, seed, scale, tmp)
    ready = time.monotonic()
    kernel_before = kernel_s()
    result = {"ready": ready, "setup_scale": REF_KERNEL_S / kernel_before,
              "attempted": 0, "failed": 0, "failures": []}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = Tracer() if mode == "traced" else None
    if tracer is not None:
        tracer.install()
    gc.collect()
    job_s = []
    wall_ref = 0.0
    for i, job in enumerate(jobs):
        result["attempted"] += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                job.run()
            else:
                tracer.run_job(i, job.name, job.run)
        except (Exception, SystemExit) as e:
            result["failed"] += 1
            result["failures"].append(f"{job.name}: {type(e).__name__}: {e}")
            traceback.print_exc(file=sys.stderr)
        # Free each job's memory before the next, so that peak RSS is the
        # largest job's and not an artefact of the seeded job order.
        if tracer is None:
            gc.collect()
        else:
            tracer.collect()
        job_s.append(time.perf_counter() - t0)
        # Calibrate between jobs, outside the timed intervals.
        kernel_after = kernel_s()
        wall_ref += job_s[-1] * REF_KERNEL_S * 2 / (kernel_before + kernel_after)
        kernel_before = kernel_after
    wall = sum(job_s)
    result["wall_s"] = wall
    result["wall_ref_s"] = wall_ref
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["jobs"] = [j.name for j in jobs]
    result["job_s"] = job_s

    if tracer is not None:
        names = [j.name for j in jobs]
        tracer.dump(rest[0], names)
        result["layers"] = tracer.layer_metrics(wall)
        with open(os.path.join(HERE, "reference.json")) as f:
            reference = json.load(f)["roadmap"]
        result["reference"] = tracer.reference_rows(reference, names)
        result["self_by_span"] = tracer.self_by_span()
        result["layers"]["tilings.count_peak_alloc_mb"] = tracer.count_peak_alloc_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
