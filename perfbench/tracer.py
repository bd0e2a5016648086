"""Spans around calls into trihex, installed from the benchmark's own code.

``Tracer.install`` wraps the public functions in ``TARGETS`` and rebinds
each wrapper in every ``trihex`` module that holds the original (the
defining module, the package, and modules that imported the name, such
as ``trihex.cli``, ``trihex.shadow`` and ``trihex.pentagonal``).  Nothing
under ``src/`` is edited.

A span is ``[name, start, end, parent, job, tag]``.  Spans are kept in
memory and written out when the run ends.  A span's self time is its
duration minus the durations of its child spans.  ``enumerate_tilings``
is a generator, so it gets one span per tiling it yields (plus one for
the final, exhausting step).
"""

from __future__ import annotations

import functools
import gc
import json
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from typing import Dict, List

perf = time.perf_counter

TARGETS = {
    "tilings": (
        "count_tilings", "placement_frequency", "placements", "enumerate_tilings",
        "validate", "stone_balance", "orientation_histogram",
        "tiling_to_json", "tiling_from_json",
    ),
    "regions": ("benzel", "triangle", "trace_boundary", "region_to_json", "region_from_json"),
    "shadow": ("cl_invariant_path", "shadow_word", "cl_invariant_formula"),
    "hexlattice": ("winding_numbers", "signed_area"),
    "pentagonal": ("construct_tiling",),
    "render": ("render_svg",),
    "cli": ("main",),
}

# Span tags, used to match the ROADMAP reference numbers.
_TAGS = {
    "regions.benzel": lambda a, kw: f"{a[0].a},{a[0].b}",
    "regions.trace_boundary": lambda a, kw: str(len(a[0])),
    "tilings.count_tilings": lambda a, kw: str(len(a[0])),
    "pentagonal.construct_tiling": lambda a, kw: str(a[0]),
    "render.render_svg": lambda a, kw: (
        f"tiling:{len(kw['tiling'].region)}" if kw.get("tiling") is not None else "region"
    ),
}

# Per-layer time metrics: each is the summed self time of these spans.
SELF_TIME_METRICS = {
    "tilings.count_s": ("tilings.count_tilings",),
    "tilings.placements_s": ("tilings.placements",),
    "tilings.enumerate_s": ("tilings.enumerate_tilings",),
    "tilings.stats_s": ("tilings.validate", "tilings.stone_balance", "tilings.orientation_histogram"),
    "tilings.json_s": ("tilings.tiling_to_json", "tilings.tiling_from_json"),
    "regions.benzel_s": ("regions.benzel",),
    "regions.trace_boundary_s": ("regions.trace_boundary",),
    "shadow.cl_invariant_path_self_s": ("shadow.cl_invariant_path",),
    "shadow.shadow_word_s": ("shadow.shadow_word",),
    "hexlattice.winding_numbers_s": ("hexlattice.winding_numbers",),
    "hexlattice.signed_area_s": ("hexlattice.signed_area",),
    "pentagonal.construct_self_s": ("pentagonal.construct_tiling",),
    "render.render_svg_s": ("render.render_svg",),
    "cli.main_self_s": ("cli.main",),
}

# Every per-layer metric and its unit, in print order.
LAYER_UNITS = {
    "tilings.count_s": "s",
    "tilings.count_calls": "count",
    "tilings.count_peak_alloc_mb": "MB",
    "tilings.freq_ms_per_call": "ms",
    "tilings.freq_calls": "count",
    "tilings.placements_s": "s",
    "tilings.enumerate_s": "s",
    "tilings.enumerate_us_per_tiling": "us",
    "tilings.tilings_enumerated": "count",
    "tilings.stats_s": "s",
    "tilings.json_s": "s",
    "regions.benzel_s": "s",
    "regions.benzel_calls": "count",
    "regions.trace_boundary_s": "s",
    "shadow.cl_invariant_path_self_s": "s",
    "shadow.shadow_word_s": "s",
    "hexlattice.winding_numbers_s": "s",
    "hexlattice.signed_area_s": "s",
    "pentagonal.construct_self_s": "s",
    "render.render_svg_s": "s",
    "render.svg_bytes": "bytes",
    "cli.main_self_s": "s",
    "trace.other_self_s": "s",
    "trace.harness_self_s": "s",
    "trace.gc_s": "s",
    "trace.wall_s": "s",
    "trace.accounted_frac": "frac",
    "trace.overhead_frac": "frac",
}

JOB = "bench.job"
GC = "bench.gc"


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.job = -1
        self.yielded = 0
        self.svg_bytes = 0
        self.longest_count = (0.0, None)

    def _open(self, name: str, tag: str = "") -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf(), 0.0, parent, self.job, tag])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> float:
        self._stack.pop()
        span = self.spans[idx]
        span[2] = perf()
        return span[2] - span[1]

    def run_job(self, index: int, name: str, fn) -> None:
        """Run one job as a root span; its self time is harness time."""
        self.job = index
        idx = self._open(JOB, name)
        try:
            fn()
        finally:
            self._close(idx)

    def collect(self) -> None:
        """gc.collect() as a root span of its own."""
        idx = self._open(GC)
        try:
            gc.collect()
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        tag_of = _TAGS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name, tag_of(args, kwargs) if tag_of else "")
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self._close(idx)
            if name == "render.render_svg":
                self.svg_bytes += len(result)
            elif name == "tilings.count_tilings" and dur > self.longest_count[0]:
                self.longest_count = (dur, (fn, args, kwargs))
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(name, "")
                try:
                    item = next(it)
                except StopIteration:
                    self._close(idx)
                    return
                except BaseException:
                    self._close(idx)
                    raise
                self._close(idx)
                self.spans[idx][5] = "yield"
                self.yielded += 1
                yield item

        return wrapper

    def install(self) -> None:
        """Rebind every target in every trihex module that imported it."""
        mods = [m for n, m in list(sys.modules.items()) if n == "trihex" or n.startswith("trihex.")]
        for short, names in TARGETS.items():
            home = sys.modules["trihex." + short]
            for fname in names:
                original = getattr(home, fname)
                span_name = f"{short}.{fname}"
                if fname == "enumerate_tilings":
                    wrapped = self._wrap_generator(span_name, original)
                else:
                    wrapped = self._wrap(span_name, original)
                for mod in mods:
                    if getattr(mod, fname, None) is original:
                        setattr(mod, fname, wrapped)

    def count_peak_alloc_mb(self) -> float:
        """Re-run the longest count_tilings call under tracemalloc and
        return its peak traced allocation.  tracemalloc slows the counting
        engine about 14-fold, so it runs after the traced pass, once."""
        _dur, call = self.longest_count
        if call is None:
            return 0.0
        fn, args, kwargs = call
        gc.collect()
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def self_by_span(self) -> Dict[str, float]:
        """Summed self time per span name, largest first."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        out: Dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, own):
            out[s[0]] += t
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def layer_metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics of the traced pass (all but overhead_frac and
        count_peak_alloc_mb)."""
        by_name = defaultdict(float, self.self_by_span())
        calls: Dict[str, int] = defaultdict(int)
        for s in self.spans:
            calls[s[0]] += 1
        freq = "tilings.placement_frequency"
        freq_s = sum(s[2] - s[1] for s in self.spans if s[0] == freq)
        m = {metric: sum(by_name[n] for n in names) for metric, names in SELF_TIME_METRICS.items()}
        named = {n for names in SELF_TIME_METRICS.values() for n in names}
        m.update({
            "tilings.count_calls": calls["tilings.count_tilings"],
            "tilings.freq_calls": calls[freq],
            "tilings.freq_ms_per_call": 1e3 * freq_s / calls[freq] if calls[freq] else 0.0,
            "tilings.tilings_enumerated": self.yielded,
            "tilings.enumerate_us_per_tiling": (
                1e6 * by_name["tilings.enumerate_tilings"] / self.yielded if self.yielded else 0.0
            ),
            "regions.benzel_calls": calls["regions.benzel"],
            "render.svg_bytes": self.svg_bytes,
            "trace.other_self_s": sum(
                v for n, v in by_name.items() if n not in named and n not in (JOB, GC)
            ),
            "trace.harness_self_s": by_name[JOB],
            "trace.gc_s": by_name[GC],
            "trace.wall_s": wall_s,
        })
        seconds = [v for k, v in m.items() if k.endswith("_s") and k != "trace.wall_s"]
        m["trace.accounted_frac"] = sum(seconds) / wall_s
        return m

    def reference_rows(self, reference: List[dict], jobs: List[str]) -> List[dict]:
        """This run's value for each ROADMAP reference measurement that it
        covers: the median inclusive duration of the matching spans."""
        rows = []
        for ref in reference:
            durs = [
                s[2] - s[1] for s in self.spans
                if s[0] == ref["span"]
                and ("tag" not in ref or s[5] == ref["tag"])
                and ("job" not in ref or jobs[s[4]].startswith(ref["job"]))
            ]
            if durs:
                rows.append({"what": ref["what"], "roadmap_s": ref["roadmap_s"],
                             "here_s": statistics.median(durs), "spans": len(durs)})
        return rows

    def dump(self, path: str, jobs: List[str]) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "tag"],
                       "jobs": jobs, "spans": self.spans}, f)
