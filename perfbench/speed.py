"""Machine-speed calibration for the end-to-end times.

The shared two-core VM this benchmark was tuned on changes speed by 20-30%
over minutes: one seed of ``marginals`` took anywhere from 5.1 to 8.1 s,
and the medians of two ten-run sets of ``construct`` differed by 22%.
Repeats inside one run cannot average that out, so the benchmark reports
end-to-end times in reference seconds: raw seconds x ``REF_KERNEL_S`` /
(time of ``kernel()`` measured right before and after the work).  The
kernel is plain Python that does not touch trihex, so a change to trihex
moves reference seconds exactly as it moves raw seconds.  Raw seconds are
printed and recorded too.

Changing ``kernel`` or ``REF_KERNEL_S`` rescales every reported time.
"""

import time

# Median time of one kernel() call on the VM above (Python 3.11), so that
# a reference second is about one of its seconds.
REF_KERNEL_S = 0.028


def kernel() -> int:
    d = {}
    for i in range(40000):
        k = (i & 1023, i >> 3)
        d[k] = d.get(k, 0) + (i ^ (i >> 2))
    s = 0
    for j in range(120000):
        s += j
    return s


def kernel_s() -> float:
    """Seconds a kernel() call takes now: the median of three, so that one
    interrupted call does not skew the scale."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    return sorted(times)[1]
