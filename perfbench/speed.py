"""Scaling wall times to a reference machine speed.

The cores of a small shared machine change speed by up to 2x over tens
of seconds, as other tenants load them, so raw wall times of one commit
spread too widely between runs to compare two commits. A fixed
calibration kernel, which does not touch compscore, is timed in the same
process before the first and after every measured interval. The run's
wall times are multiplied by CAL_REF_S over the median kernel time of
the run: they become seconds on a machine where the kernel takes
CAL_REF_S. A change to the package moves the scaled times fully.

On the 2-core machine the baseline was recorded on, 20-second windows of
fit-counts op times spread by 0.26 (quartile distance over median) in a
busy period and by 0.03 to 0.05 in a quiet one; scaled by kernel times
taken between the ops, by 0.07 and 0.05. The kernel's data stay in cache,
so it tracks fit-wide, which streams gigabytes through memory, least: in
a quiet period its scaled op times spread no less than its wall times.
baseline.json records both spreads for every workload, and README.md
says where the scaling narrows them.
"""

import statistics
import time

import numpy as np

# The kernel's median time over the runs of the first baseline on the
# 2-core Intel Xeon of baseline.json (8.07 ms; per workload 7.6 to 9.6 ms).
# A run whose kernel takes this long reports its wall times unchanged.
CAL_REF_S = 0.008


def _kernel():
    # interpreter work, numpy element-wise passes, a small BLAS product and
    # gamma variates, the kinds of work the workloads mix
    table = {}
    for i in range(10000):
        table[(i, i % 7)] = i * 0.5
    total = sum(table.values())
    a = np.arange(100_000, dtype=float)
    for _ in range(5):
        a = np.sqrt(a * a + 1.0)
    m = np.ones((80, 80))
    g = np.random.default_rng(0).standard_gamma(1.5, size=40_000)
    return total + float((m @ m)[0, 0] + a[-1] + g[-1])


def calibrate(repeats=5):
    """Seconds the kernel takes now: the median of a few back-to-back runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(calibrations):
    """Factor from wall seconds to reference seconds for one run."""
    return CAL_REF_S / statistics.median(calibrations)
