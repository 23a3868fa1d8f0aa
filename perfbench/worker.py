"""One fresh process of one workload: set up, then time ops.

run.py starts this and measures set-up from outside: the time from
process start to the line READY, written once the package is imported
and the inputs are generated. With --probe the worker stops there.
Otherwise it runs one warm-up op, which is checked but not timed (lazy
caches such as index_map fill on the first call), and then times ops
for --seconds: it starts another op only while one of the median length
so far still ends within them. The last line of stdout is one JSON
object for run.py.

With --trace 1 untraced and traced ops alternate, so the tracing
overhead is measured against ops from the same process, and one more
op runs under tracemalloc for the peak-memory figures.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

import compscore
from compscore.errors import CompscoreError
import speed
import tracing
import workloads


def environment():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
    }


class Runner:
    """Runs ops and counts them.

    An op fails when it raises or when its output fails a check. It is
    incorrect when its output fails a check or when it raises anything but
    the package's own errors: a fit that stops with SingularSystemError
    has failed, but has given no wrong output.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.problems = []
        self.extra = {}
        speed.calibrate()  # first-call costs
        self.calibrations = [speed.calibrate()]

    def run(self, fn):
        """Time one op, check its output and calibrate after it.

        Returns (wall seconds, output).
        """
        gc.collect()
        self.attempted += 1
        start = time.perf_counter()
        elapsed = None
        raised = None
        try:
            out = fn()
            elapsed = time.perf_counter() - start
            problems = self.workload.check(out)
        except Exception as exc:
            out, problems, raised = None, [traceback.format_exc(limit=3)], exc
        if elapsed is None:
            elapsed = time.perf_counter() - start
        if problems:
            self.failed += 1
            if not isinstance(raised, CompscoreError):
                self.incorrect += 1
            self.problems.extend(problems)
        self.calibrations.append(speed.calibrate())
        return elapsed, out


def room_for_another(start, seconds, wall):
    """Whether one more op of the median length so far ends within seconds."""
    return not wall or time.perf_counter() - start + statistics.median(wall) <= seconds


def timed_ops(runner, seconds):
    w = runner.workload
    wall = []
    start = time.perf_counter()
    while room_for_another(start, seconds, wall):
        wall.append(runner.run(w.op)[0])
    scale = speed.scale(runner.calibrations)
    runner.extra["wall_op_s_p50"] = [statistics.median(wall), "s"]
    if hasattr(w, "replicates"):
        runner.extra["replicates_per_s"] = [w.replicates * len(wall) / (scale * sum(wall)), "1/s"]
    return {
        "op_s_p50": scale * statistics.median(wall),
        "rows_per_s": w.rows_per_op * len(wall) / (scale * sum(wall)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, wall


def traced_ops(runner, seconds):
    w = runner.workload
    plain, traced, pairs, per_op, per_op_s = [], [], [], [], []
    start = time.perf_counter()
    while room_for_another(start, seconds, pairs):
        pair_start = time.perf_counter()
        plain.append(runner.run(w.op)[0])
        tracer = tracing.Tracer()
        with tracer:
            elapsed, _ = runner.run(w.traced_op)
        traced.append(elapsed)
        pairs.append(time.perf_counter() - pair_start)
        metrics, span_s = tracing.layer_metrics(tracer, elapsed)
        metrics["study.fit_failures"] = w.fit_failures() if hasattr(w, "fit_failures") else 0
        per_op.append(metrics)
        per_op_s.append(span_s)
    metrics = tracing.median_metrics(per_op)
    runner.extra.update(
        (key, [value, "s"]) for key, value in tracing.median_metrics(per_op_s).items()
    )
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    coverage = metrics["trace.coverage_ratio"]
    if coverage < getattr(w, "min_coverage", 0.0):
        raise SystemExit(
            f"{w.name}: traced child spans cover {coverage:.3f} of the op, "
            f"below {w.min_coverage}; trace the calls that now take the time"
        )
    tracer = tracing.Tracer(memory=True)
    with tracer:
        runner.run(w.traced_op)
    metrics.update(tracing.memory_metrics(tracer))
    return metrics, plain + traced


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    parser.add_argument(
        "--record-reference", action="store_true",
        help="print the outputs that reference.json holds for this seed, untimed",
    )
    args = parser.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
        print("READY", flush=True)
        if args.probe:
            return 0
        if args.record_reference:
            print(json.dumps({args.workload: workload.reference(workload.op())}))
            return 0
        runner = Runner(workload)
        runner.run(workload.op)  # warm-up
        if args.trace:
            metrics, times = traced_ops(runner, args.seconds)
        else:
            metrics, times = timed_ops(runner, args.seconds)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    for problem in runner.problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "incorrect": runner.incorrect,
        "metrics": metrics,
        "op_times": times,
        "extra": runner.extra,
        "scale": speed.scale(runner.calibrations),
        "environment": environment(),
        "compscore": os.path.dirname(compscore.__file__),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
