"""Run one workload of the compscore benchmark and print its metrics.

    python3 perfbench/run.py --workload fit-wide --seed 1 --seconds 20 --trace 0

The package is imported from src/ of the checkout this file sits in.
Each run starts SETUP_RUNS fresh worker processes one after another. The
last of them also runs the ops. Set-up time is the median of their
start-to-ready wall times, scaled as in speed.py by the same factor as
the run's op times, from the kernel timed between the ops. BLAS runs on
one thread in every worker.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones. Each metric is printed on its own line with its
unit, and the last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_RUNS = 5
DEADLINE_S = 170.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_workers(args, deadline):
    """Start the workers in turn; returns (set-up time, last worker's result)."""
    runs = SETUP_RUNS if args.trace == 0 else 1
    walls = []
    result = None
    for i in range(runs):
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", os.path.join(WORK, f"run-{os.getpid()}", str(i)),
        ]
        if i < runs - 1:
            cmd.append("--probe")
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
        try:
            if proc.stdout.readline().strip() != "READY":
                proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
                fail(f"worker for {args.workload} exited during set-up (code {proc.returncode})")
            walls.append(time.perf_counter() - start)
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            fail(f"worker for {args.workload} ran past the {DEADLINE_S:.0f} s deadline")
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0:
            fail(f"worker for {args.workload} exited with code {proc.returncode}")
        if i == runs - 1:
            lines = out.strip().splitlines()
            if not lines:
                fail(f"worker for {args.workload} printed no result")
            result = json.loads(lines[-1])
    result["extra"]["wall_setup_s"] = [statistics.median(walls), "s"]
    return result["scale"] * statistics.median(walls), result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "compscore", "__init__.py")):
        fail(f"no compscore package under {SRC}; run from a full checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    try:
        setup_s, result = run_workers(args, deadline)
    finally:
        shutil.rmtree(os.path.join(WORK, f"run-{os.getpid()}"), ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    if os.path.realpath(result["compscore"]) != os.path.realpath(os.path.join(SRC, "compscore")):
        fail(f"imported compscore from {result['compscore']}, not from {SRC}")
    measured = dict(result["metrics"])
    if not args.trace:
        measured["setup_s"] = setup_s

    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            fail(f"the worker did not measure {m['name']}")
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for key, value in sorted(result["environment"].items()):
        print(f"  env {key} = {value}")
    print(
        f"  ops attempted {attempted}, failed {failed}, incorrect {result['incorrect']}, "
        f"fail_ratio {failed / attempted:.4g}"
    )
    for key, (value, unit) in sorted(result["extra"].items()):
        print(f"  {key} {value:.6g} {unit}")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["incorrect"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
