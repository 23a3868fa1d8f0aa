"""Repeat run.py over seeds, summarise, and check steadiness.

    python3 perfbench/sweep.py --seeds 10 --sets 2 --traced 1 --out sweep.json

For every workload of BENCHMARK.json this makes --sets sets of --seeds
untraced runs, each with its own seed, then --traced traced runs. It
prints each end-to-end metric's median and spread per set, where the
spread is the distance between the first and third quartile as a share
of the median, and each per-layer metric's median over the traced runs.

Every run is as long as run_seconds of BENCHMARK.json. The spreads of
the raw wall times (wall_op_s_p50, wall_setup_s) are printed beside
those of the scaled ones, to show what the scaling of speed.py does.

The steadiness check is the one a change is judged by: in every set each
spread stays within the metric's bound, and for every metric the median
of each later set is no worse than the first set's by more than the
bound. Spreads above a third of the bound are reported as warnings, and
seeds on which ops failed are listed. The exit code is 1 when the check
fails or any run is incorrect. With --seeds 1 --sets 1 --traced 1 this
is one command that prints every metric of all workloads.
"""

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds, trace):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py failed on {workload} seed {seed} trace {trace}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # the lines above the result: "  env key = value" and "  name value unit"
    result["printed"] = [line.strip() for line in lines[1:-1]]
    return result


def cpu_model():
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def per_set_summary(values_per_set):
    return [
        {"median": statistics.median(v), "spread": spread(v) if len(v) > 1 else 0.0}
        for v in values_per_set
    ]


def worse_by(metric, first, later):
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def _printed(result, suffix):
    """{name: value} from the "  name value unit" lines run.py printed."""
    out = {}
    for line in result["printed"]:
        parts = line.split()
        if len(parts) == 3 and parts[2] == suffix and not line.startswith("env"):
            out[parts[0]] = float(parts[1])
    return out


def check(bench, runs):
    """Print medians and spreads; returns (failures, summary)."""
    failures, warnings, summary = [], [], {}
    for name, group in runs.items():
        summary[name] = {"end_to_end": {}, "per_layer": {}, "span_seconds": {}}
        all_runs = group["traced"] + [r for runs_of_set in group["sets"] for r in runs_of_set]
        bad = [r["seed"] for r in all_runs if not r["correct"]]
        if bad:
            failures.append(f"{name}: incorrect output on seeds {bad}")
        failed = [r["seed"] for r in all_runs if r["failed"]]
        if failed:
            warnings.append(f"{name}: failed ops on seeds {failed}")
            summary[name]["seeds_with_failed_ops"] = failed
        print(f"\n{name}")
        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            per_set = per_set_summary([r["metrics"][key]["value"] for r in s] for s in group["sets"])
            summary[name]["end_to_end"][key] = {"unit": metric["unit"], "sets": per_set}
            print(f"  {key:<14} " + "  ".join(
                f"median {g['median']:.5g} {metric['unit']} spread {g['spread']:.3f}"
                for g in per_set) + f"  (bound {bound})")
            for i, g in enumerate(per_set):
                if g["spread"] > bound:
                    failures.append(f"{name} {key}: set {i + 1} spread {g['spread']:.3f} > bound {bound}")
                elif g["spread"] > bound / 3:
                    warnings.append(f"{name} {key}: set {i + 1} spread {g['spread']:.3f} > bound/3")
                if i and worse_by(metric, per_set[0]["median"], g["median"]) > bound:
                    failures.append(f"{name} {key}: set {i + 1} median worse than set 1 by more than {bound}")
        for key in ("wall_op_s_p50", "wall_setup_s"):
            per_set = per_set_summary([_printed(r, "s")[key] for r in s] for s in group["sets"])
            summary[name][key] = {"unit": "s", "sets": per_set}
            print(f"  {key:<14} " + "  ".join(
                f"median {g['median']:.5g} s spread {g['spread']:.3f}" for g in per_set) + "  (unscaled)")
        if not group["traced"]:
            continue
        for metric in bench["per_layer"]:
            med = statistics.median(r["metrics"][metric["name"]]["value"] for r in group["traced"])
            summary[name]["per_layer"][metric["name"]] = {"unit": metric["unit"], "median": med}
            print(f"  {metric['name']:<46} {med:.5g} {metric['unit']}")
        span_s = [_printed(r, "s") for r in group["traced"]]
        for key in sorted(span_s[0]):
            med = statistics.median(s[key] for s in span_s)
            summary[name]["span_seconds"][key] = med
            print(f"  {key:<46} {med:.5g} s")
    for line in warnings:
        print(f"warning: {line}")
    for line in failures:
        print(f"FAIL: {line}")
    return failures, summary


def record(bench, seconds, runs, summary):
    """The JSON document --out writes: summary plus each run's values."""
    def compact(r):
        return {
            "seed": r["seed"],
            "attempted": r["attempted"],
            "failed": r["failed"],
            "correct": r["correct"],
            "metrics": {k: v["value"] for k, v in r["metrics"].items()},
            "wall": {k: v for k, v in _printed(r, "s").items() if k.startswith("wall_")},
        }

    first = next(iter(runs.values()))["sets"][0][0]
    env = dict(line[4:].split(" = ", 1) for line in first["printed"] if line.startswith("env "))
    env["cpu_model"] = cpu_model()
    return {
        "seconds": seconds,
        "environment": env,
        "summary": summary,
        "runs": {
            name: {
                "sets": [[compact(r) for r in s] for s in group["sets"]],
                "traced": [compact(r) for r in group["traced"]],
            }
            for name, group in runs.items()
        },
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="untraced runs per set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--traced", type=int, default=1, help="traced runs per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", help="default: all of BENCHMARK.json")
    parser.add_argument("--out", help="write every run and the summary to this JSON file")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = args.workloads or [w["name"] for w in bench["workloads"]]

    runs = {name: {"sets": [[] for _ in range(args.sets)], "traced": []} for name in names}
    seed = args.first_seed
    for s in range(args.sets):
        for _ in range(args.seeds):
            for name in names:
                result = one_run(name, seed, seconds, 0)
                result["seed"] = seed
                runs[name]["sets"][s].append(result)
                print(f"set {s + 1} {name} seed {seed}: "
                      + ", ".join(f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()),
                      flush=True)
            seed += 1
    for name in names:
        for _ in range(args.traced):
            result = one_run(name, seed, seconds, 1)
            result["seed"] = seed
            runs[name]["traced"].append(result)
            seed += 1

    failures, summary = check(bench, runs)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record(bench, seconds, runs, summary), fh, indent=1)
            fh.write("\n")
    print("steady" if not failures else "not steady")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
