"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/measure.py --out perfbench/results/baseline.json \
        --seeds 0-9 [--workloads table2_cold,lint_tree] [--trace 1]

For every workload and metric it records the values, their median and
the spread the acceptance rule uses: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) over the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def parse_seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload, seed, seconds, trace=0, inject=""):
    """One benchmark run; returns (result JSON, report JSON)."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if inject:
        command += ["--inject", inject]
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, check=True, timeout=180)
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[0])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def summarize(runs):
    """``{metric: {values, median, spread}}`` over a list of results."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        out[name] = {"values": values,
                     "median": statistics.median(values),
                     "spread": spread(values) if len(values) > 1 else 0.0}
    return out


def measure(workloads, seeds, seconds, trace=0, inject="", log=sys.stderr):
    results = {}
    for workload in workloads:
        runs, reports = [], []
        for seed in seeds:
            result, report = run_once(workload, seed, seconds, trace, inject)
            runs.append(result)
            reports.append({"seed": seed, "correct": result["correct"],
                            "attempted": result["attempted"],
                            "failed": result["failed"],
                            "setup_samples_s": report["setup_samples_s"],
                            "detail": report["detail"]})
            print(workload, seed, json.dumps(
                {k: round(v["value"], 4) for k, v in result["metrics"].items()}),
                file=log, flush=True)
        results[workload] = {
            "workload_id": report["workload_id"],
            "machine": report["machine"],
            "metrics": summarize(runs),
            "runs": reports,
        }
    return results


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--inject", default="")
    args = parser.parse_args()
    bench = load_benchmark()
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in bench["workloads"]])
    results = measure(workloads, parse_seeds(args.seeds),
                      bench["run_seconds"], args.trace, args.inject)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump({"seeds": args.seeds, "trace": args.trace,
                   "inject": args.inject, "workloads": results}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload, data in results.items():
        for name, stats in data["metrics"].items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if stats["spread"] <= bound / 3 else (
                    "WIDE" if stats["spread"] > bound else "over-third")
            print("%-20s %-28s median %12.5g spread %.4f %s"
                  % (workload, name, stats["median"], stats["spread"], flag))


if __name__ == "__main__":
    main()
