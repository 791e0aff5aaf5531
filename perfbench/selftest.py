"""Injected-slowdown self-test of the layer map.

    python3 perfbench/selftest.py --baseline perfbench/results/baseline.json \
        --out perfbench/results/selftest.json [--seeds 20-22]

For one public function per major layer it adds a fixed delay to every
call (``run.py --inject``), runs every workload, and compares each
end-to-end median with the baseline median:

* the predicted metric on the predicted workload must get worse by more
  than its bound;
* on workloads the layer map expects not to move, every metric except
  ``setup_s`` must stay within its bound.  ``setup_s`` is left out
  because a subprocess workload is started with the delay installed.

Workloads that also call the delayed function (``may_move``) are
reported but not judged.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from measure import load_benchmark, measure, parse_seeds  # noqa: E402

#: (--inject spec, layer, (workload, metric) that must move, workloads
#: that also call the function and may move).
INJECTIONS = (
    ("conv2d:0.002", "tensor", ("table2_cold", "wall_s"),
     ("table2_cold", "sampler_sweep_warm")),
    ("knn_query:0.05", "neighbors", ("sampler_sweep_warm", "wall_s"),
     ("sampler_sweep_warm", "table2_cold", "serve_resample")),
    ("write_message:0.02", "serve", ("serve_resample", "lat_p50_ms.low"),
     ("serve_resample",)),
    ("lint_run:5", "analysis", ("lint_tree", "wall_s"), ("lint_tree",)),
)


def worse_by(value, base, better):
    """Relative change in the 'worse' direction (positive = worse)."""
    if not base:
        return 0.0
    change = (value - base) / base
    return change if better == "lower" else -change


def judge(results, baseline, bench):
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    verdicts = []
    for spec, layer, (target_w, target_m), may_move in INJECTIONS:
        rows = results[spec]
        entry = {"inject": spec, "layer": layer,
                 "predicted": "%s on %s" % (target_m, target_w),
                 "cells": [], "passed": True}
        for workload, data in rows.items():
            base = baseline["workloads"][workload]["metrics"]
            for name, stats in data["metrics"].items():
                meta = metrics[name]
                change = worse_by(stats["median"], base[name]["median"],
                                  meta["better"])
                role = ("predicted" if (workload, name) == (target_w, target_m)
                        else "may_move" if workload in may_move
                        else "skip" if name == "setup_s" else "hold")
                ok = (change > meta["bound"] if role == "predicted"
                      else change <= meta["bound"] if role == "hold"
                      else None)
                if ok is False:
                    entry["passed"] = False
                entry["cells"].append({
                    "workload": workload, "metric": name, "role": role,
                    "baseline": base[name]["median"],
                    "injected": stats["median"],
                    "worse_by": round(change, 4), "bound": meta["bound"],
                    "ok": ok})
        verdicts.append(entry)
    return verdicts


def _write(path, seeds, verdicts, results):
    with open(path, "w") as handle:
        json.dump({"seeds": seeds, "verdicts": verdicts, "runs": results},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="20-22")
    args = parser.parse_args()
    bench = load_benchmark()
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    workloads = [w["name"] for w in bench["workloads"]]
    results = {}
    if os.path.exists(args.out):  # resume: keep injections already measured
        with open(args.out) as handle:
            results = json.load(handle)["runs"]
    for spec, *_ in INJECTIONS:
        if spec not in results:
            results[spec] = measure(workloads, parse_seeds(args.seeds),
                                    bench["run_seconds"], inject=spec)
            _write(args.out, args.seeds, [], results)
    verdicts = judge(results, baseline, bench)
    _write(args.out, args.seeds, verdicts, results)
    for entry in verdicts:
        print("%-20s %-10s predicted %-34s %s" % (
            entry["inject"], entry["layer"], entry["predicted"],
            "PASS" if entry["passed"] else "FAIL"))
        for cell in entry["cells"]:
            if cell["role"] in ("predicted",) or cell["ok"] is False:
                print("    %-20s %-20s %-9s worse by %+.3f (bound %.2f)" % (
                    cell["workload"], cell["metric"], cell["role"],
                    cell["worse_by"], cell["bound"]))
    return 0 if all(entry["passed"] for entry in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
