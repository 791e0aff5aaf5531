"""The traced run: per-layer metrics for one workload.

The body runs once untraced and once with the wrappers of ``layers.py``
installed and ``repro.telemetry`` enabled (needed for forked workers to
ship their counters home).  Their wall-time ratio is the tracing
overhead.  For ``lint_tree`` and ``serve_resample`` the traced program
runs in a subprocess started through ``host.py``, which writes its
counters to a file.
"""

from __future__ import annotations

import json
import os
import time

from common import WORK, timed
from layers import PER_LAYER, Recorder, layer_metrics, ratio


def _read(path):
    with open(path) as handle:
        return json.load(handle)


def _matrix(workload, per):
    from repro import telemetry
    from repro.telemetry import get_metrics

    # The first body pays one-time costs (lazy imports, first allocations);
    # the overhead compares the traced body with a second untraced one.
    warm, _ = timed(workload.body)
    untraced, base = timed(workload.body)
    recorder = Recorder()
    recorder.install()
    with telemetry.session():
        # table2_cold builds a fresh cache inside its body.
        before = (workload.cache.stats()
                  if workload.name == "sampler_sweep_warm"
                  else {"hits": 0, "misses": 0})
        start = time.perf_counter()
        traced = workload.body()
        end = time.perf_counter()
        counters = get_metrics().snapshot()["counters"]
    per.update(layer_metrics(counters))
    stats = workload.cache.stats()
    hits = stats["hits"] - before["hits"]
    misses = stats["misses"] - before["misses"]
    per["experiments.cache.hit_ratio"] = ratio(hits, hits + misses)
    per["trace_overhead_frac"] = (end - start) / base - 1.0
    per["unattributed_frac"] = 1.0 - recorder.covered_seconds(start, end) / (
        end - start)
    return [warm, untraced, traced]


def _lint(workload, per):
    untraced, base = timed(workload.body)
    workload.trace_out = os.path.join(WORK, "lint-trace.json")
    traced, wall = timed(workload.body)
    data = _read(workload.trace_out)
    per.update(layer_metrics(data["counters"]))
    counts = workload.last_counts or {}
    per["analysis.files"] = counts.get("files_checked", 0)
    per["analysis.findings"] = sum(counts.get(key, 0) for key in (
        "errors", "warnings", "suppressed", "baselined"))
    per["trace_overhead_frac"] = wall / base - 1.0
    per["unattributed_frac"] = 1.0 - data["covered_s"] / data["wall_s"]
    return [untraced, traced]


def _serve(workload, args, per):
    from wl_serve import TRACE_JOBS_PER_STEP

    untraced = workload.body()
    workload.teardown()
    path = os.path.join(WORK, "serve-trace.json")
    workload.setup(args.seed, inject=args.inject, trace_out=path,
                   jobs_per_step=TRACE_JOBS_PER_STEP)
    traced = workload.body()
    workload.teardown()
    data = _read(path)
    per.update(layer_metrics(data["counters"]))
    per.update(workload.layer)
    # The schedule fixes an open loop's wall time; tracing cost shows as
    # latency instead, taken on the step below the stall threshold.
    base = untraced["steps"]["low"]["mean_settled_ms"]
    per["trace_overhead_frac"] = (
        traced["steps"]["low"]["mean_settled_ms"] / base - 1.0 if base else 0.0)
    per["unattributed_frac"] = 1.0 - data["covered_s"] / data["wall_s"]
    return [untraced, traced]


def traced_run(workload, args):
    """Returns (per-layer metrics, totals over both bodies, detail)."""
    per = {name: 0 for name, _ in PER_LAYER}
    if workload.name == "serve_resample":
        outs = _serve(workload, args, per)
    elif workload.name == "lint_tree":
        outs = _lint(workload, per)
    else:
        outs = _matrix(workload, per)
    totals = {key: sum(out[key] for out in outs)
              for key in ("ops", "attempted", "failed", "ok")}
    return per, totals, {}
