"""The repository benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload table2_cold --seed 0 --seconds 5 --trace 0

Workloads (see NOTES.md for why each exists):

* ``table2_cold``        cold Table II through ``repro.evals.run_matrix``
* ``sampler_sweep_warm`` ten samplers + the EOS K sweep over a warm extractor
* ``serve_resample``     open-loop ``resample`` jobs against ``repro-serve``
* ``lint_tree``          ``repro-lint --jobs 2`` over a frozen source corpus

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the body
once untraced and once with per-layer wrappers and prints the per-layer
metrics.  ``--inject NAME:SECONDS`` delays one public function (the
layer-map self-test, ``selftest.py``).  The last stdout line is the JSON
result; the lines before it name every metric with its unit.

Each workload's processes are pinned to the cores it uses (``CORES``),
and every set-up and batch body is timed under ``speed.Sampler``, which
scales its wall time to a reference host speed (see ``speed.py``).

The command runs from the root of a checkout and builds nothing: the
program is ``src/`` on ``PYTHONPATH``.  Without ``src/repro`` it exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402
from common import (  # noqa: E402
    ROOT, emit, machine_info, median, peak_rss_mb, percentile,
    pin_environment, source_present, timed,
)

WORKLOADS = ("table2_cold", "sampler_sweep_warm", "serve_resample",
             "lint_tree")
#: Set-up is measured in this many fresh processes per run (the worker
#: that runs the body is one of them); ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Cores (set-up, body) each workload keeps busy.  Its processes are
#: pinned to that many cores and the speed sampler runs on the same ones
#: (see ``speed.py``).  The daemon is started in set-up and keeps its
#: cores for the body.
CORES = {"table2_cold": (1, 2), "sampler_sweep_warm": (1, 1),
         "serve_resample": (2, 2), "lint_tree": (1, 2)}

#: What every body reports: ``ops`` (work units, for the rate),
#: ``attempted`` operations, ``failed`` (wrong or never produced) and
#: ``ok`` (correct, and for serve also on time: the ``ok_frac`` numerator).
TOTALS = ("ops", "attempted", "failed", "ok")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("lat_p50_ms.low", "ms"), ("lat_p50_ms.mid", "ms"),
    ("lat_p50_ms.high", "ms"),
    ("lat_p90_ms.low", "ms"), ("lat_p90_ms.mid", "ms"),
    ("lat_p90_ms.high", "ms"),
    ("max_rate_jobs_per_s", "1/s"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", default="",
                        help="NAME:SECONDS delay, e.g. conv2d:0.002")
    parser.add_argument("--role", choices=("main", "worker", "probe"),
                        default="main", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Worker side: set up, say "ready", run the body, print one JSON line


def make_workload(name):
    if name in ("table2_cold", "sampler_sweep_warm"):
        from wl_matrix import SamplerSweepWarm, Table2Cold

        return Table2Cold() if name == "table2_cold" else SamplerSweepWarm()
    if name == "serve_resample":
        from wl_serve import ServeResample

        return ServeResample()
    from wl_lint import LintTree

    return LintTree()


def setup_workload(workload, args, **extra):
    if workload.name in ("serve_resample", "lint_tree"):
        workload.setup(args.seed, inject=args.inject, **extra)
    else:
        workload.setup(args.seed, **extra)


def first_cores(n):
    """The first ``n`` cores this process may run on."""
    return set(sorted(os.sched_getaffinity(0))[:n])


def batch_body(workload, seconds, cores):
    """Repeat the body until ``seconds`` of wall time passed (at least
    once), sampling the speed of ``cores`` during every repeat.

    Returns each repeat's time at reference speed, the totals, and the
    raw walls and mean tick times."""
    walls, scaled, ticks = [], [], []
    totals = dict.fromkeys(TOTALS, 0)
    while not walls or sum(walls) < seconds:
        with speed.Sampler(cores) as sampler:
            out, wall = timed(workload.body)
        walls.append(wall)
        ticks.append(sampler.tick_s)
        scaled.append(sampler.normalize(wall))
        for key in totals:
            totals[key] += out[key]
    return scaled, totals, {"walls": walls, "tick_s": ticks}


def batch_metrics(walls, totals):
    """End-to-end metrics from repeat times (at reference speed)."""
    wall = median(walls)
    metrics = {"wall_s": wall,
               "max_rate_jobs_per_s": totals["ops"] / sum(walls)}
    # A batch run has one load level: its request is the whole body.
    for step in ("low", "mid", "high"):
        metrics["lat_p50_ms." + step] = 1e3 * wall
        metrics["lat_p90_ms." + step] = 1e3 * percentile(walls, 90)
    return metrics


def serve_metrics(out, wall):
    metrics = {"wall_s": wall}
    passed = [0.0]
    for step, figures in out["steps"].items():
        metrics["lat_p50_ms." + step] = figures["p50_ms"]
        metrics["lat_p90_ms." + step] = figures["p90_ms"]
        if figures["passed"]:
            passed.append(figures["throughput"])
    metrics["max_rate_jobs_per_s"] = passed[-1]
    return metrics


def run_untraced(workload, args, cores):
    if workload.name == "serve_resample":
        out, wall = timed(workload.body)
        totals = {key: out[key] for key in TOTALS}
        metrics = serve_metrics(out, wall)
        detail = {"steps": out["steps"]}
    else:
        walls, totals, detail = batch_body(workload, args.seconds, cores)
        metrics = batch_metrics(walls, totals)
    return metrics, totals, detail


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def worker_main(args):
    import layers

    # A terminated run still stops the daemon it started (teardown below).
    signal.signal(signal.SIGTERM, _terminate)
    setup_cores, body_cores = (first_cores(n) for n in CORES[args.workload])
    os.sched_setaffinity(0, setup_cores)
    workload = make_workload(args.workload)
    if args.workload == "serve_resample" and args.trace:
        from wl_serve import TRACE_JOBS_PER_STEP

        setup_workload(workload, args, jobs_per_step=TRACE_JOBS_PER_STEP)
    else:
        setup_workload(workload, args)
    print("ready", flush=True)
    os.sched_setaffinity(0, body_cores)
    # Delays apply to the timed body; subprocess workloads were started
    # with them already.
    layers.inject(args.inject)
    try:
        if not args.trace:
            metrics, totals, detail = run_untraced(workload, args,
                                                   body_cores)
            emit({"metrics": metrics, "totals": totals,
                  "detail": detail, "workload_id": workload.workload_id()})
            return
        from tracing import traced_run

        per_layer, totals, detail = traced_run(workload, args)
        emit({"metrics": per_layer, "totals": totals,
              "detail": detail, "workload_id": workload.workload_id()})
    finally:
        workload.teardown()


def probe_main(args):
    os.sched_setaffinity(0, first_cores(CORES[args.workload][0]))
    workload = make_workload(args.workload)
    setup_workload(workload, args)
    print("ready", flush=True)
    workload.teardown()


# ----------------------------------------------------------------------
# Main side: time set-up in fresh processes, collect, report


def spawn(args, role):
    """Start a fresh process; return it once it has set up, with the
    seconds that took."""
    command = [sys.executable, os.path.abspath(__file__), "--role", role,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.inject:
        command += ["--inject", args.inject]
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    for line in proc.stdout:
        if line.strip() == "ready":
            return proc, time.perf_counter() - start
    raise SystemExit("perfbench: %s process failed in set-up (exit %s)"
                     % (role, proc.wait()))


def finish(proc, role):
    """The rest of a spawned process's output, once it exited cleanly."""
    lines = proc.stdout.readlines()
    code = proc.wait()
    if code != 0:
        raise SystemExit("perfbench: %s process failed (exit %s)"
                         % (role, code))
    return lines


def main(argv=None):
    args = parse_args(argv)
    if not source_present():
        print("perfbench: no src/repro under %s; run from a checkout" % ROOT,
              file=sys.stderr)
        return 2
    pin_environment()
    os.chdir(ROOT)
    if args.role == "worker":
        worker_main(args)
        return 0
    if args.role == "probe":
        probe_main(args)
        return 0

    # The worker that runs the body is the last set-up sample.
    cores = first_cores(CORES[args.workload][0])
    setups, raw_setups, setup_ticks = [], [], []
    for role in ["probe"] * (SETUP_SAMPLES - 1) + ["worker"]:
        with speed.Sampler(cores) as sampler:
            proc, ready = spawn(args, role)
        raw_setups.append(ready)
        setup_ticks.append(sampler.tick_s)
        setups.append(sampler.normalize(ready))
        lines = finish(proc, role)
    result = json.loads(lines[-1])
    totals = result["totals"]
    metrics = dict(result["metrics"])
    units = dict(END_TO_END)
    if not args.trace:
        metrics["setup_s"] = median(setups)
        metrics["peak_rss_mb"] = peak_rss_mb()
        metrics["ok_frac"] = totals["ok"] / totals["attempted"]
    else:
        from layers import PER_LAYER

        units = dict(PER_LAYER)
    report = {
        "workload": args.workload,
        "workload_id": result["workload_id"],
        "seed": args.seed,
        "machine": machine_info(),
        "setup_samples_s": raw_setups,
        "setup_tick_s": setup_ticks,
        "detail": result["detail"],
    }
    print(json.dumps(report, sort_keys=True))
    for name, unit in units.items():
        print("%-32s %14.6g %s" % (name, metrics[name], unit))
    if not args.trace:
        print("%-32s %14.6g %s" % ("failed_frac (= 1 - ok_frac)",
                                   1.0 - metrics["ok_frac"], "ratio"))
    emit({
        "correct": totals["failed"] == 0,
        "attempted": int(totals["attempted"]),
        "failed": int(totals["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
