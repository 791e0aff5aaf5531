"""Run a ``repro`` CLI module with the benchmark's wrappers installed.

    python perfbench/host.py [--trace OUT.json] [--inject NAME:SECONDS] \
        -m repro.serve start ...

Equivalent to ``python -m <module> ...`` with, optionally, the delays of
the injected-slowdown self-test (``--inject``) and the per-layer timing
wrappers of a traced run (``--trace``: telemetry is enabled for the
module's lifetime and the counters, plus the share of the module's wall
time no wrapped call covered, are written to OUT.json at exit).
"""

from __future__ import annotations

import argparse
import json
import os
import runpy
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import pin_environment  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", default=None)
    parser.add_argument("--inject", default=None)
    parser.add_argument("-m", dest="module", required=True)
    args, rest = parser.parse_known_args()
    pin_environment()
    import layers

    layers.inject(args.inject)
    recorder = session = None
    if args.trace:
        from repro import telemetry

        recorder = layers.Recorder()
        recorder.install()
        session = telemetry.session()
        session.__enter__()
    sys.argv = [args.module] + rest
    start = time.perf_counter()
    code = 0
    try:
        runpy.run_module(args.module, run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        end = time.perf_counter()
        if session is not None:
            from repro.telemetry import get_metrics

            counters = dict(get_metrics().snapshot()["counters"])
            session.__exit__(None, None, None)
            with open(args.trace, "w") as handle:
                json.dump({"counters": counters, "wall_s": end - start,
                           "covered_s": recorder.covered_seconds(start, end)},
                          handle)
    sys.exit(code)


if __name__ == "__main__":
    main()
