"""Shared helpers: paths, the BLAS pin, timing statistics, memory, results.

Nothing here imports numpy or ``repro`` at module level: ``run.py`` must
pin the BLAS thread count in the environment before numpy is loaded.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for stores, sockets, journals and the lint corpus.  It
#: lives inside the checkout because the benchmark may not write elsewhere.
WORK = os.path.join(ROOT, ".perfbench_work")

#: Every BLAS/OpenMP knob numpy's backends read.  Without the pin
#: OpenBLAS starts its own threads and a 2-core box is oversubscribed.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def pin_environment():
    """Pin BLAS threads and keep temp files in the checkout (inherited
    by every child process)."""
    os.environ.update(BLAS_ENV)
    os.makedirs(WORK, exist_ok=True)
    os.environ["TMPDIR"] = WORK
    src = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC if not src else SRC + os.pathsep + src
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def source_present():
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def fresh_dir(name):
    """An empty directory under the work area (removed first if present)."""
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def machine_info():
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas_info = config["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas_info.get("name"), blas_info.get("version"))
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "platform": platform.platform(),
    }


def percentile(values, q):
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, int(math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def percentile_hd(values, q):
    """Harrell-Davis estimate of the ``q`` percentile (0..100): a
    Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics.  Where
    the values form two clusters (jobs a dispatch stall caught and jobs it
    missed), it moves smoothly as their shares change; nearest rank jumps
    from one cluster to the other."""
    import numpy as np
    from scipy.special import betainc

    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    p = q / 100.0
    edges = betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), ordered))


def median(values):
    return statistics.median(values)


def peak_rss_mb():
    """Peak resident set of this process and of every waited-for child
    (the kernel folds grandchildren reaped by a child into it)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def timed(body):
    """Call ``body()``; return its result and the wall seconds it took."""
    start = time.perf_counter()
    out = body()
    return out, time.perf_counter() - start


def module_command(module, trace_out=None, inject=None):
    """``python -m module``, or the same through ``host.py`` when the run
    is traced (``trace_out``) or has delays injected."""
    if trace_out is None and not inject:
        return [sys.executable, "-m", module]
    command = [sys.executable, os.path.join(HERE, "host.py")]
    if trace_out is not None:
        command += ["--trace", trace_out]
    if inject:
        command += ["--inject", inject]
    return command + ["-m", module]


def emit(payload):
    """Write one JSON object as a single stdout line."""
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()
