"""Per-layer wrappers around public functions of the program.

The benchmark never edits ``src/``.  To see inside a run it replaces
public functions and methods with timing wrappers (``--trace 1``) or
with delayed copies (``--inject``, the self-test of the layer map).
Functions are replaced by identity in every loaded ``repro`` module, so
call sites that did ``from .knn import pairwise_distances`` see the
wrapper too.

Timings and counts go into the ``repro.telemetry`` metrics registry as
counters: a worker forked by ``repro.parallel`` ships its registry home
through ``MetricsRegistry.merge_snapshot``, so work done in a worker is
counted in the parent.  That forwarding only happens while telemetry is
enabled, which is why a traced run enables it.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

#: Modules imported before patching, so every alias of a wrapped
#: function is already bound and can be found by identity.
PACKAGES = (
    "repro", "repro.tensor", "repro.nn", "repro.core", "repro.sampling",
    "repro.neighbors", "repro.data", "repro.experiments", "repro.evals",
    "repro.parallel", "repro.serve", "repro.analysis",
)

#: (metric stem, module, attribute).  ``Class.method`` patches the class.
#: Each stem reports ``<stem>.s`` (time in its outermost calls) and
#: ``<stem>.calls``.
TIMED = (
    ("tensor.conv2d", "repro.tensor.conv", "conv2d"),
    ("tensor.backward", "repro.tensor.tensor", "Tensor.backward"),
    ("nn.model_forward", "repro.nn.module", "Module.__call__"),
    ("core.train_phase1", "repro.core.training", "Trainer.fit"),
    ("core.extract", "repro.core.training", "extract_features"),
    ("core.finetune", "repro.core.framework", "finetune_classifier"),
    ("core.predict", "repro.core.training", "predict_logits"),
    ("core.eos", "repro.core.eos", "EOS._fit_resample"),
    ("sampling.fit_resample", "repro.sampling.base", "BaseSampler.fit_resample"),
    ("neighbors.query", "repro.neighbors.knn", "KNeighbors.query"),
    ("neighbors.pairwise", "repro.neighbors.knn", "pairwise_distances"),
    ("data.make_dataset", "repro.data.synthetic", "make_dataset"),
    ("experiments.evaluate_sampler", "repro.experiments.pipeline",
     "evaluate_sampler"),
    ("evals.compile", "repro.evals.matrix", "compile_matrix"),
    ("evals.store", "repro.evals.store", "ResultStore.__init__"),
    ("evals.store", "repro.evals.store", "ResultStore.begin_run"),
    ("evals.store", "repro.evals.store", "ResultStore.record_cell"),
    ("evals.store", "repro.evals.store", "ResultStore.finish_run"),
    ("evals.store", "repro.evals.store", "ResultStore.close"),
    ("parallel.map", "repro.parallel.pool", "parallel_map"),
    ("parallel.pool", "repro.parallel.pool", "PersistentPool.submit"),
    ("parallel.pool", "repro.parallel.pool", "PersistentPool.poll"),
    ("serve.codec", "repro.serve.protocol", "read_message"),
    ("serve.codec", "repro.serve.protocol", "write_message"),
    ("serve.journal", "repro.serve.journal", "Journal.append"),
    ("serve.journal", "repro.serve.journal", "Journal.compact"),
    ("analysis.run", "repro.analysis.engine", "LintEngine.run"),
)

#: The public functions the injected-slowdown self-test delays, one per
#: major layer, by the name ``--inject`` takes.
INJECTABLE = {
    "conv2d": ("repro.tensor.conv", "conv2d"),
    "knn_query": ("repro.neighbors.knn", "KNeighbors.query"),
    "write_message": ("repro.serve.protocol", "write_message"),
    "lint_run": ("repro.analysis.engine", "LintEngine.run"),
}

#: Every per-layer metric a traced run reports, with its unit.  A layer
#: a workload does not exercise reads 0.
PER_LAYER = (
    ("tensor.conv2d.calls", "count"),
    ("tensor.conv2d.s", "s"),
    ("tensor.backward.s", "s"),
    ("tensor.pool.hit_ratio", "ratio"),
    ("nn.model_forward.s", "s"),
    ("core.train_phase1.s", "s"),
    ("core.extract.s", "s"),
    ("core.finetune.s", "s"),
    ("core.predict.s", "s"),
    ("core.eos.s", "s"),
    ("sampling.fit_resample.s", "s"),
    ("sampling.fit_resample.calls", "count"),
    ("sampling.synthetic_rows", "count"),
    ("neighbors.query.s", "s"),
    ("neighbors.query.calls", "count"),
    ("neighbors.distance_pairs", "count"),
    ("data.make_dataset.s", "s"),
    ("experiments.evaluate_sampler.s", "s"),
    ("experiments.cache.hit_ratio", "ratio"),
    ("evals.compile.s", "s"),
    ("evals.store.s", "s"),
    ("parallel.map.calls", "count"),
    ("parallel.map.tasks", "count"),
    ("parallel.map.overhead_s", "s"),
    ("parallel.pool.deaths", "count"),
    ("parallel.pool.respawns", "count"),
    ("serve.submit_rtt_ms", "ms"),
    ("serve.result_rtt_ms", "ms"),
    ("serve.polls_per_job", "ratio"),
    ("serve.shed_frac", "ratio"),
    ("serve.req_bytes", "bytes"),
    ("serve.resp_bytes", "bytes"),
    ("serve.journal_bytes", "bytes"),
    ("serve.compactions", "count"),
    ("serve.handler_ms", "ms"),
    ("serve.codec_ms", "ms"),
    ("serve.stall_s", "s"),
    ("serve.gen_lag_ms", "ms"),
    ("analysis.run.s", "s"),
    ("analysis.files", "count"),
    ("analysis.findings", "count"),
    ("trace_overhead_frac", "ratio"),
    ("unattributed_frac", "ratio"),
)


def _resolve(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(module, cls_name), meth
    return module, attr


def _replace(module_name, attr, make):
    """Swap ``attr`` for ``make(original)`` everywhere it is bound."""
    owner, name = _resolve(module_name, attr)
    original = owner.__dict__[name]
    replacement = make(original)
    if isinstance(owner, type):
        setattr(owner, name, replacement)
        return
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro"
                                  or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def inject(spec):
    """Install ``name:seconds`` delays, e.g. ``conv2d:0.002``.

    The delay runs before every call of the named public function, in
    whichever process calls it (forked workers inherit the patch).  Only
    the target's module is imported first; modules imported later bind
    the delayed function.
    """
    if not spec:
        return
    for item in spec.split(","):
        name, _, seconds = item.partition(":")
        module_name, attr = INJECTABLE[name]
        delay = float(seconds)

        def make(original, delay=delay):
            def delayed(*args, **kwargs):
                time.sleep(delay)
                return original(*args, **kwargs)
            delayed.__wrapped__ = original
            return delayed

        _replace(module_name, attr, make)


class Recorder:
    """Timing wrappers feeding the telemetry registry.

    ``intervals`` holds the outermost wrapped calls made by this process
    (not by its workers), for the share of wall time no layer covers.
    """

    def __init__(self):
        self.pid = os.getpid()
        self.depth = {}
        self.open = 0
        self.intervals = []

    def install(self):
        for name in PACKAGES:
            importlib.import_module(name)
        from repro.telemetry import get_metrics

        recorder = self

        def make_timed(stem):
            def make(original):
                def timed(*args, **kwargs):
                    depth = recorder.depth.get(stem, 0)
                    if depth:
                        return original(*args, **kwargs)
                    recorder.depth[stem] = 1
                    recorder.open += 1
                    start = time.perf_counter()
                    try:
                        result = original(*args, **kwargs)
                    finally:
                        end = time.perf_counter()
                        recorder.depth[stem] = 0
                        recorder.open -= 1
                        metrics = get_metrics()
                        metrics.counter(stem + ".s").inc(end - start)
                        metrics.counter(stem + ".calls").inc()
                        if recorder.open == 0 and os.getpid() == recorder.pid:
                            recorder.intervals.append((start, end))
                    recorder.count_extra(stem, args, result)
                    return result
                timed.__wrapped__ = original
                return timed
            return make

        for stem, module_name, attr in TIMED:
            if stem == "parallel.map":
                _replace(module_name, attr, self._wrap_parallel_map)
            _replace(module_name, attr, make_timed(stem))
        _replace("repro.tensor.pool", "scratch", self._wrap_scratch)

    @staticmethod
    def count_extra(stem, args, result):
        from repro.telemetry import get_metrics

        if stem == "neighbors.pairwise":
            get_metrics().counter("neighbors.distance_pairs").inc(
                len(args[0]) * len(args[1]))
        elif stem == "sampling.fit_resample":
            get_metrics().counter("sampling.synthetic_rows").inc(
                len(result[1]) - len(args[2]))

    @staticmethod
    def _wrap_parallel_map(original):
        """Count tasks and the time they spend inside ``fn``."""
        from repro.parallel import in_worker, resolve_workers
        from repro.telemetry import get_metrics

        def mapped(fn, items, max_workers=None, *args, **kwargs):
            items = list(items)

            def timed_task(*task_args, **task_kwargs):
                start = time.perf_counter()
                try:
                    return fn(*task_args, **task_kwargs)
                finally:
                    get_metrics().counter("parallel.task.s").inc(
                        time.perf_counter() - start)

            workers = 1 if in_worker() else min(
                resolve_workers(max_workers), max(1, len(items)))
            metrics = get_metrics()
            metrics.counter("parallel.map.tasks").inc(len(items))
            task_s = metrics.counter("parallel.task.s")
            before, start = task_s.value, time.perf_counter()
            try:
                return original(timed_task, items, max_workers, *args,
                                **kwargs)
            finally:
                wall = time.perf_counter() - start
                # Map wall time minus task time spread over the workers.
                metrics.counter("parallel.map.overhead_s").inc(
                    max(0.0, wall - (task_s.value - before) / workers))
        mapped.__wrapped__ = original
        return mapped

    @staticmethod
    def _wrap_scratch(original):
        from repro.tensor.pool import pool_stats
        from repro.telemetry import get_metrics

        def scratch(*args, **kwargs):
            hits = pool_stats()["hits"]
            buf = original(*args, **kwargs)
            hit = pool_stats()["hits"] > hits
            get_metrics().counter(
                "tensor.pool.hits" if hit else "tensor.pool.misses").inc()
            return buf
        scratch.__wrapped__ = original
        return scratch

    def covered_seconds(self, start, end):
        """Length of the union of this process's intervals in [start, end]."""
        total, cursor = 0.0, start
        for lo, hi in sorted(self.intervals):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                total += hi - lo
                cursor = hi
        return total


def ratio(num, den):
    return float(num) / den if den else 0.0


def layer_metrics(counters):
    """Per-layer figures from a metrics-registry counter dict: the
    wrappers' counters are named as the metrics they feed."""
    out = {name: counters[name] for name, _ in PER_LAYER if name in counters}
    hits = counters.get("tensor.pool.hits", 0)
    misses = counters.get("tensor.pool.misses", 0)
    out["tensor.pool.hit_ratio"] = ratio(hits, hits + misses)
    return out
