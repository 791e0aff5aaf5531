"""``serve_resample``: resampling as a service under an open-loop load.

The daemon is started as its users start it (``python -m repro.serve
start --persistent --workers 2 --compact-every 150``) and driven through
``ServeClient`` by one load-generator process with two threads:

* the submitter sends each job when it is due, whatever the daemon is
  doing (open loop: independent users, so a stall builds a queue);
* the poller asks for every outstanding job's result at the
  ``ServeClient.wait`` interval: first at a seeded random moment within
  one default ``wait`` interval after the submit, then again one interval
  after each ``pending`` answer.  The random first poll puts independent
  users at independent poll phases; with every first poll right after
  the submit, latencies moved in whole 50 ms poll steps and the ten-run
  quartile spread of the ``low`` step's p90 reached 0.23 of its median.

A job's latency runs from when it was due until the poller sees
``done``.  Three rate steps (``low``, ``mid``, ``high``) of 100 jobs
each leave ten samples beyond p90; the step percentiles are
Harrell-Davis estimates (``common.percentile_hd``).  Polling for a step stops at its
deadline, 1.5 s after its last due time.  A job not seen done by then,
shed, failed, or answered wrongly misses the latency limit; its latency
is the time from when it was due until the poller gave up.  After the
deadline shed jobs are resubmitted, the daemon drains, and every
settlement is still fetched and checked, so one step's backlog does not
leak into the next and every output is verified.

Inputs come from the seed: about 90% ``resample`` jobs (rows 100-2000
from a bounded Pareto, dims 16/24/64, 2-5 classes, imbalance 5-20,
80% EOS and 20% SMOTE) and about 10% ``echo``.
"""

from __future__ import annotations

import gc
import inspect
import json
import os
import signal
import subprocess
import threading
import time
from collections import Counter

import numpy as np

from common import (ROOT, fresh_dir, median, module_command, percentile,
                    percentile_hd)

from repro.serve import ServeClient
from repro.serve.client import LoadShedded, ServeError
from repro.serve.protocol import read_message, write_message
from repro.serve.router import default_router, job_seed

STEPS = (("low", 2.5), ("mid", 20.0), ("high", 40.0))
JOBS_PER_STEP = 100
#: A traced run drives a daemon twice (untraced, then traced) with
#: shorter steps to stay inside the run's time limit.
TRACE_JOBS_PER_STEP = 50
#: p90 due-to-done latency a step must meet to count towards
#: ``max_rate_jobs_per_s``.
LATENCY_LIMIT_S = 1.0
#: Polling for a step stops this long after its last job was due.
GRACE_S = 1.5
COMPACT_EVERY = 150
#: The interval ``ServeClient.wait`` sleeps between result polls.
POLL_S = inspect.signature(ServeClient.wait).parameters["poll"].default
#: Resample rows follow a bounded Pareto(ALPHA) on [ROWS_MIN, ROWS_MAX].
ROWS_MIN, ROWS_MAX, ALPHA = 100, 2000, 2.0
#: 64-wide embeddings only up to this many rows, which keeps the largest
#: request encode (done on the generator's submit thread, holding the
#: GIL) well under the 50 ms poll interval.
WIDE_ROWS_MAX = 500
#: Arrivals are evenly spaced at the step's rate, each moved by up to
#: this fraction of the gap.
JITTER = 0.3
#: Every tenth resample job of a step is re-run in-process and compared
#: byte for byte.
VERIFY_EVERY = 10


# ----------------------------------------------------------------------
# Input generation


def _resample_payload(rng, rows, dims, classes, ratio, sampler):
    shares = ratio ** (-np.arange(classes) / (classes - 1))
    sizes = np.maximum(8, np.floor(rows * shares / shares.sum())).astype(int)
    centers = rng.normal(0.0, 3.0, size=(classes, dims))
    x = np.concatenate([rng.normal(centers[c], 1.0, size=(n, dims))
                        for c, n in enumerate(sizes)])
    y = np.repeat(np.arange(classes), sizes)
    order = rng.permutation(len(y))
    return {"x": np.round(x[order], 5).tolist(), "y": y[order].tolist(),
            "sampler": sampler, "k_neighbors": 5}


def _resample_specs(rng, n):
    """``n`` (rows, dims, classes, ratio, sampler) tuples, stratified.

    Rows take one draw per quantile stratum of the bounded Pareto; the
    other properties cycle along the rows order, so every seed pairs
    sizes the same way and differs only inside strata and in job order.
    """
    u = (np.arange(n) + rng.uniform(size=n)) / n
    rows = (ROWS_MIN * (1.0 - u * (1.0 - (ROWS_MIN / ROWS_MAX) ** ALPHA))
            ** (-1.0 / ALPHA)).astype(int)
    specs = []
    for i, r in enumerate(rows):
        dims = (16, 24, 64)[i % 3] if r <= WIDE_ROWS_MAX else (16, 24)[i % 2]
        specs.append((int(r), dims, 2 + i % 4,
                      5.0 + 15.0 * ((i * 7) % n + rng.uniform()) / n,
                      "smote" if i % 5 == 4 else "eos"))
    return [specs[i] for i in rng.permutation(n)]


def make_schedule(seed, jobs_per_step):
    """``[(step, rate, [job, ...]), ...]``; each job has ``due`` seconds
    from the step start, ``job_id``, ``kind`` and ``payload``."""
    schedule = []
    for index, (step, rate) in enumerate(STEPS):
        rng = np.random.default_rng([seed, index])
        n = jobs_per_step
        n_echo = max(1, n // 10)
        resample = _resample_specs(rng, n - n_echo)
        kinds = ["echo"] * n_echo + ["resample"] * (n - n_echo)
        kinds = [kinds[i] for i in rng.permutation(n)]
        dues = (np.arange(n) + JITTER * rng.uniform(-1.0, 1.0, size=n)) / rate
        dues = np.sort(dues - dues.min())
        jobs = []
        for position, kind in enumerate(kinds):
            job_id = "bench-%d-%s-%03d" % (seed, step, position)
            if kind == "echo":
                payload = {"ping": position, "step": step}
            else:
                payload = _resample_payload(rng, *resample.pop())
            jobs.append({"job_id": job_id, "kind": kind, "payload": payload,
                         "due": float(dues[position])})
        # Drawn last, so the jobs themselves do not depend on it.
        for job, phase in zip(jobs, rng.uniform(0.0, POLL_S, size=n)):
            job["first_poll"] = float(phase)
        schedule.append((step, rate, jobs))
    return schedule


# ----------------------------------------------------------------------
# Daemon lifecycle


def daemon_command(socket_path, journal_path, trace_out=None, inject=None):
    return module_command("repro.serve", trace_out, inject) + [
        "start", "--socket", socket_path, "--journal", journal_path,
        "--persistent", "--workers", "2",
        "--compact-every", str(COMPACT_EVERY)]


class Daemon:
    """One ``repro-serve`` subprocess with a fresh journal."""

    def __init__(self, name, trace_out=None, inject=None):
        work = fresh_dir(name)
        # A relative socket path keeps it under the 108-byte AF_UNIX limit
        # however deep the checkout is.
        rel = os.path.relpath(work, ROOT)
        self.socket_path = os.path.join(rel, "d.sock")
        self.log = open(os.path.join(work, "daemon.log"), "wb")
        self.proc = subprocess.Popen(
            daemon_command(self.socket_path, os.path.join(rel, "journal.jsonl"),
                           trace_out, inject),
            cwd=ROOT, stdout=self.log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.client = ServeClient(self.socket_path, client_id="bench")
        deadline = time.perf_counter() + 60.0
        while not self.client.alive():
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.close()
                raise RuntimeError("repro-serve did not come up")
            time.sleep(0.01)

    def close(self):
        """Graceful stop; if that fails, kill the daemon's process group
        (it and its pool workers) and wait until the group is gone."""
        if self.proc.poll() is None:
            try:
                self.client.stop()
                self.proc.wait(timeout=60)
            except (OSError, ServeError, subprocess.TimeoutExpired):
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.perf_counter() + 10.0
        while time.perf_counter() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.02)
        self.log.close()


# ----------------------------------------------------------------------
# Open-loop load generator


class _Record:
    __slots__ = ("job", "sent", "acked", "done", "status", "summary",
                 "result", "polls", "shed", "error")

    def __init__(self, job):
        self.job = job
        self.sent = self.acked = self.done = None
        self.status = None
        self.summary = None
        self.result = None
        self.polls = 0
        self.shed = False
        self.error = None


def _summarize(response):
    result = response.get("result")
    if not isinstance(result, dict):
        return None
    if "echo" in result:
        return {"echo": result["echo"], "seed": result.get("seed")}
    y = result.get("y", [])
    return {"n_y": len(y), "n_x": len(result.get("x", [])),
            "dims": {len(row) for row in result.get("x", [])},
            "n_synthetic": result.get("n_synthetic"),
            "class_counts": result.get("class_counts"),
            "counted": sorted(Counter(y).values()),
            "sampler": result.get("sampler")}


class _StepRun:
    """Submitter and poller threads for one rate step."""

    def __init__(self, client, jobs, verify):
        self.client = client
        self.records = [_Record(job) for job in jobs]
        self.verify = verify
        self.lock = threading.Lock()
        self.outstanding = {}
        self.submitting = True
        self.stopping = threading.Event()
        self.submit_rtts = []
        self.result_rtts = []

    def run(self):
        self.start = time.perf_counter()
        last_due = self.records[-1].job["due"]
        self.deadline = self.start + last_due + GRACE_S
        submitter = threading.Thread(target=self._submit_all)
        submitter.start()
        try:
            self._poll_until_deadline()
        finally:
            self.stopping.set()
            submitter.join()

    def _submit_all(self):
        try:
            for record in self.records:
                job = record.job
                wait = self.start + job["due"] - time.perf_counter()
                if self.stopping.wait(max(0.0, wait)):
                    return
                record.sent = time.perf_counter()
                try:
                    self.client.submit(job["kind"], job["payload"],
                                       job_id=job["job_id"])
                except LoadShedded:
                    record.shed = True
                    continue
                except (OSError, ServeError) as exc:
                    record.error = repr(exc)
                    continue
                record.acked = time.perf_counter()
                self.submit_rtts.append(record.acked - record.sent)
                with self.lock:
                    self.outstanding[job["job_id"]] = (
                        record, record.acked + job["first_poll"])
        finally:
            self.submitting = False

    def _poll_until_deadline(self):
        while True:
            now = time.perf_counter()
            if now > self.deadline:
                self.gave_up = now
                return
            with self.lock:
                if not self.outstanding and not self.submitting:
                    self.gave_up = now
                    return
                due = min(self.outstanding.items(), key=lambda kv: kv[1][1],
                          default=None)
            if due is None or due[1][1] > now:
                time.sleep(0.001 if due is None else
                           min(0.005, due[1][1] - now))
                continue
            job_id, (record, _) = due
            sent = time.perf_counter()
            try:
                response = self.client.result(job_id)
            except (OSError, ServeError) as exc:
                response = {"status": "error", "message": repr(exc)}
            answered = time.perf_counter()
            self.result_rtts.append(answered - sent)
            record.polls += 1
            status = response.get("status")
            if status in ("done", "failed"):
                record.done = answered
                self._settle(record, response)
                with self.lock:
                    del self.outstanding[job_id]
            else:
                with self.lock:
                    self.outstanding[job_id] = (record, answered + POLL_S)

    def _settle(self, record, response):
        record.status = response.get("status")
        record.summary = _summarize(response)
        if record.job["job_id"] in self.verify:
            record.result = response

    def complete_missing(self, client):
        """After the step: resubmit shed jobs, let the daemon drain, then
        collect every settlement not yet seen, so each job's output is
        still checked.  These jobs stay late; only correctness counts.
        Returns the daemon's health once drained."""
        for record in self.records:
            if record.acked is None:
                try:
                    client.submit_with_retry(record.job["kind"],
                                             record.job["payload"],
                                             job_id=record.job["job_id"])
                except (OSError, ServeError, LoadShedded) as exc:
                    record.error = repr(exc)
        health = _drain(client)
        for record in self.records:
            if record.status is None and record.error is None:
                response = client.result(record.job["job_id"])
                if response.get("status") in ("done", "failed"):
                    self._settle(record, response)
        return health


def _drain(client, timeout=120.0):
    """Wait until the daemon's queue is empty, polling gently (every 0.2
    s, so the accept loop's 50 ms timeout fires between polls)."""
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        try:
            health = client.health()
        except OSError:  # busy past the client timeout (e.g. compacting)
            continue
        if not health["queue_depth"] and not health["in_flight"]:
            return health
        time.sleep(0.2)
    raise RuntimeError("repro-serve did not drain within %.0fs" % timeout)


def check_record(record):
    """True when the settlement keeps the handler's promises."""
    job, summary = record.job, record.summary
    if record.status != "done" or summary is None:
        return False
    if job["kind"] == "echo":
        return (summary["echo"] == job["payload"]
                and summary["seed"] == job_seed(job["job_id"]))
    y = job["payload"]["y"]
    counts = Counter(y)
    n_max = max(counts.values())
    return (summary["n_y"] == len(y) + summary["n_synthetic"]
            and summary["n_x"] == summary["n_y"]
            and summary["dims"] == {len(job["payload"]["x"][0])}
            and summary["class_counts"] == [n_max] * len(counts)
            and summary["counted"] == [n_max] * len(counts)
            and summary["sampler"] == job["payload"]["sampler"])


class _FakeSocket:
    """Byte sink/source so the codec can be timed without a peer."""

    def __init__(self, data=b""):
        self.data = bytearray(data)
        self.offset = 0

    def sendall(self, chunk):
        self.data += chunk

    def recv(self, size):
        chunk = bytes(self.data[self.offset:self.offset + size])
        self.offset += len(chunk)
        return chunk


def verify_exact(records):
    """Byte-compare the verification subset against an in-process
    ``default_router().dispatch``; time the handler and the codec.

    Returns the ids that differ, handler and codec seconds, and the
    encoded sizes of each submit request and done response."""
    router = default_router()
    wrong, handler_s, codec_s, req_bytes, resp_bytes = set(), [], [], [], []
    for record in records:
        job = record.job
        sink = _FakeSocket()
        write_message(sink, {"verb": "submit", "kind": job["kind"],
                             "payload": job["payload"], "client": "bench",
                             "job_id": job["job_id"]})
        req_bytes.append(len(sink.data))
        start = time.perf_counter()
        expected = router.dispatch({"job_id": job["job_id"],
                                    "kind": job["kind"],
                                    "payload": job["payload"]})
        handler_s.append(time.perf_counter() - start)
        response = {"job_id": job["job_id"], "status": "done",
                    "result": expected}
        start = time.perf_counter()
        sink = _FakeSocket()
        write_message(sink, response)
        decoded = read_message(_FakeSocket(sink.data))
        codec_s.append(time.perf_counter() - start)
        resp_bytes.append(len(sink.data))
        if (json.dumps(record.result["result"], sort_keys=True)
                != json.dumps(decoded["result"], sort_keys=True)):
            wrong.add(job["job_id"])
    return wrong, handler_s, codec_s, req_bytes, resp_bytes


def _stall_seconds(records, deadline):
    """Longest interval with work outstanding and no settlement seen."""
    events = []
    for r in records:
        if r.acked is None or r.acked >= deadline:
            continue
        settled = r.done is not None and r.done <= deadline
        events.append((r.acked, 1, False))
        events.append((r.done if settled else deadline, -1, settled))
    events.sort(key=lambda e: (e[0], -e[1]))
    longest, outstanding, since = 0.0, 0, 0.0
    for t, delta, settled in events:
        if delta == 1:
            if outstanding == 0:
                since = t
            outstanding += 1
            continue
        longest = max(longest, t - since)
        outstanding -= 1
        if settled:
            since = t
    return longest


class ServeResample:
    name = "serve_resample"

    def setup(self, seed, inject=None, trace_out=None,
              jobs_per_step=JOBS_PER_STEP):
        self.seed = seed
        self.schedule = make_schedule(seed, jobs_per_step)
        self.daemon = Daemon("serve", trace_out=trace_out, inject=inject)

    def workload_id(self):
        return ("serve:steps=%s:jobs=%d:poll=%g:first_poll=U(0,poll)"
                ":limit=%g:compact=%d") % (
            "/".join("%s@%g" % (s, r) for s, r in STEPS), JOBS_PER_STEP,
            POLL_S, LATENCY_LIMIT_S, COMPACT_EVERY)

    def body(self):
        """All three steps; returns totals plus per-step figures."""
        client = self.daemon.client
        steps, all_records, layer = {}, [], {
            "submit_rtt": [], "result_rtt": [], "stall": [],
            "lag": []}
        # A collector pause in the generator would be a gap no set of
        # independent clients produces; the generator allocates little
        # that is cyclic, so collection waits until the steps are done.
        gc.disable()
        try:
            self._run_steps(client, steps, all_records, layer)
        finally:
            gc.enable()
        health = self.health
        exact = [r for r in all_records if r.result is not None]
        wrong, handler_s, codec_s, req_bytes, resp_bytes = verify_exact(exact)
        correct = [r for r in all_records
                   if check_record(r) and r.job["job_id"] not in wrong]
        on_time = [r for r in correct
                   if r.done is not None
                   and r.done <= self._deadline_of(r, steps)]
        self.layer = {
            "serve.submit_rtt_ms": 1e3 * median(layer["submit_rtt"] or [0]),
            "serve.result_rtt_ms": 1e3 * median(layer["result_rtt"] or [0]),
            "serve.polls_per_job": sum(r.polls for r in all_records)
            / max(1, sum(1 for r in all_records if r.done is not None)),
            "serve.shed_frac": sum(r.shed for r in all_records)
            / len(all_records),
            "serve.req_bytes": median(req_bytes) if req_bytes else 0,
            "serve.resp_bytes": median(resp_bytes) if resp_bytes else 0,
            "serve.journal_bytes": health["journal"]["bytes"]
            / max(1, health["counters"]["completed"]),
            "serve.compactions": health["journal"]["compactions"],
            "serve.handler_ms": 1e3 * median(handler_s) if handler_s else 0,
            "serve.codec_ms": 1e3 * median(codec_s) if codec_s else 0,
            "serve.stall_s": max(layer["stall"]),
            "serve.gen_lag_ms": 1e3 * percentile(layer["lag"], 90),
            "parallel.pool.deaths": health["workers"].get("deaths", 0),
            "parallel.pool.respawns": health["workers"].get("respawns", 0),
        }
        return {"ops": len(on_time), "attempted": len(all_records),
                "failed": len(all_records) - len(correct),
                "ok": len(on_time), "steps": steps}

    def _run_steps(self, client, steps, all_records, layer):
        for step, rate, jobs in self.schedule:
            verify = {job["job_id"] for i, job in enumerate(jobs)
                      if job["kind"] == "resample" and i % VERIFY_EVERY == 0}
            run = _StepRun(client, jobs, verify)
            run.run()
            drain_start = time.perf_counter()
            self.health = run.complete_missing(client)
            steps[step] = self._step_figures(run, rate)
            steps[step]["drain_s"] = time.perf_counter() - drain_start
            layer["submit_rtt"] += run.submit_rtts
            layer["result_rtt"] += run.result_rtts
            layer["stall"].append(_stall_seconds(run.records, run.deadline))
            # A job still unsent when polling stopped was late at least
            # until then.
            layer["lag"] += [(r.sent if r.sent is not None else run.gave_up)
                             - (run.start + r.job["due"])
                             for r in run.records]
            all_records += run.records

    @staticmethod
    def _deadline_of(record, steps):
        return steps[record.job["job_id"].split("-")[2]]["deadline"]

    def _step_figures(self, run, rate):
        latencies = []
        for record in run.records:
            due = run.start + record.job["due"]
            if (record.done is not None and record.done <= run.deadline
                    and check_record(record)):
                latencies.append(record.done - due)
            else:
                latencies.append(run.gave_up - due)
        settled = [r for r in run.records
                   if r.done is not None and r.done <= run.deadline]
        p90 = percentile_hd(latencies, 90)
        passed = p90 <= LATENCY_LIMIT_S and len(settled) == len(run.records)
        span = max(r.done for r in settled) - run.start if settled else 0.0
        return {
            "p50_ms": 1e3 * percentile_hd(latencies, 50),
            "p90_ms": 1e3 * p90,
            "samples": len(latencies),
            "settled": len(settled),
            "passed": passed,
            "rate": rate,
            "throughput": len(settled) / span if span else 0.0,
            "deadline": run.deadline,
            "mean_settled_ms": 1e3 * (
                sum(r.done - (run.start + r.job["due"]) for r in settled)
                / len(settled)) if settled else 0.0,
            "latencies_ms": [round(1e3 * value, 1) for value in latencies],
        }

    def teardown(self):
        self.daemon.close()
