"""Deterministic fork-based process pool.

:func:`parallel_map` fans ``fn(item, seed)`` out over worker processes
and returns results **in item order** — bit-identical to running the
same calls serially — regardless of worker count or completion order.
Three design decisions make that guarantee cheap to keep:

* **Determinism lives in the seeds, not the scheduler.**  Every task
  gets ``derive_seed(seed_root, index)``, a pure function of the task's
  position.  Whatever interleaving the OS picks, task *i* always sees
  the same seed, so an order-preserved result list is enough for
  bit-exactness.
* **Fork-per-task, not a pickled job queue.**  Each worker is a fresh
  ``os.fork()`` of the parent at dispatch time: the closure, its
  captured arrays and models, and any module-level state (fault plans,
  cached extractors) are inherited copy-on-write — nothing needs to be
  picklable except the *result*.  Only results travel, over a dedicated
  pipe per child, as length-prefixed pickled frames.
* **Death is observable per task.**  One pipe and one pid per task
  means a worker that dies (OOM kill, ``os._exit``, segfault) is
  attributed to exactly the task it was running; the parent turns it
  into a :class:`TaskFailure` instead of hanging or poisoning a shared
  queue.  ``stdlib`` pools get this wrong in both directions, which is
  why the lint gate (rule PAR001) funnels all fan-out through here.

The pool is supervised (see :mod:`repro.guard`):

* **Watchdog** — with ``task_deadline`` set, a worker that produces no
  result within its wall-clock budget is SIGKILLed and the task is
  **re-dispatched** with the *same* derived seed (up to
  ``deadline_retries`` times), so a hung-then-killed-then-rerun task is
  bit-identical to one that never hung.  A task that hangs on every
  dispatch becomes ``TaskFailure(reason="WatchdogKilled")`` carrying
  its elapsed time and the last phase the worker reported
  (:func:`repro.guard.report_phase` heartbeats stream over the result
  pipe).
* **Pre-dispatch short-circuit** — a ``pre_dispatch(item, index)`` hook
  may return :class:`Skip` to settle a task without forking at all;
  :func:`repro.parallel.run_cells` uses this to honor open circuit
  breakers mid-batch.

Workers that raise an ordinary ``Exception`` ship the error back as a
:class:`TaskFailure` payload; raising :class:`BaseException` subclasses
that are not ``Exception`` (notably ``repro.resilience.SimulatedKill``)
hard-exit the child so the parent exercises its real dead-worker path.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import selectors
import signal
import struct
import sys
import time
import traceback
from collections import deque

from ..telemetry.clock import monotonic

__all__ = [
    "PersistentPool",
    "PoolInterrupted",
    "Skip",
    "TaskFailure",
    "WorkerError",
    "derive_seed",
    "get_default_workers",
    "in_worker",
    "parallel_map",
    "resolve_workers",
    "set_default_workers",
]

# Exit code a worker uses when a simulated kill (or any non-Exception
# BaseException) unwinds it: distinguishable from interpreter crashes in
# the failure reason, but handled identically.
_KILL_EXIT = 113

#: Length prefix for pipe frames: 4-byte big-endian payload size.
_FRAME_HEADER = struct.Struct(">I")

_DEFAULT_WORKERS = 1
_IN_WORKER = False


class TaskFailure:
    """Parent-side record of one task that did not produce a result.

    ``reason`` is ``"WorkerDied"`` when the child process vanished
    without delivering a payload, ``"WatchdogKilled"`` when the pool's
    watchdog SIGKILLed a worker that exceeded its task deadline on
    every dispatch, and otherwise the exception class name raised
    inside the worker.  Instances are returned in place of the task's
    result when ``on_error="return"``.
    """

    __slots__ = ("index", "reason", "message", "traceback", "exit_status")

    def __init__(self, index, reason, message="", tb="", exit_status=None):
        self.index = index
        self.reason = reason
        self.message = message
        self.traceback = tb
        self.exit_status = exit_status

    def __repr__(self):
        return "TaskFailure(index=%d, reason=%r, message=%r)" % (
            self.index, self.reason, self.message,
        )


class WorkerError(RuntimeError):
    """Raised by :func:`parallel_map` (``on_error="raise"``) after the
    pool drains, wrapping the first failed task."""

    def __init__(self, failure):
        self.failure = failure
        detail = failure.message or failure.reason
        super().__init__(
            "task %d failed in worker: %s" % (failure.index, detail)
        )


class PoolInterrupted(KeyboardInterrupt):
    """Structured interruption of a :func:`parallel_map` call.

    Raised (instead of a raw ``KeyboardInterrupt``) when SIGINT or
    SIGTERM unwinds the pool, *after* every outstanding worker has been
    SIGKILLed and reaped — an interrupted pool never leaks orphan
    processes.  Subclasses ``KeyboardInterrupt`` so existing
    ``except KeyboardInterrupt`` handlers (including the serve daemon's
    requeue path) keep working, while callers that care can read:

    ``signal_name``
        ``"SIGINT"`` or ``"SIGTERM"``.
    ``completed``
        Sorted indices of tasks that settled (result or failure
        delivered — their ``on_result`` callbacks already ran).
    ``pending``
        Sorted indices of tasks that did not settle; any in-flight
        worker for them was killed.  Re-running them with the same
        ``seed_root`` reproduces their original seeds exactly.
    """

    def __init__(self, signal_name, completed, pending):
        self.signal_name = signal_name
        self.completed = list(completed)
        self.pending = list(pending)
        super().__init__(
            "parallel_map interrupted by %s: %d task(s) settled, "
            "%d pending" % (signal_name, len(self.completed),
                            len(self.pending))
        )


class Skip:
    """Sentinel a ``pre_dispatch`` hook returns to settle a task inline.

    The wrapped ``value`` becomes the task's result without a worker
    ever being forked — how open circuit breakers convert queued cells
    into immediate failures mid-batch.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def derive_seed(seed_root, index):
    """Deterministic per-task seed: a pure function of root and index.

    Stable across processes, platforms and Python hash randomization
    (sha256, not ``hash()``), so task *i* of a sweep sees the same seed
    whether it runs serially, on 4 workers, or on 32 — and whether or
    not an earlier dispatch of it was watchdog-killed.
    """
    digest = hashlib.sha256(
        b"repro.parallel:%d:%d" % (int(seed_root), int(index))
    ).digest()
    return int.from_bytes(digest[:4], "big")


def set_default_workers(n):
    """Set the process-wide default worker count (the CLI's --workers)."""
    global _DEFAULT_WORKERS
    _DEFAULT_WORKERS = max(1, int(n))
    return _DEFAULT_WORKERS


def get_default_workers():
    """The process-wide default worker count (1 unless the CLI set it)."""
    return _DEFAULT_WORKERS


def resolve_workers(max_workers):
    """Map a ``max_workers`` argument to an effective worker count.

    ``None`` means "use the process default"; inside a worker process
    everything degrades to serial so nested ``parallel_map`` calls never
    fork grandchildren.
    """
    if _IN_WORKER:
        return 1
    if max_workers is None:
        return _DEFAULT_WORKERS
    return max(1, int(max_workers))


def in_worker():
    """True inside a pool worker process (nested pools stay serial)."""
    return _IN_WORKER


# ----------------------------------------------------------------------
# Pipe frames


def _send_frame(write_fd, obj):
    """Write one length-prefixed pickle frame to a raw fd."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    data = _FRAME_HEADER.pack(len(payload)) + payload
    view = memoryview(data)
    while view:
        written = os.write(write_fd, view)
        view = view[written:]


def _drain_frames(child):
    """Decode every complete frame buffered for ``child``.

    ``("phase", name)`` heartbeats update the child's last-known phase;
    the final ``("result", envelope)`` frame carries the task outcome.
    A trailing partial frame (worker died mid-write) stays in the
    buffer and is simply never completed — the caller sees a missing
    envelope and records ``WorkerDied``.
    """
    buffer = child.buffer
    header = _FRAME_HEADER.size
    while len(buffer) >= header:
        (size,) = _FRAME_HEADER.unpack(buffer[:header])
        if len(buffer) < header + size:
            return
        payload = bytes(buffer[header:header + size])
        del buffer[:header + size]
        try:
            kind, value = pickle.loads(payload)
        except Exception:
            # A frame the child corrupted mid-crash is equivalent to no
            # frame; the reaper records WorkerDied from the missing envelope.
            continue
        if kind == "phase":
            child.phase = value
        elif kind == "result":
            child.envelope = value


# ----------------------------------------------------------------------
# Worker side


def _collect_telemetry(parent_tracer_enabled, parent_metrics_enabled):
    """Install fresh telemetry sinks in the worker; return a drain fn.

    The forked child inherits the parent's Tracer/MetricsRegistry
    objects, but appending to them is useless — the memory is
    copy-on-write and the parent never sees it.  So when the parent had
    telemetry enabled, the worker swaps in fresh sinks and ships their
    contents back in the result envelope for the parent to merge.
    """
    if not (parent_tracer_enabled or parent_metrics_enabled):
        return lambda: (None, None)
    from ..telemetry.metrics import MetricsRegistry, set_metrics
    from ..telemetry.tracer import Tracer, set_tracer

    tracer = Tracer() if parent_tracer_enabled else None
    metrics = MetricsRegistry() if parent_metrics_enabled else None
    if tracer is not None:
        set_tracer(tracer)
    if metrics is not None:
        set_metrics(metrics)

    def drain():
        records = None
        if tracer is not None:
            now = tracer._clock() - tracer._t0
            while tracer._stack:
                top = tracer._stack.pop()
                top.duration = now - top.start
                top.attrs.setdefault("unclosed", True)
                tracer._record(top)
            records = tracer.records
        snapshot = metrics.snapshot() if metrics is not None else None
        return records, snapshot

    return drain


def _child_main(write_fd, fn, item, index, seed, telemetry_flags,
                dispatch, label):
    """Run one task in the forked child; never returns."""
    global _IN_WORKER
    _IN_WORKER = True
    status = 0
    try:
        from ..guard.phase import set_phase_reporter
        from ..resilience.faults import maybe_fire

        # Stream phase heartbeats over the result pipe so the parent
        # knows what a worker was doing if it has to be watchdog-killed.
        set_phase_reporter(
            lambda name: _send_frame(write_fd, ("phase", name))
        )
        drain = _collect_telemetry(*telemetry_flags)
        try:
            maybe_fire("worker.task", index=index, task=label,
                       dispatch=dispatch)
            result = fn(item, seed)
            records, snapshot = drain()
            envelope = {
                "ok": True,
                "result": result,
                "records": records,
                "metrics": snapshot,
            }
        except Exception as exc:
            records, snapshot = drain()
            envelope = {
                "ok": False,
                "reason": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
                "records": records,
                "metrics": snapshot,
            }
        _send_frame(write_fd, ("result", envelope))
        os.close(write_fd)
    except BaseException:
        # SimulatedKill or anything else non-recoverable: die without a
        # result frame so the parent takes its genuine dead-worker path.
        status = _KILL_EXIT
    finally:
        # Skip interpreter teardown: atexit handlers, buffered parent
        # file handles etc. belong to the parent and must not run here.
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(status)


# ----------------------------------------------------------------------
# Parent side


class _Child:
    __slots__ = ("pid", "read_fd", "index", "buffer", "envelope", "phase",
                 "started", "dispatch")

    def __init__(self, pid, read_fd, index, dispatch):
        self.pid = pid
        self.read_fd = read_fd
        self.index = index
        self.buffer = bytearray()
        self.envelope = None
        self.phase = None
        self.started = monotonic()
        self.dispatch = dispatch


def _spawn(fn, item, index, seed, telemetry_flags, dispatch, label):
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _child_main(write_fd, fn, item, index, seed, telemetry_flags,
                    dispatch, label)
        os._exit(_KILL_EXIT)  # unreachable; _child_main never returns
    os.close(write_fd)
    return _Child(pid, read_fd, index, dispatch)


def _exit_status_of(wait_status):
    """Decode a raw ``waitpid`` status, signal-aware.

    Mirrors ``os.waitstatus_to_exitcode`` (negative signal number for a
    signal-killed child, plain exit code otherwise) using the POSIX
    macros directly: the naive ``wait_status >> 8`` decodes a
    signal-killed child as exit 0, silently misreporting a SIGKILL/OOM
    kill as a clean exit.
    """
    if os.WIFSIGNALED(wait_status):
        return -os.WTERMSIG(wait_status)
    if os.WIFEXITED(wait_status):
        return os.WEXITSTATUS(wait_status)
    return wait_status


def _sigkill(pid):
    """Best-effort SIGKILL (the process may already be gone)."""
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:  # repro: noqa[RES002] already dead, which is the desired end state
        pass


def _reap(child, kill_after=1.0):
    """Collect the child's exit status without ever blocking the pool.

    Called once the child's pipe reached EOF (it exited or was
    SIGKILLed), so exit is imminent: poll ``WNOHANG`` with a short
    backoff instead of the old blocking ``os.waitpid(pid, 0)``, and
    escalate to SIGKILL if the child somehow lingers past
    ``kill_after`` seconds (a hung atexit path must not wedge the
    supervisor).
    """
    delay = 0.0005
    waited = 0.0
    killed = False
    while True:
        try:
            pid, wait_status = os.waitpid(child.pid, os.WNOHANG)
        except ChildProcessError:
            return None
        if pid != 0:
            return _exit_status_of(wait_status)
        if not killed and waited >= kill_after:
            _sigkill(child.pid)
            killed = True
        time.sleep(delay)
        waited += delay
        delay = min(delay * 2, 0.05)


def _merge_worker_telemetry(envelope):
    if envelope.get("records"):
        from ..telemetry.tracer import get_tracer

        get_tracer().merge(envelope["records"])
    if envelope.get("metrics"):
        from ..telemetry.metrics import get_metrics

        get_metrics().merge_snapshot(envelope["metrics"])


def parallel_map(fn, items, max_workers=None, seed_root=0, on_error="raise",
                 task_label=None, on_result=None, task_deadline=None,
                 deadline_retries=1, pre_dispatch=None):
    """Map ``fn(item, seed)`` over ``items``, optionally in parallel.

    Parameters
    ----------
    fn:
        Callable of ``(item, seed)``.  In parallel mode it runs in a
        forked child; it may close over arbitrary unpicklable state, but
        its *return value* must pickle.
    items:
        Sequence of task inputs.
    max_workers:
        Concurrency cap.  ``None`` uses the process default (see
        :func:`set_default_workers`); 1 runs everything inline in this
        process with the *same* derived seeds, so serial and parallel
        runs are bit-identical by construction.
    seed_root:
        Root of the per-task seed derivation (:func:`derive_seed`).
    on_error:
        ``"raise"`` (default) raises :class:`WorkerError` for the first
        failed task after all tasks finish; ``"return"`` puts a
        :class:`TaskFailure` in the result slot instead.
    task_label:
        Optional ``label(item, index)`` used in per-task telemetry
        events and in the ``worker.task`` fault-point context.
    on_result:
        Optional ``on_result(index, result_or_failure)`` invoked as each
        task finishes, in **completion** order (item order when serial).
        Callers use this for crash-safe incremental persistence — e.g.
        checkpointing sweep cells as they land rather than after the
        whole batch.
    task_deadline:
        Optional per-task wall-clock budget in seconds, enforced by the
        pool's watchdog (parallel mode only — a serial pool has no
        supervisor process to preempt a hung call).  A worker past its
        deadline is SIGKILLed and the task re-dispatched with the same
        derived seed; after ``deadline_retries`` re-dispatches it
        settles as ``TaskFailure(reason="WatchdogKilled")``.
    deadline_retries:
        Re-dispatches allowed per task after a watchdog kill
        (default 1).
    pre_dispatch:
        Optional ``pre_dispatch(item, index)`` called in the parent just
        before a task would fork.  Return :class:`Skip` to settle the
        task with ``Skip.value`` instead of running it, or None to run
        normally.

    Returns
    -------
    list
        One entry per item, in item order.

    Raises
    ------
    PoolInterrupted
        When SIGINT or SIGTERM arrives mid-map.  A temporary SIGTERM
        handler (installed only in the main thread, restored on exit)
        turns termination into the same unwind as Ctrl-C; either way
        every outstanding worker is SIGKILLed and reaped before the
        exception escapes, and it carries which task indices settled
        and which are still pending.
    """
    if on_error not in ("raise", "return"):
        raise ValueError("on_error must be 'raise' or 'return'; got %r"
                         % (on_error,))
    items = list(items)
    workers = resolve_workers(max_workers)
    results = [None] * len(items)
    failures = []
    settled = set()

    interrupt = {"signal": "SIGINT"}

    def on_interrupt(signum, frame):
        # SIGTERM takes the exact unwind path SIGINT does; the
        # except-KeyboardInterrupt below restructures both.
        interrupt["signal"] = signal.Signals(signum).name
        raise KeyboardInterrupt()

    try:
        previous_term = signal.signal(signal.SIGTERM, on_interrupt)
    except ValueError:  # not the main thread; SIGTERM keeps its disposition
        previous_term = None

    def interrupted():
        return PoolInterrupted(
            interrupt["signal"], sorted(settled),
            [i for i in range(len(items)) if i not in settled],
        )

    def restore_sigterm():
        if previous_term is not None:
            signal.signal(signal.SIGTERM, previous_term)

    def settle_skip(index, skip):
        if not isinstance(skip, Skip):
            raise TypeError(
                "pre_dispatch must return Skip(value) or None; got %r"
                % (skip,)
            )
        results[index] = skip.value
        settled.add(index)
        if on_result is not None:
            on_result(index, skip.value)

    if workers <= 1 or len(items) <= 1:
        try:
            for index, item in enumerate(items):
                if pre_dispatch is not None:
                    skip = pre_dispatch(item, index)
                    if skip is not None:
                        settle_skip(index, skip)
                        continue
                seed = derive_seed(seed_root, index)
                try:
                    results[index] = fn(item, seed)
                except Exception as exc:
                    if on_error == "raise":
                        raise
                    failure = TaskFailure(
                        index, type(exc).__name__, str(exc),
                        traceback.format_exc(),
                    )
                    failures.append(failure)
                    results[index] = failure
                settled.add(index)
                if on_result is not None:
                    on_result(index, results[index])
        except KeyboardInterrupt:
            raise interrupted() from None
        finally:
            restore_sigterm()
        return results

    from ..telemetry.metrics import get_metrics
    from ..telemetry.tracer import get_tracer

    tracer = get_tracer()
    metrics = get_metrics()
    telemetry_flags = (tracer.enabled, metrics.enabled)

    def label_of(index):
        if task_label is not None:
            return task_label(items[index], index)
        return str(index)

    sel = selectors.DefaultSelector()
    pending = iter(enumerate(items))
    live = 0

    def spawn_task(index, dispatch):
        nonlocal live
        child = _spawn(fn, items[index], index,
                       derive_seed(seed_root, index), telemetry_flags,
                       dispatch, label_of(index))
        sel.register(child.read_fd, selectors.EVENT_READ, child)
        live += 1

    def launch():
        while True:
            try:
                index, item = next(pending)
            except StopIteration:
                return False
            if pre_dispatch is not None:
                skip = pre_dispatch(item, index)
                if skip is not None:
                    settle_skip(index, skip)
                    continue
            spawn_task(index, 0)
            return True

    def settle_failure(failure):
        failures.append(failure)
        results[failure.index] = failure
        settled.add(failure.index)
        if on_result is not None:
            on_result(failure.index, failure)

    def finish(child):
        nonlocal live
        sel.unregister(child.read_fd)
        os.close(child.read_fd)
        live -= 1
        exit_status = _reap(child)
        index = child.index
        envelope = child.envelope
        if envelope is None:
            phase = "" if child.phase is None else \
                ", last phase %r" % child.phase
            failure = TaskFailure(
                index, "WorkerDied",
                "worker process for task %d exited with status %r before "
                "delivering a result%s" % (index, exit_status, phase),
                exit_status=exit_status,
            )
            tracer.event("parallel.worker_died", task=label_of(index),
                         exit_status=exit_status, phase=child.phase)
            settle_failure(failure)
            return
        _merge_worker_telemetry(envelope)
        if envelope["ok"]:
            results[index] = envelope["result"]
        else:
            failure = TaskFailure(
                index, envelope["reason"], envelope["message"],
                envelope.get("traceback", ""), exit_status=exit_status,
            )
            failures.append(failure)
            results[index] = failure
        settled.add(index)
        if on_result is not None:
            on_result(index, results[index])

    def watchdog_kill(child, now):
        """SIGKILL a hung worker; re-dispatch or settle the task.

        Returns True when the task was re-dispatched (pool occupancy
        unchanged), False when it settled as a failure (slot freed).
        """
        nonlocal live
        sel.unregister(child.read_fd)
        os.close(child.read_fd)
        live -= 1
        _sigkill(child.pid)
        _reap(child)
        index = child.index
        elapsed = now - child.started
        tracer.event(
            "guard.watchdog_kill", task=label_of(index),
            elapsed=round(elapsed, 3), phase=child.phase,
            dispatch=child.dispatch,
        )
        metrics.counter("guard.watchdog_kills").inc()
        if child.dispatch < deadline_retries:
            spawn_task(index, child.dispatch + 1)
            return True
        phase = "" if child.phase is None else \
            ", last phase %r" % child.phase
        settle_failure(TaskFailure(
            index, "WatchdogKilled",
            "task %d (%s) exceeded its %.3gs deadline on %d dispatch(es) "
            "(%.2fs elapsed%s)" % (index, label_of(index), task_deadline,
                                   child.dispatch + 1, elapsed, phase),
        ))
        return False

    try:
        try:
            while live < workers and launch():
                pass
            while live:
                timeout = None
                if task_deadline is not None:
                    now = monotonic()
                    timeout = max(0.0, min(
                        child.started + task_deadline - now
                        for child in (key.data
                                      for key in sel.get_map().values())
                    ))
                for key, _ in sel.select(timeout):
                    child = key.data
                    chunk = os.read(child.read_fd, 1 << 16)
                    if chunk:
                        child.buffer.extend(chunk)
                        _drain_frames(child)
                    else:
                        finish(child)
                        launch()
                if task_deadline is not None:
                    now = monotonic()
                    for key in list(sel.get_map().values()):
                        child = key.data
                        if now - child.started >= task_deadline:
                            if not watchdog_kill(child, now):
                                launch()
        finally:
            # On an unexpected parent-side error (including SIGINT /
            # SIGTERM), don't leak (or block on) children: kill
            # outstanding workers before reaping them.
            for key in list(sel.get_map().values()):
                child = key.data
                try:
                    os.close(child.read_fd)
                except OSError:  # repro: noqa[RES002] fd already closed by the normal finish path
                    pass
                _sigkill(child.pid)
                try:
                    os.waitpid(child.pid, 0)
                except ChildProcessError:  # repro: noqa[RES002] child already reaped by the normal finish path
                    pass
            sel.close()
    except KeyboardInterrupt:
        # Workers are dead and reaped (the finally above ran first);
        # surface a structured interruption instead of a raw ^C.
        raise interrupted() from None
    finally:
        restore_sigterm()

    if failures and on_error == "raise":
        failures.sort(key=lambda f: f.index)
        raise WorkerError(failures[0])
    return results


# ----------------------------------------------------------------------
# Persistent supervised workers


def _read_exact(fd, size):
    """Blocking read of exactly ``size`` bytes; None on EOF."""
    data = bytearray()
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            return None
        data.extend(chunk)
    return bytes(data)


def _read_frame(fd):
    """Blocking read of one length-prefixed pickle frame; None on EOF."""
    header = _read_exact(fd, _FRAME_HEADER.size)
    if header is None:
        return None
    (size,) = _FRAME_HEADER.unpack(header)
    payload = _read_exact(fd, size)
    if payload is None:
        return None
    return pickle.loads(payload)


def _persistent_child_main(task_fd, write_fd, fn, telemetry_flags):
    """Serve tasks from the pipe until a stop frame or EOF; never returns.

    The contract difference from the fork-per-task path: the *task
    items* travel over the pipe here (fork-per-task inherits them
    copy-on-write), so both items and results must pickle.  The seed
    arrives with each task — the parent derives it, so a task re-run on
    a different worker (or after a respawn) sees the identical seed and
    stays byte-identical.
    """
    global _IN_WORKER
    _IN_WORKER = True
    status = 0
    try:
        from ..guard.phase import set_phase_reporter
        from ..resilience.faults import maybe_fire

        set_phase_reporter(
            lambda name: _send_frame(write_fd, ("phase", name))
        )
        while True:
            frame = _read_frame(task_fd)
            if frame is None or frame[0] == "stop":
                break
            task = frame[1]
            drain = _collect_telemetry(*telemetry_flags)
            try:
                maybe_fire("worker.task", index=task["id"],
                           task=task["label"], dispatch=task["dispatch"])
                result = fn(task["item"], task["seed"])
                records, snapshot = drain()
                envelope = {
                    "ok": True,
                    "result": result,
                    "records": records,
                    "metrics": snapshot,
                }
            except Exception as exc:
                records, snapshot = drain()
                envelope = {
                    "ok": False,
                    "reason": type(exc).__name__,
                    "message": str(exc),
                    "traceback": traceback.format_exc(),
                    "records": records,
                    "metrics": snapshot,
                }
            _send_frame(write_fd, ("result",
                                   {"id": task["id"], "envelope": envelope}))
        os.close(write_fd)
    except BaseException:
        # SimulatedKill or anything else non-recoverable: die without a
        # result frame so the parent takes its genuine dead-worker path.
        status = _KILL_EXIT
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(status)


class _PWorker:
    __slots__ = ("pid", "task_fd", "read_fd", "buffer", "phase", "jobs",
                 "task", "started", "last_beat", "retiring")

    def __init__(self, pid, task_fd, read_fd):
        self.pid = pid
        self.task_fd = task_fd
        self.read_fd = read_fd
        self.buffer = bytearray()
        self.phase = None
        self.jobs = 0
        self.task = None
        self.started = None
        self.last_beat = monotonic()
        self.retiring = False


class PersistentPool:
    """Pre-forked, supervised worker set for streamed task dispatch.

    Where :func:`parallel_map` forks one child per task (zero pickling
    of inputs, but a full ``fork`` on every dispatch), a
    ``PersistentPool`` forks ``workers`` children **once** and streams
    tasks to them over pipes — the dispatch cost drops from a process
    fork to one pickled frame each way, which is what makes a
    long-lived daemon's per-job latency acceptable.  The price is a
    contract change: task items and results must pickle, and ``fn`` is
    captured at pool construction (workers inherit it copy-on-write).

    Determinism is caller-owned: :meth:`submit` takes an explicit
    ``seed`` (the serve daemon passes ``job_seed(job_id)``), so a task
    re-dispatched after a worker death runs under the identical seed
    and produces byte-identical results on any worker.

    Supervision (the same guarantees :func:`parallel_map` gets from the
    PR-5 watchdog, kept continuously):

    * a worker whose in-flight task exceeds ``task_deadline`` is
      SIGKILLed and the task re-dispatched (same seed) up to
      ``task_retries`` times, then settled as
      ``TaskFailure(reason="WatchdogKilled")``;
    * a worker that dies mid-task (OOM, segfault, ``os._exit``) is
      detected by pipe EOF, reaped, and replaced; its task is
      re-dispatched the same way and settles as ``WorkerDied`` when
      retries run out;
    * after ``recycle_after`` completed tasks a worker is retired and
      replaced by a fresh fork (bounds slow memory growth in a daemon
      that runs for weeks).

    ``phase`` heartbeats (:func:`repro.guard.report_phase`) stream over
    the result pipe exactly as in :func:`parallel_map`; the last beat
    and phase per worker surface in :meth:`stats` for health reporting.
    """

    def __init__(self, fn, workers=1, task_deadline=None, task_retries=1,
                 recycle_after=None):
        from ..telemetry.metrics import get_metrics
        from ..telemetry.tracer import get_tracer

        self.fn = fn
        self.workers = max(1, int(workers))
        self.task_deadline = task_deadline
        self.task_retries = int(task_retries)
        self.recycle_after = (
            None if recycle_after is None else max(1, int(recycle_after))
        )
        self.deaths = 0
        self.respawns = 0
        self.recycles = 0
        self._tracer = get_tracer()
        self._metrics = get_metrics()
        self._telemetry_flags = (self._tracer.enabled, self._metrics.enabled)
        self._backlog = deque()
        self._ordinal = 0
        self._sel = selectors.DefaultSelector()
        self._wake = None
        self._workers = []
        self._closed = False
        for _ in range(self.workers):
            self._spawn_worker()

    # ------------------------------------------------------------------
    def _spawn_worker(self):
        task_read, task_write = os.pipe()
        res_read, res_write = os.pipe()
        inherited = [fd for worker in self._workers
                     for fd in (worker.task_fd, worker.read_fd)]
        pid = os.fork()
        if pid == 0:
            os.close(task_write)
            os.close(res_read)
            # Drop inherited ends of sibling pipes so a sibling's EOF is
            # decided by the sibling alone, not by this child's copies.
            for fd in inherited:
                try:
                    os.close(fd)
                except OSError:  # repro: noqa[RES002] a sibling fd already closed between snapshot and fork
                    pass
            _persistent_child_main(task_read, res_write, self.fn,
                                   self._telemetry_flags)
            os._exit(_KILL_EXIT)  # unreachable; child main never returns
        os.close(task_read)
        os.close(res_write)
        worker = _PWorker(pid, task_write, res_read)
        self._sel.register(res_read, selectors.EVENT_READ, worker)
        self._workers.append(worker)
        return worker

    def _idle_workers(self):
        return [worker for worker in self._workers
                if worker.task is None and not worker.retiring]

    def capacity(self):
        """Tasks the pool can start right now (idle live workers)."""
        if self._closed:
            return 0
        return max(0, len(self._idle_workers()) - len(self._backlog))

    def backlog(self):
        return len(self._backlog)

    def idle(self):
        """True when no task is in flight or queued anywhere in the pool."""
        return (not self._backlog
                and all(worker.task is None for worker in self._workers))

    # ------------------------------------------------------------------
    def submit(self, task_id, item, seed, label=None):
        """Queue one task for execution under an explicit seed.

        ``task_id`` keys the completion (returned by :meth:`poll`);
        ``seed`` is passed through to ``fn(item, seed)`` verbatim on
        every dispatch, including re-dispatches after a death.
        """
        if self._closed:
            raise RuntimeError("PersistentPool is closed")
        self._ordinal += 1
        task = {
            "id": task_id,
            "item": item,
            "seed": seed,
            "label": str(task_id) if label is None else label,
            "dispatch": 0,
            "ordinal": self._ordinal,
        }
        self._backlog.append(task)
        self._feed()
        return task_id

    def _feed(self):
        for worker in self._idle_workers():
            if not self._backlog:
                return
            self._dispatch(worker, self._backlog.popleft())

    def _dispatch(self, worker, task):
        worker.task = task
        worker.started = monotonic()
        worker.last_beat = worker.started
        worker.phase = None
        try:
            _send_frame(worker.task_fd, ("task", task))
        except OSError:
            # The worker died between polls; put the task back at the
            # front and let the death path respawn + re-feed.
            worker.task = None
            self._backlog.appendleft(task)
            self._on_death(worker)

    # ------------------------------------------------------------------
    def _drain_worker(self, worker):
        """Decode buffered frames; returns completed result frames."""
        completions = []
        buffer = worker.buffer
        header = _FRAME_HEADER.size
        while len(buffer) >= header:
            (size,) = _FRAME_HEADER.unpack(buffer[:header])
            if len(buffer) < header + size:
                break
            payload = bytes(buffer[header:header + size])
            del buffer[:header + size]
            try:
                kind, value = pickle.loads(payload)
            except Exception:
                # A frame corrupted mid-crash is equivalent to no frame;
                # the EOF path records WorkerDied.
                continue
            if kind == "phase":
                worker.phase = value
                worker.last_beat = monotonic()
            elif kind == "result":
                completions.append(value)
        return completions

    def _retire_or_respawn(self, worker):
        """Remove a dead worker's bookkeeping and fork its replacement."""
        try:
            self._sel.unregister(worker.read_fd)
        except KeyError:  # repro: noqa[RES002] already unregistered by a racing death path
            pass
        for fd in (worker.read_fd, worker.task_fd):
            try:
                os.close(fd)
            except OSError:  # repro: noqa[RES002] fd already closed; the kernel freed it with the process
                pass
        if worker in self._workers:
            self._workers.remove(worker)
        if not self._closed:
            self.respawns += 1
            self._spawn_worker()

    def _on_death(self, worker, expected=False):
        """Handle one worker's exit (EOF/SIGKILL); returns completions.

        An *expected* death (clean recycle) just swaps in a fresh fork.
        An unexpected one counts in ``deaths``, and its in-flight task is
        re-dispatched under the same seed — or settled as a
        :class:`TaskFailure` once ``task_retries`` is exhausted.
        """
        if worker not in self._workers:
            return []  # already handled by an earlier path this poll
        _sigkill(worker.pid)
        exit_status = _reap(worker)
        task = worker.task
        worker.task = None
        clean_recycle = (expected or worker.retiring) and task is None
        self._retire_or_respawn(worker)
        if clean_recycle:
            self.recycles += 1
            self._metrics.counter("parallel.pool_recycles").inc()
            self._feed()
            return []
        self.deaths += 1
        self._metrics.counter("parallel.pool_deaths").inc()
        self._tracer.event(
            "parallel.worker_died",
            task=None if task is None else task["label"],
            exit_status=exit_status, phase=worker.phase,
        )
        completions = []
        if task is not None:
            if task["dispatch"] < self.task_retries:
                task = dict(task, dispatch=task["dispatch"] + 1)
                self._backlog.appendleft(task)
            else:
                phase = "" if worker.phase is None else \
                    ", last phase %r" % worker.phase
                completions.append((task["id"], TaskFailure(
                    task["ordinal"], "WorkerDied",
                    "worker process for task %s exited with status %r "
                    "before delivering a result%s"
                    % (task["label"], exit_status, phase),
                    exit_status=exit_status,
                )))
        self._feed()
        return completions

    def _watchdog_sweep(self, now):
        """SIGKILL workers past their task deadline; returns completions."""
        if self.task_deadline is None:
            return []
        completions = []
        for worker in list(self._workers):
            if worker.task is None or worker.started is None:
                continue
            elapsed = now - worker.started
            if elapsed < self.task_deadline:
                continue
            task = worker.task
            self._tracer.event(
                "guard.watchdog_kill", task=task["label"],
                elapsed=round(elapsed, 3), phase=worker.phase,
                dispatch=task["dispatch"],
            )
            self._metrics.counter("guard.watchdog_kills").inc()
            if task["dispatch"] >= self.task_retries:
                # Exhausted: settle here (with the watchdog reason) and
                # hand _on_death a task-less worker to replace.
                worker.task = None
                phase = "" if worker.phase is None else \
                    ", last phase %r" % worker.phase
                completions.append((task["id"], TaskFailure(
                    task["ordinal"], "WatchdogKilled",
                    "task %s exceeded its %.3gs deadline on %d dispatch(es) "
                    "(%.2fs elapsed%s)"
                    % (task["label"], self.task_deadline,
                       task["dispatch"] + 1, elapsed, phase),
                )))
                self.deaths += 1
                self._metrics.counter("parallel.pool_deaths").inc()
                _sigkill(worker.pid)
                _reap(worker)
                self._retire_or_respawn(worker)
                self._feed()
            else:
                _sigkill(worker.pid)
                completions.extend(self._on_death(worker))
        return completions

    def poll(self, timeout=0.0, wake=None):
        """Advance the pool; returns ``[(task_id, result_or_failure)]``.

        Drains finished results, detects and replaces dead workers,
        enforces the task deadline, and feeds backlogged tasks to idle
        workers.  ``timeout`` bounds the wait when nothing is ready;
        in-flight deadlines shorten it so a hung worker is killed on
        time rather than at the caller's cadence.

        ``wake`` is an optional readable file object (the serve daemon
        passes its listening socket).  It is registered in the pool's
        own selector, so the wait also ends the moment ``wake`` becomes
        readable and the caller blocks in one place only.  The pool
        never reads it; it stays registered until a poll passes a
        different one (or None).
        """
        if wake is not self._wake:
            if self._wake is not None:
                self._sel.unregister(self._wake)
            if wake is not None:
                self._sel.register(wake, selectors.EVENT_READ)
            self._wake = wake
        self._feed()
        completions = []
        if self.task_deadline is not None:
            now = monotonic()
            deadlines = [
                max(0.0, worker.started + self.task_deadline - now)
                for worker in self._workers
                if worker.task is not None and worker.started is not None
            ]
            if deadlines:
                timeout = min(timeout, min(deadlines))
        for key, _ in self._sel.select(timeout):
            worker = key.data
            if worker is None:
                continue  # the wake source: the caller reads it
            try:
                chunk = os.read(worker.read_fd, 1 << 16)
            except OSError:
                chunk = b""
            if not chunk:
                completions.extend(self._on_death(worker))
                continue
            worker.buffer.extend(chunk)
            for value in self._drain_worker(worker):
                completions.append(self._settle(worker, value))
        completions.extend(self._watchdog_sweep(monotonic()))
        self._feed()
        return completions

    def _settle(self, worker, value):
        task = worker.task
        worker.task = None
        worker.jobs += 1
        worker.last_beat = monotonic()
        envelope = value["envelope"]
        _merge_worker_telemetry(envelope)
        if envelope["ok"]:
            outcome = envelope["result"]
        else:
            ordinal = 0 if task is None else task["ordinal"]
            outcome = TaskFailure(
                ordinal, envelope["reason"], envelope["message"],
                envelope.get("traceback", ""),
            )
        if (self.recycle_after is not None
                and worker.jobs >= self.recycle_after
                and not worker.retiring):
            worker.retiring = True
            try:
                _send_frame(worker.task_fd, ("stop",))
            except OSError:  # repro: noqa[RES002] worker died right after its result; the EOF path replaces it
                pass
        return (value["id"], outcome)

    # ------------------------------------------------------------------
    def stats(self):
        """JSON-safe supervision snapshot for health reporting."""
        now = monotonic()
        return {
            "workers": [
                {
                    "pid": worker.pid,
                    "jobs": worker.jobs,
                    "in_flight": (None if worker.task is None
                                  else worker.task["label"]),
                    "phase": worker.phase,
                    "last_beat_age": round(now - worker.last_beat, 3),
                    "retiring": worker.retiring,
                }
                for worker in self._workers
            ],
            "deaths": self.deaths,
            "respawns": self.respawns,
            "recycles": self.recycles,
            "backlog": len(self._backlog),
        }

    def close(self):
        """Stop every worker (stop frame, then SIGKILL-backed reap)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                _send_frame(worker.task_fd, ("stop",))
            except OSError:  # repro: noqa[RES002] worker already dead; the reap below collects it
                pass
        for worker in self._workers:
            for fd in (worker.task_fd, worker.read_fd):
                try:
                    os.close(fd)
                except OSError:  # repro: noqa[RES002] fd already closed by a death path
                    pass
            _reap(worker, kill_after=0.5)
        self._workers = []
        self._sel.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False
