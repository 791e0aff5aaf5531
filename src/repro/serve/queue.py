"""Journal-backed job queue with exactly-once recovery.

The queue is the in-memory view of the journal: ``accept`` journals a
job (fsynced) before queuing it, settlement journals the outcome before
exposing it, and :func:`recover` rebuilds both maps from a replayed
journal.  Because every handler is a pure function of ``(payload,
seed)`` and the seed derives from the job id
(:func:`repro.serve.router.job_seed`), re-executing an
accepted-but-unsettled job after a crash yields bytes identical to the
run that never crashed — replay is *safe* re-execution, and settled
jobs are never re-executed at all (their results ride in the journal).

:meth:`JobQueue.compact` folds the whole settled history into one
``checkpoint`` record plus re-``accepted`` records for every live job
(see :meth:`repro.serve.journal.Journal.compact` for the crash-safety
sequencing), which bounds the on-disk journal to O(live jobs +
checkpoint) without weakening any replay guarantee.

Every job spec and settlement is held as
:class:`~repro.serve.protocol.Encoded` fields, encoded exactly once (the
spec at ``accept``, a ``done`` result in the worker that produced it),
and decoded only when someone reads ``outcomes`` or ``accepted``.  The
journal records, the ``done`` responses and the compaction checkpoint
splice those fields, so a compaction re-encodes nothing.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping

from ..telemetry import get_metrics
from .journal import Journal, read_journal
from .protocol import decode_fields, encode_fields

__all__ = ["JobQueue", "recover"]


class _DecodedView(Mapping):
    """Read-only ``job id -> dict`` view over encoded fields; each lookup
    decodes a fresh dict, membership and length never decode."""

    __slots__ = ("_fields",)

    def __init__(self, fields):
        self._fields = fields

    def __getitem__(self, job_id):
        return decode_fields(self._fields[job_id])

    def __contains__(self, job_id):
        return job_id in self._fields

    def __iter__(self):
        return iter(self._fields)

    def __len__(self):
        return len(self._fields)


class JobQueue:
    """Pending jobs + settled outcomes, every transition journaled.

    ``pending`` maps job id -> job dict in acceptance order (dispatch
    order is acceptance order, which keeps replayed executions in the
    same order the crashed daemon would have used).  ``taken`` holds
    jobs handed to a dispatcher but not yet settled — still the
    daemon's responsibility (a crash replays them), and still counted
    in :meth:`depth` so admission control sees honest load while the
    persistent pool works.  ``outcomes`` maps job id -> settlement dict
    (``{"status": "done", "result": ...}`` or ``{"status": "failed",
    "reason": ..., "message": ...}``).  ``accepted`` maps every job id
    ever accepted -> its job spec, regardless of where the job is now —
    it is how a retried submit of an id the daemon already holds is
    recognized as the *same* job instead of a duplicate (see
    :meth:`ReproService._handle_submit`).  Both are read-only views that
    decode a fresh dict per lookup.
    """

    def __init__(self, journal):
        if not isinstance(journal, Journal):
            journal = Journal(journal)
        self.journal = journal
        self.pending = OrderedDict()
        self.taken = OrderedDict()
        self._specs = {}
        self._settled = {}
        self._seq = 0

    @property
    def accepted(self):
        """Every job id ever accepted -> its spec (decoded on lookup)."""
        return _DecodedView(self._specs)

    @property
    def outcomes(self):
        """Every settled job id -> its settlement (decoded on lookup)."""
        return _DecodedView(self._settled)

    # ------------------------------------------------------------------
    def depth(self):
        return len(self.pending) + len(self.taken)

    def accept(self, job):
        """Journal (fsync) then queue one job; returns its id.

        After this returns, the job is recoverable: a SIGKILL at any
        later point leaves an ``accepted`` record that replay turns
        back into a pending job.  Each field of the spec is encoded
        once, here, for this record and every later checkpoint.
        """
        job_id = job["job_id"]
        if job_id in self._specs:
            raise ValueError("duplicate job id %r" % job_id)
        spec = encode_fields(job)
        self._seq += 1
        self.journal.append("accepted", fsync=True, seq=self._seq, **spec)
        self.pending[job_id] = dict(job)
        self._specs[job_id] = spec
        get_metrics().counter("serve.accepted").inc()
        return job_id

    def settle_done(self, job_id, result):
        """Journal a completed job's result and retire it from pending.

        ``result`` may already be :class:`~repro.serve.protocol.Encoded`
        (what the daemon's workers return); it is then written as is.
        """
        outcome = encode_fields({"status": "done", "result": result})
        self.journal.append("done", job_id=job_id, result=outcome["result"])
        self._retire(job_id, outcome)
        get_metrics().counter("serve.completed").inc()

    def settle_failed(self, job_id, reason, message=""):
        """Journal a failed job (typed reason) and retire it."""
        outcome = encode_fields(
            {"status": "failed", "reason": reason, "message": message}
        )
        self.journal.append("failed", job_id=job_id,
                            reason=outcome["reason"],
                            message=outcome["message"])
        self._retire(job_id, outcome)
        get_metrics().counter("serve.failed").inc()

    def _retire(self, job_id, outcome):
        self.pending.pop(job_id, None)
        self.taken.pop(job_id, None)
        self._settled[job_id] = outcome

    def outcome(self, job_id):
        """The settlement for ``job_id``, or None while pending/unknown."""
        return self.outcomes.get(job_id)

    def settlement(self, job_id):
        """The settlement for ``job_id`` with its fields still
        :class:`~repro.serve.protocol.Encoded` (what the daemon splices
        into a ``result`` response), or None while pending/unknown."""
        return self._settled.get(job_id)

    def take(self, limit):
        """Dequeue up to ``limit`` jobs (acceptance order) for dispatch.

        Taken jobs stay the daemon's responsibility: they move to
        ``taken`` (still in the recovery set and still counted in
        ``depth``) and are only retired by a settlement record, so a
        crash mid-execution replays them.
        """
        batch = []
        while self.pending and len(batch) < limit:
            job_id, job = self.pending.popitem(last=False)
            self.taken[job_id] = job
            batch.append(job)
        return batch

    def requeue(self, job):
        """Put an unsettled job back at the *front* (drain interrupted)."""
        self.taken.pop(job["job_id"], None)
        self.pending[job["job_id"]] = job
        self.pending.move_to_end(job["job_id"], last=False)

    def compact(self):
        """Fold the journal into one checkpoint segment.

        The checkpoint carries every settled outcome (with its job spec,
        so idempotent resubmits still match) and the acceptance counter;
        live jobs — taken first, then pending, preserving acceptance
        order — are re-journaled as fresh ``accepted`` records.  Replay
        of the compacted journal is byte-identical to replay of the
        uncompacted one.  Every record splices the fields encoded at
        accept and settlement, so nothing is encoded again.  Returns
        the new active segment path.
        """
        settled_specs = {
            job_id: spec for job_id, spec in self._specs.items()
            if job_id in self._settled
        }
        bodies = [{
            "type": "checkpoint",
            "seq": self._seq,
            "outcomes": self._settled,
            "accepted": settled_specs,
        }]
        for job_id in list(self.taken) + list(self.pending):
            bodies.append({"type": "accepted", **self._specs[job_id]})
        path = self.journal.compact(bodies)
        get_metrics().counter("serve.compactions").inc()
        return path

    def mark_stop(self):
        """Journal the clean-shutdown marker (fsynced)."""
        self.journal.append("stop", fsync=True)

    def close(self):
        self.journal.close()


def recover(journal_path):
    """Rebuild a :class:`JobQueue` from a journal file.

    Returns ``(queue, stats)`` where ``stats`` is the
    :class:`repro.serve.journal.JournalStats` of the replay.  Every
    verified ``accepted`` record without a matching settlement becomes a
    pending job again — exactly once, in acceptance order; settled jobs
    come back as outcomes and are never re-executed.  A ``checkpoint``
    record resets the rebuild to its recorded state (replay across a
    compaction is byte-identical to replay of the uncompacted journal).
    """
    stats = read_journal(journal_path)
    queue = JobQueue(Journal(journal_path))
    for body in stats.records:
        kind = body.get("type")
        if kind == "accepted":
            job = {
                key: value for key, value in body.items()
                if key not in ("type", "seq")
            }
            queue.pending[job["job_id"]] = job
            queue._specs[job["job_id"]] = encode_fields(job)
            queue._seq = max(queue._seq, int(body.get("seq", 0)))
        elif kind == "done":
            queue.pending.pop(body.get("job_id"), None)
            queue._settled[body.get("job_id")] = encode_fields(
                {"status": "done", "result": body.get("result")}
            )
        elif kind == "failed":
            queue.pending.pop(body.get("job_id"), None)
            queue._settled[body.get("job_id")] = encode_fields({
                "status": "failed",
                "reason": body.get("reason", "?"),
                "message": body.get("message", ""),
            })
        elif kind == "checkpoint":
            queue.pending.clear()
            queue.taken.clear()
            queue._settled = {
                job_id: encode_fields(outcome)
                for job_id, outcome in (body.get("outcomes") or {}).items()
            }
            queue._specs = {
                job_id: encode_fields(spec)
                for job_id, spec in (body.get("accepted") or {}).items()
            }
            queue._seq = max(queue._seq, int(body.get("seq", 0)))
    if queue.pending:
        get_metrics().counter("serve.replayed").inc(len(queue.pending))
    return queue, stats
