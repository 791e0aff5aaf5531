"""Wire protocol for the resampling service: length-prefixed JSON.

One message is a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON.  Every message is *canonical* JSON — sorted keys,
``(",", ":")`` separators, ASCII escapes — the same form the journal
checksums, so one encoding of a value serves the wire, the journal and
the compaction checkpoint alike.  The framing is deliberately the same
shape as the pool's result pipes (:mod:`repro.parallel.pool`): length
prefixes make torn messages detectable (a peer that dies mid-write
leaves a short read, never a half-parsed object), and JSON keeps every
payload inspectable from the journal and the trace.

Requests are ``{"verb": ..., ...}`` objects; responses always carry a
``"status"`` field from :data:`STATUSES`:

``ok``
    The request succeeded; the rest of the object is verb-specific.
``retry_after``
    Admission control shed the request.  ``retry_after`` (seconds) and
    ``reason`` say when and why to come back — the daemon has *not*
    accepted the work (see :mod:`repro.serve.admission`).
``pending``
    A ``result`` query for a job that is accepted but not yet settled.
``done`` / ``failed``
    A ``result`` query for a settled job.  ``done`` carries the
    handler's ``result``; ``failed`` carries the typed ``reason`` and
    ``message``.  :meth:`repro.serve.client.ServeClient.wait` treats
    either as settlement.
``not_found``
    A ``result`` query for an unknown job id.
``error``
    The request was malformed or the daemon is stopping.

Encode once
-----------
:class:`Encoded` wraps a value that is already canonical JSON text, and
:func:`iter_canonical` / :func:`canonical_json` splice it verbatim.
The daemon's workers return each handler result as an ``Encoded``
(:meth:`repro.serve.ReproService._run_job`), so the daemon itself never
encodes a result: the ``done`` journal record, the ``done`` response and
the compaction checkpoint all carry the worker's text.
"""

from __future__ import annotations

import json
import struct

__all__ = [
    "MAX_FRAME",
    "STATUSES",
    "Encoded",
    "ProtocolError",
    "canonical_json",
    "decode_fields",
    "encode",
    "encode_fields",
    "error_response",
    "iter_canonical",
    "ok_response",
    "read_message",
    "retry_after_response",
    "write_message",
]

#: Length prefix: 4-byte big-endian payload size (same as the pool pipes).
_FRAME_HEADER = struct.Struct(">I")

#: Upper bound on one message; a corrupt length prefix must not make the
#: reader try to allocate gigabytes.
MAX_FRAME = 64 << 20

STATUSES = (
    "ok", "retry_after", "pending", "done", "failed", "not_found", "error",
)


class ProtocolError(RuntimeError):
    """A malformed frame: oversized, torn, or undecodable payload."""


class Encoded:
    """A value already serialized as canonical JSON ``text``.

    The canonical encoders below splice ``text`` verbatim instead of
    encoding the value again.  Plain :func:`json.dumps` refuses an
    ``Encoded`` (``TypeError``), so one can never be mistaken for a
    JSON string.  Pickles as its text, which is how a worker ships a
    result home.
    """

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text

    def __reduce__(self):
        return (Encoded, (self.text,))

    def __repr__(self):
        return "Encoded(%r)" % (self.text[:60],)

    def decode(self):
        """The value back as Python objects (a fresh copy per call)."""
        return json.loads(self.text)


def _holds_encoded(obj):
    """True when a dict has an :class:`Encoded` value, at any depth of
    nested dicts.  Lists are never searched: an ``Encoded`` lives only
    directly under a dict key."""
    return any(
        isinstance(value, Encoded)
        or (isinstance(value, dict) and _holds_encoded(value))
        for value in obj.values()
    )


def iter_canonical(obj):
    """Canonical JSON of ``obj`` as a stream of text fragments.

    Joined, the fragments equal ``json.dumps(obj, sort_keys=True,
    separators=(",", ":"))`` with every :class:`Encoded` value replaced
    by its text.  A dict holding an ``Encoded`` (directly or in a nested
    dict) is walked key by key, and its keys must be strings; any other
    value is one ``json.dumps`` call.  Streaming lets a large checkpoint
    go to disk and into its checksum without ever being one string.
    """
    if isinstance(obj, Encoded):
        yield obj.text
    elif isinstance(obj, dict) and _holds_encoded(obj):
        separator = "{"
        for key in sorted(obj):
            yield separator + json.dumps(key) + ":"
            yield from iter_canonical(obj[key])
            separator = ","
        yield "}"
    else:
        yield json.dumps(obj, sort_keys=True, separators=(",", ":"))


def canonical_json(obj):
    """Canonical JSON text of ``obj`` (see :func:`iter_canonical`)."""
    return "".join(iter_canonical(obj))


def encode(value):
    """``value`` as :class:`Encoded` canonical JSON; an ``Encoded`` is
    returned as is."""
    if isinstance(value, Encoded):
        return value
    return Encoded(canonical_json(value))


def encode_fields(mapping):
    """A copy of ``mapping`` with each value run through :func:`encode`."""
    return {key: encode(value) for key, value in mapping.items()}


def decode_fields(fields):
    """Inverse of :func:`encode_fields`: a fresh dict of decoded values."""
    return {key: value.decode() for key, value in fields.items()}


def _recv_exact(sock, size):
    """Read exactly ``size`` bytes, or None on a clean EOF at a frame
    boundary; a torn frame (EOF mid-payload) raises ProtocolError."""
    chunks = []
    remaining = size
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            if remaining == size:
                return None
            raise ProtocolError(
                "peer closed mid-frame (%d of %d bytes missing)"
                % (remaining, size)
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_message(sock):
    """Read one JSON message; None when the peer closed cleanly."""
    header = _recv_exact(sock, _FRAME_HEADER.size)
    if header is None:
        return None
    (size,) = _FRAME_HEADER.unpack(header)
    if size > MAX_FRAME:
        raise ProtocolError(
            "frame of %d bytes exceeds the %d-byte limit" % (size, MAX_FRAME)
        )
    payload = _recv_exact(sock, size)
    if payload is None:
        raise ProtocolError("peer closed between header and payload")
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("undecodable frame payload: %s" % exc) from exc


def write_message(sock, obj):
    """Serialize ``obj`` as one length-prefixed canonical JSON frame;
    :class:`Encoded` values are spliced, not re-encoded."""
    payload = canonical_json(obj).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            "refusing to send a %d-byte frame (limit %d)"
            % (len(payload), MAX_FRAME)
        )
    sock.sendall(_FRAME_HEADER.pack(len(payload)) + payload)


def ok_response(**fields):
    """An ``ok`` response with verb-specific fields merged in."""
    return {"status": "ok", **fields}


def retry_after_response(retry_after, reason, **fields):
    """The structured load-shed response (work was NOT accepted)."""
    return {
        "status": "retry_after",
        "retry_after": round(float(retry_after), 3),
        "reason": reason,
        **fields,
    }


def error_response(message, **fields):
    return {"status": "error", "message": message, **fields}
