"""Wire protocol of the LATCH taint-checking service.

Framing
-------

Every message is one *frame*: a 4-byte big-endian payload length
followed by that many bytes of UTF-8 JSON.  JSON keeps the protocol
dependency-free and debuggable (``nc`` + ``python -m json.tool`` reads
a capture); the length prefix makes message boundaries explicit so the
server never scans for delimiters inside event batches.  Binary fields
(event rows, input payload bytes) travel base64-encoded.

Messages
--------

Client → server (``type`` field):

=================  =====================================================
``hello``          open a tenant session: ``tenant``, ``proto``, and an
                   optional ``trace`` (:class:`repro.obs.TraceContext`
                   wire dict) that parents the server-side spans
``submit``         whole-job mode: ``job`` holds assembly ``source``,
                   input ``files`` and optional config; the server
                   executes the program under a pipeline and replies
                   ``result``
``stream_open``    open one streamed-trace session → ``stream_ack``
``events``         ``stream`` id + ``batch`` of trace event rows (see
                   event batches below) → ``ok`` or ``retry``
``query``          online taint query: ``stream``, ``address``,
                   ``size`` → ``taint`` (forces a drain so the answer
                   reflects every acknowledged event)
``stream_close``   finish the stream → ``result``
``ping``           liveness → ``pong``
``telemetry``      live metrics scrape (allowed before ``hello``):
                   optional ``mode`` of ``"text"`` (Prometheus-style
                   exposition, the default) or ``"json"`` (the full
                   :class:`repro.obs.TelemetrySample` dict) →
                   ``telemetry``
=================  =====================================================

Server → client:

=================  =====================================================
``welcome``        session accepted; advertises per-tenant ``limits``
                   (``max_batch`` is the largest admissible batch)
``stream_ack``     stream opened; carries the ``stream`` id
``ok``             batch applied
``retry``          admission refused *without* dropping anything —
                   the 429 analogue: ``reason`` (``rate`` |
                   ``inflight`` | ``streams``) plus a ``backoff_ms``
                   hint; the client resends the same request later
``result``         terminal answer: ``signature`` (alerts + tainted
                   bytes + TRF), pipeline ``stats``, ``retries`` seen
``taint``          online query answer
``error``          protocol violation or failed job; terminal for the
                   offending request, the connection stays usable
``pong``           liveness answer
``telemetry``      scrape answer: ``mode`` plus ``body`` (text) or
                   ``sample`` (json)
=================  =====================================================

Event batches
-------------

An ``events`` batch is the commit stream in the row layout of
``.ltrace`` event traces (:mod:`repro.trace.rows`): a JSON object
whose ``steps``, ``inputs`` and ``outputs`` sections are base64 text of
fixed-width rows stamped with their ``seq`` positions, plus the input
``data`` blob, the ``strings`` pool, and ``halt`` on the batch that
ends the stream.  A step row carries only a step's dynamic fields (pc,
word, address, next pc, syscall); its registers and access size are
derived from the word (:func:`repro.machine.cpu.step_event`), never
transmitted.  So a remote trace rebuilds losslessly and the served
verdict is bit-identical to a local run.

The server counts a batch's events from its section lengths, which
must be whole rows, before admitting it, and decodes the whole batch
before the pipeline sees any of it.  A batch no recorder could have
written is a :class:`ProtocolError`, answered ``code="events"``.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List, Optional

from repro.trace import rows
from repro.trace.rows import KindedEvent

#: Protocol revision; ``hello`` carries it and the server refuses
#: mismatches (a later revision may negotiate instead).  Revision 2
#: dropped the register lists and access sizes from step records;
#: revision 3 sends event batches as ``.ltrace`` rows.
PROTOCOL_VERSION = 3

#: Hard ceiling on one frame's payload, guarding the length prefix
#: against garbage (and tenants against each other's memory use).
MAX_FRAME_BYTES = 8 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(Exception):
    """Malformed frame or message."""


def wire_value(kind, key: str, value):
    """``kind(value)`` for one request field; a bad value is a protocol error.

    Booleans must be real JSON booleans, since ``bool("false")`` is True.
    """
    if kind is bool and not isinstance(value, bool):
        raise ProtocolError(f"{key} must be a JSON boolean, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as error:
        raise ProtocolError(f"bad {key}: {error}") from error


# ------------------------------------------------------------------ frames


def encode_frame(message: Dict) -> bytes:
    """Serialise one message dict into a length-prefixed frame."""
    payload = json.dumps(
        message, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return _LENGTH.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> Dict:
    """Parse one frame payload back into a message dict."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable frame: {error}") from error
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("message must be an object with a 'type'")
    return message


class FrameDecoder:
    """Incremental frame splitter for byte-stream transports.

    Feed it whatever ``recv`` returned; it yields complete messages and
    buffers partial frames across calls — the sync client and the tests
    share it (the asyncio server reads frames with ``readexactly``
    instead).
    """

    def __init__(self, max_frame: int = MAX_FRAME_BYTES) -> None:
        self.max_frame = max_frame
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Dict]:
        """Absorb ``data``; return every message completed by it."""
        self._buffer.extend(data)
        messages = []
        while True:
            if len(self._buffer) < _LENGTH.size:
                return messages
            (length,) = _LENGTH.unpack_from(self._buffer)
            if length > self.max_frame:
                raise ProtocolError(
                    f"announced frame of {length} bytes exceeds "
                    f"{self.max_frame}"
                )
            end = _LENGTH.size + length
            if len(self._buffer) < end:
                return messages
            payload = bytes(self._buffer[_LENGTH.size:end])
            del self._buffer[:end]
            messages.append(decode_payload(payload))


# ----------------------------------------------------------- event batches


def batch_events(batch) -> int:
    """The event count of an ``events`` batch, from its section lengths."""
    try:
        return rows.batch_events(batch)
    except ValueError as error:
        raise ProtocolError(f"bad event batch: {error}") from error


def decode_batch(batch) -> List[KindedEvent]:
    """Decode a whole ``events`` batch, or a recorded trace, into
    ``(kind, payload)`` pairs (fails atomically)."""
    try:
        return rows.decode_batch(batch)
    except ValueError as error:
        raise ProtocolError(f"bad event batch: {error}") from error


# --------------------------------------------------------------- signature


def canonical_signature(engine) -> Dict:
    """The served-result fingerprint of a DIFT engine, JSON-canonical.

    Mirrors ``repro.check.oracle.state_signature`` — alerts, tainted
    byte addresses, per-register TRF tags — but in a JSON-stable shape
    (lists, string alert kinds) so a served result compares
    bit-identically against a local
    :func:`repro.serve.client.local_reference` run after one round trip
    through the wire.
    """
    return {
        "alerts": [
            [alert.kind.value, alert.pc] for alert in engine.alerts
        ],
        "tainted": list(engine.shadow.iter_tainted_bytes()),
        "trf": [list(engine.trf.get(r)) for r in range(16)],
    }


def canonical_json(value) -> str:
    """Deterministic JSON text (sorted keys, no whitespace)."""
    return json.dumps(value, separators=(",", ":"), sort_keys=True)


def retry_message(reason: str, backoff_ms: int) -> Dict:
    """The 429-style refusal frame."""
    return {"type": "retry", "reason": reason, "backoff_ms": backoff_ms}


def error_message(detail: str, code: Optional[str] = None) -> Dict:
    """A terminal error frame for one request."""
    message = {"type": "error", "detail": detail}
    if code is not None:
        message["code"] = code
    return message
