"""Pure-python clients for the taint-checking service.

Two transports over one message vocabulary:

* :class:`ServeClient` — blocking sockets; the ergonomic choice for
  tests, tools, and the executable docs.
* :class:`AsyncServeClient` — asyncio streams; what the load generator
  multiplexes thousands of simulated clients over.

Both honour the protocol's overload contract: a ``retry`` frame is not
an error — the client sleeps and resends the same request, up to
``max_retries`` attempts (:class:`RetryExhausted` after that).  Nothing
is ever dropped on either side.  The sleep is a
:class:`DecorrelatedBackoff`: the server's ``backoff_ms`` hint is a
*floor-clamped base*, never a literal delay — a hint of ``0`` cannot
busy-spin, and decorrelated jitter keeps synchronized clients from
retrying in lockstep herds.  The jitter stream is seedable per client,
so loadgen runs stay reproducible.

:func:`record_trace` is the producer half of remote checking: it runs
a local CPU under :class:`repro.trace.TraceRecorder`, whose slices are
the ``events`` batches the clients send.  :func:`local_reference` runs
the same program under an in-process
:class:`repro.pipeline.StreamingPipeline` built from the served
defaults, so callers can assert the served result is bit-identical.
"""

from __future__ import annotations

import itertools
import random
import socket
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.serve.protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    canonical_signature,
    encode_frame,
)
from repro.trace.record import TraceRecorder


class ServeError(Exception):
    """Server answered ``error`` (or the transport broke)."""

    def __init__(self, detail: str, code: Optional[str] = None) -> None:
        super().__init__(detail)
        self.code = code


class RetryExhausted(ServeError):
    """The admission layer kept answering RETRY past ``max_retries``."""

    def __init__(self, reason: str, attempts: int) -> None:
        super().__init__(
            f"request still refused ({reason}) after {attempts} attempts",
            code="retry",
        )
        self.reason = reason
        self.attempts = attempts


#: Per-process fallback seed stream: distinct clients in one process
#: get distinct (but reproducible) jitter even when no seed is passed.
_BACKOFF_SEEDS = itertools.count(0x1A7C4)


class DecorrelatedBackoff:
    """Deterministic decorrelated-jitter retry delays (AWS style).

    The server's ``backoff_ms`` hint is treated as a base, clamped to
    ``[floor, cap]`` — a hint of ``0`` therefore never busy-spins.
    Each delay is drawn uniformly from ``[base, 3 * previous]`` (capped),
    so consecutive retries spread out and simultaneous clients with
    different seeds decorrelate instead of herding.  Call
    :meth:`reset` at the start of each logical request so delays don't
    carry over between requests.
    """

    def __init__(
        self,
        seed: Optional[int] = None,
        floor: float = 0.002,
        cap: float = 5.0,
    ) -> None:
        if floor <= 0 or cap < floor:
            raise ValueError("need 0 < floor <= cap")
        self.floor = floor
        self.cap = cap
        self.seed = next(_BACKOFF_SEEDS) if seed is None else int(seed)
        self._rng = random.Random(self.seed)
        self._previous = 0.0

    def reset(self) -> None:
        """Forget the escalation state (new logical request)."""
        self._previous = 0.0

    def next_delay(self, hint_ms: float) -> float:
        """The next sleep, in seconds, for a ``backoff_ms`` hint."""
        base = min(self.cap, max(self.floor, float(hint_ms) / 1000.0))
        upper = min(self.cap, 3.0 * max(self._previous, base))
        delay = self._rng.uniform(base, upper) if upper > base else base
        self._previous = delay
        return delay


@dataclass
class ServedResult:
    """A terminal ``result`` frame, parsed."""

    signature: Dict
    stats: Dict
    halted: bool
    events: int
    retries: int = 0

    @classmethod
    def from_message(cls, message: Dict, retries: int = 0) -> "ServedResult":
        return cls(
            signature=message.get("signature", {}),
            stats=message.get("stats", {}),
            halted=bool(message.get("halted", False)),
            events=int(message.get("events", 0)),
            retries=retries + int(message.get("retries", 0)),
        )


# ------------------------------------------------------------- trace side


def record_trace(
    make_cpu: Callable, max_steps: int = 1_000_000
) -> TraceRecorder:
    """Run a fresh CPU from ``make_cpu`` and return its recorded stream.

    ``len()`` of the result counts its events (steps, inputs, outputs
    and the halt), and ``trace[a:b]`` is the wire batch of events ``a``
    to ``b - 1``.
    """
    from repro.machine.cpu import ExecutionError

    cpu = make_cpu()
    recorder = TraceRecorder()
    cpu.attach(recorder)
    try:
        cpu.run(max_steps)
    except ExecutionError:
        pass
    return recorder


def local_reference(
    make_cpu: Callable,
    queue_capacity: int = 256,
    drain_batch: int = 64,
    max_steps: int = 1_000_000,
) -> Dict:
    """The bit-identity oracle: a local P-LATCH run's canonical result.

    Returns the same ``{"signature": ..., "stats": ...}`` shape a
    served stream produces, computed by attaching a
    :class:`repro.pipeline.StreamingPipeline` to a fresh local CPU.
    Its config comes from the server's own wire defaults
    (:func:`repro.serve.session.pipeline_config_from_wire`), so the
    oracle and an unconfigured served stream share one configuration.
    """
    from repro.machine.cpu import ExecutionError
    from repro.pipeline.pipeline import StreamingPipeline
    from repro.serve.session import _stats_payload, pipeline_config_from_wire

    cpu = make_cpu()
    pipeline = StreamingPipeline(cpu, config=pipeline_config_from_wire(
        {"queue_capacity": queue_capacity, "drain_batch": drain_batch}
    ))
    try:
        cpu.run(max_steps)
    except ExecutionError:
        pass
    pipeline.finish()
    return {
        "signature": canonical_signature(pipeline.engine),
        "stats": _stats_payload(pipeline),
    }


# ------------------------------------------------------------- sync client


def fetch_telemetry(
    host: str, port: int, mode: str = "text", timeout: float = 10.0
):
    """Scrape a running server's ``telemetry`` verb, no session needed.

    Returns the Prometheus-style exposition text (``mode="text"``) or
    the full telemetry-sample dict (``mode="json"``).  Raises
    :class:`ServeError` when telemetry is disabled server-side.
    """
    decoder = FrameDecoder()
    pending: List[Dict] = []
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(encode_frame({"type": "telemetry", "mode": mode}))
        while not pending:
            data = sock.recv(65536)
            if not data:
                raise ServeError("server closed the connection")
            pending.extend(decoder.feed(data))
    reply = pending[0]
    if reply.get("type") == "error":
        raise ServeError(str(reply.get("detail")), code=reply.get("code"))
    if reply.get("type") != "telemetry":
        raise ServeError(f"unexpected reply type {reply.get('type')!r}")
    if mode == "json":
        return reply.get("sample")
    return str(reply.get("body", ""))


class ServeClient:
    """Blocking-socket client for one tenant session.

    Args:
        host / port: server address.
        tenant: tenant name sent in ``hello``.
        timeout: socket timeout per read, seconds.
        max_retries: RETRY answers tolerated per request before
            :class:`RetryExhausted`.
        sleep: injectable backoff sleeper (tests pass a stub).
        backoff_seed: seed for the decorrelated retry jitter; omit for
            a per-process fallback (distinct per client, reproducible
            within one process).
        trace_context: optional :class:`repro.obs.TraceContext` wire
            dict propagated to the server's spans.
    """

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str = "default",
        timeout: float = 30.0,
        max_retries: int = 200,
        sleep: Callable[[float], None] = time.sleep,
        backoff_seed: Optional[int] = None,
        trace_context: Optional[Dict] = None,
    ) -> None:
        self.tenant = tenant
        self.max_retries = max_retries
        self._sleep = sleep
        self._backoff = DecorrelatedBackoff(seed=backoff_seed)
        self._decoder = FrameDecoder()
        self._pending: List[Dict] = []
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self.limits = self._hello(trace_context)

    # ---------------------------------------------------------- transport

    def _send(self, message: Dict) -> None:
        self._sock.sendall(encode_frame(message))

    def _recv(self) -> Dict:
        while not self._pending:
            data = self._sock.recv(65536)
            if not data:
                raise ServeError("server closed the connection")
            self._pending.extend(self._decoder.feed(data))
        return self._pending.pop(0)

    def _roundtrip(self, message: Dict) -> Dict:
        self._send(message)
        return self._recv()

    def _checked(self, message: Dict, *expected: str) -> Dict:
        reply = self._roundtrip(message)
        if reply.get("type") == "error":
            raise ServeError(
                str(reply.get("detail")), code=reply.get("code")
            )
        if expected and reply.get("type") not in expected:
            raise ServeError(
                f"unexpected reply type {reply.get('type')!r}"
            )
        return reply

    def _with_retries(self, message: Dict, *expected: str):
        """Roundtrip honouring RETRY backoff; returns (reply, retries)."""
        retries = 0
        self._backoff.reset()
        while True:
            reply = self._checked(message, *(expected + ("retry",)))
            if reply.get("type") != "retry":
                return reply, retries
            retries += 1
            if retries > self.max_retries:
                raise RetryExhausted(str(reply.get("reason")), retries)
            self._sleep(
                self._backoff.next_delay(int(reply.get("backoff_ms", 1)))
            )

    # ------------------------------------------------------------ protocol

    def _hello(self, trace_context: Optional[Dict]) -> Dict:
        message = {
            "type": "hello",
            "proto": PROTOCOL_VERSION,
            "tenant": self.tenant,
        }
        if trace_context is not None:
            message["trace"] = trace_context
        reply = self._checked(message, "welcome")
        return dict(reply.get("limits", {}))

    def ping(self) -> bool:
        """Liveness probe."""
        return self._checked({"type": "ping"}, "pong")["type"] == "pong"

    def open_stream(
        self,
        pipeline: Optional[Dict] = None,
        latch: Optional[Dict] = None,
    ):
        """Open a streamed-trace session; returns (stream_id, retries)."""
        message: Dict = {"type": "stream_open"}
        if pipeline:
            message["pipeline"] = pipeline
        if latch:
            message["latch"] = latch
        reply, retries = self._with_retries(message, "stream_ack")
        return str(reply["stream"]), retries

    def send_events(self, stream: str, batch: Dict) -> int:
        """Send one batch (retrying on RETRY); returns retries taken."""
        _, retries = self._with_retries(
            {"type": "events", "stream": stream, "batch": batch}, "ok"
        )
        return retries

    def query(self, stream: str, address: int, size: int) -> Dict:
        """Online taint query against an open stream."""
        return self._checked(
            {"type": "query", "stream": stream,
             "address": address, "size": size},
            "taint",
        )

    def close_stream(self, stream: str) -> Dict:
        """Finish the stream; returns the raw ``result`` frame."""
        return self._checked(
            {"type": "stream_close", "stream": stream}, "result"
        )

    # ------------------------------------------------------- conveniences

    def check_trace(
        self,
        events: TraceRecorder,
        batch_size: Optional[int] = None,
        pipeline: Optional[Dict] = None,
        latch: Optional[Dict] = None,
    ) -> ServedResult:
        """Stream a recorded trace end to end and return the result."""
        limit = int(self.limits.get("max_batch") or 0)
        if batch_size is None:
            batch_size = limit if limit > 0 else 64
        elif limit > 0:
            batch_size = min(batch_size, limit)
        if batch_size < 1:
            raise ServeError(
                "tenant has no admissible batch size (paused tenant?)"
            )
        stream, retries = self.open_stream(pipeline=pipeline, latch=latch)
        for start in range(0, len(events), batch_size):
            retries += self.send_events(
                stream, events[start:start + batch_size]
            )
        result = self.close_stream(stream)
        return ServedResult.from_message(result, retries=retries)

    def submit_job(self, job: Dict) -> ServedResult:
        """Whole-job mode: server assembles and executes ``job``."""
        reply, retries = self._with_retries(
            {"type": "submit", "job": job}, "result"
        )
        return ServedResult.from_message(reply, retries=retries)

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ------------------------------------------------------------ async client


class AsyncServeClient:
    """Asyncio-streams client; one instance per simulated connection.

    Mirrors :class:`ServeClient` with ``await`` in front of every
    roundtrip; backoff uses ``asyncio.sleep`` (injectable via
    ``sleep``) so thousands of clients interleave on one loop, each
    with its own decorrelated jitter stream (``backoff_seed``).
    """

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str = "default",
        max_retries: int = 200,
        backoff_seed: Optional[int] = None,
        sleep: Optional[Callable] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.tenant = tenant
        self.max_retries = max_retries
        self._backoff = DecorrelatedBackoff(seed=backoff_seed)
        self._sleep = sleep
        self.limits: Dict = {}
        self.retry_events = 0
        self._reader = None
        self._writer = None

    async def connect(self) -> "AsyncServeClient":
        import asyncio

        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        reply = await self._checked(
            {"type": "hello", "proto": PROTOCOL_VERSION,
             "tenant": self.tenant},
            "welcome",
        )
        self.limits = dict(reply.get("limits", {}))
        return self

    async def _roundtrip(self, message: Dict) -> Dict:
        from repro.serve.protocol import decode_payload

        self._writer.write(encode_frame(message))
        await self._writer.drain()
        header = await self._reader.readexactly(4)
        payload = await self._reader.readexactly(
            int.from_bytes(header, "big")
        )
        return decode_payload(payload)

    async def _checked(self, message: Dict, *expected: str) -> Dict:
        reply = await self._roundtrip(message)
        if reply.get("type") == "error":
            raise ServeError(
                str(reply.get("detail")), code=reply.get("code")
            )
        if expected and reply.get("type") not in expected:
            raise ServeError(
                f"unexpected reply type {reply.get('type')!r}"
            )
        return reply

    async def _with_retries(self, message: Dict, *expected: str) -> Dict:
        import asyncio

        sleep = self._sleep if self._sleep is not None else asyncio.sleep
        retries = 0
        self._backoff.reset()
        while True:
            reply = await self._checked(message, *(expected + ("retry",)))
            if reply.get("type") != "retry":
                return reply
            retries += 1
            self.retry_events += 1
            if retries > self.max_retries:
                raise RetryExhausted(str(reply.get("reason")), retries)
            await sleep(
                self._backoff.next_delay(int(reply.get("backoff_ms", 1)))
            )

    async def check_trace(self, events: TraceRecorder) -> ServedResult:
        """Stream a recorded trace end to end and return the result."""
        before = self.retry_events
        limit = int(self.limits.get("max_batch") or 0)
        batch_size = limit if limit > 0 else 64
        ack = await self._with_retries({"type": "stream_open"}, "stream_ack")
        stream = str(ack["stream"])
        for start in range(0, len(events), batch_size):
            await self._with_retries(
                {"type": "events", "stream": stream,
                 "batch": events[start:start + batch_size]},
                "ok",
            )
        result = await self._checked(
            {"type": "stream_close", "stream": stream}, "result"
        )
        return ServedResult.from_message(
            result, retries=self.retry_events - before
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
