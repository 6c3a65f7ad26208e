"""``repro.serve`` — the asyncio multi-tenant taint-checking server.

One process serves many tenants over the length-prefixed protocol of
:mod:`repro.serve.protocol`.  Layering, outermost in:

* **connection handler** — frames in, frames out; adopts the client's
  :class:`~repro.obs.TraceContext` (from ``hello``) so ``repro-trace``
  can reconstruct a request's path client → server → gate → DIFT;
* **admission** — the bounded in-flight table plus per-tenant token
  buckets; overload answers ``retry`` frames with backoff hints, never
  drops (:mod:`repro.serve.admission`);
* **sessions** — one private detached pipeline per admitted stream,
  drained idempotently on any teardown order
  (:mod:`repro.serve.session`).

Pipeline work runs inline on the event loop: one batch is bounded by
``max_batch`` events, so fairness between tenants is batch-granular —
the same argument the streaming pipeline makes for its batched drains.
An explicit ``await asyncio.sleep(0)`` after each batch keeps a
firehose client from starving its neighbours.

:class:`ServerThread` hosts the loop in a daemon thread for the sync
client, the tests, and ``repro-serve selftest``.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.obs import FlightRecorder, MetricsRegistry, flight_path
from repro.obs.exposition import render_prometheus
from repro.obs.slo import SLOMonitor
from repro.obs.spans import SpanTracer, TraceContext
from repro.obs.telemetry import JsonlSink, RingSink, TelemetryExporter
from repro.serve.admission import (
    AdmissionController,
    InFlightTable,
    RetryAdvice,
    Slot,
)
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    batch_events,
    encode_frame,
    error_message,
    wire_value,
)
from repro.serve.session import JobRunner, StreamSession
from repro.serve.tenant import TenantDirectory, TenantLimits, TenantNameError

ENV_HOST = "REPRO_SERVE_HOST"
ENV_PORT = "REPRO_SERVE_PORT"
ENV_MAX_INFLIGHT = "REPRO_SERVE_MAX_INFLIGHT"
ENV_RATE = "REPRO_SERVE_RATE"
ENV_BURST = "REPRO_SERVE_BURST"
ENV_MAX_BATCH = "REPRO_SERVE_MAX_BATCH"
ENV_TELEMETRY_INTERVAL = "REPRO_SERVE_TELEMETRY_INTERVAL"
ENV_TELEMETRY_JSONL = "REPRO_SERVE_TELEMETRY_JSONL"
ENV_TELEMETRY_PORT = "REPRO_SERVE_TELEMETRY_PORT"
ENV_SLO = "REPRO_SERVE_SLO"


@dataclass(frozen=True)
class ServeConfig:
    """Structural parameters of one server instance.

    ``tenant_overrides`` pins named tenants to non-default limits
    (zero-capacity pause, premium burst).  ``max_batch`` bounds one
    ``events`` frame; the welcome message advertises the per-tenant
    effective value so clients chunk below both the frame bound and
    their own burst.
    """

    host: str = "127.0.0.1"
    port: int = 0            # 0 = ephemeral; resolved after start
    max_inflight: int = 64
    default_limits: TenantLimits = field(default_factory=TenantLimits)
    tenant_overrides: Mapping[str, TenantLimits] = field(
        default_factory=dict
    )
    max_batch: int = 512
    inflight_backoff_ms: int = 25
    max_backoff_ms: int = 1000
    # -- live telemetry plane (all off by default) ----------------------
    telemetry_interval: float = 0.0   # seconds; <= 0 disables the thread
    telemetry_jsonl: Optional[str] = None
    telemetry_port: Optional[int] = None  # None = off; 0 = ephemeral
    telemetry_ring: int = 64
    slo_rules: Sequence[str] = ()
    slo_load_shedding: bool = True
    flight_dir: Optional[str] = None  # $REPRO_FLIGHT_DIR overrides
    flight_capacity: int = 256

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.telemetry_ring < 1:
            raise ValueError("telemetry_ring must be >= 1")
        if self.flight_capacity < 1:
            raise ValueError("flight_capacity must be >= 1")

    @property
    def telemetry_enabled(self) -> bool:
        """True when any telemetry surface is requested."""
        return bool(
            self.telemetry_interval > 0
            or self.telemetry_jsonl
            or self.telemetry_port is not None
            or self.slo_rules
        )

    @classmethod
    def from_env(
        cls, env: Optional[Mapping[str, str]] = None, **overrides
    ) -> "ServeConfig":
        """Build a config from ``REPRO_SERVE_*`` variables."""
        env = os.environ if env is None else env
        values: Dict = {}
        host = env.get(ENV_HOST)
        if host:
            values["host"] = host
        for key, var in (
            ("port", ENV_PORT),
            ("max_inflight", ENV_MAX_INFLIGHT),
            ("max_batch", ENV_MAX_BATCH),
            ("telemetry_port", ENV_TELEMETRY_PORT),
        ):
            raw = env.get(var)
            if raw not in (None, ""):
                values[key] = int(raw)
        raw = env.get(ENV_TELEMETRY_INTERVAL)
        if raw not in (None, ""):
            values["telemetry_interval"] = float(raw)
        raw = env.get(ENV_TELEMETRY_JSONL)
        if raw:
            values["telemetry_jsonl"] = raw
        raw = env.get(ENV_SLO)
        if raw:
            values["slo_rules"] = tuple(
                rule.strip() for rule in raw.split(";") if rule.strip()
            )
        rate, burst = env.get(ENV_RATE), env.get(ENV_BURST)
        if rate or burst:
            base = TenantLimits()
            values["default_limits"] = replace(
                base,
                rate=float(rate) if rate else base.rate,
                burst=float(burst) if burst else base.burst,
            )
        values.update(overrides)
        return cls(**values)

    def effective_max_batch(self, limits: TenantLimits) -> int:
        """Largest batch this tenant can ever get admitted."""
        if limits.burst <= 0:
            return 0
        return min(self.max_batch, int(limits.burst))


class TaintServer:
    """The asyncio server; create, :meth:`start`, then serve.

    Args:
        config: structural parameters.
        registry: obs registry to publish into (one is created if
            omitted) — global rows under ``serve.*``, tenant rows under
            ``serve.tenant.<name>.*``.
        spans: optional :class:`~repro.obs.SpanTracer`; per-request
            spans are opened with ``kind="async"`` (requests from many
            connections overlap freely) and parent onto the client's
            wire-propagated context when ``hello`` carries one.
        clock: monotonic source injected into every token bucket
            (deterministic admission tests).
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        spans: Optional[SpanTracer] = None,
        clock=None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.obs = registry if registry is not None else MetricsRegistry()
        self.spans = spans
        clock = time.monotonic if clock is None else clock
        self.tenants = TenantDirectory(
            self.obs,
            default_limits=self.config.default_limits,
            overrides=dict(self.config.tenant_overrides),
            clock=clock,
        )
        self.inflight = InFlightTable(self.config.max_inflight)
        self.controller = AdmissionController(
            self.inflight,
            inflight_backoff_ms=self.config.inflight_backoff_ms,
            max_backoff_ms=self.config.max_backoff_ms,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._telemetry_server: Optional[asyncio.AbstractServer] = None
        self._connections = 0
        self._retries_sent = 0
        self._requests = 0
        self._stream_counter = 0
        # Bounded: this histogram lives as long as the server does.
        self._request_timer = self.obs.timer(
            "serve.request_seconds", unit="seconds",
            description="Wall-clock latency of every served request",
            mode="bounded",
        )
        self._register_gauges()
        self.flight: Optional[FlightRecorder] = None
        self.exporter: Optional[TelemetryExporter] = None
        self.monitor: Optional[SLOMonitor] = None
        self.ring: Optional[RingSink] = None
        self._build_telemetry()

    def _build_telemetry(self) -> None:
        config = self.config
        dump_path = flight_path(config.flight_dir)
        if dump_path is not None:
            self.flight = FlightRecorder(
                capacity=config.flight_capacity, path=dump_path
            )
        if not config.telemetry_enabled:
            return
        if self.flight is None:
            # Alerts need somewhere durable to land even without a
            # configured dump dir; an in-memory ring still feeds the
            # telemetry verb and tests.
            self.flight = FlightRecorder(capacity=config.flight_capacity)
        self.monitor = SLOMonitor(config.slo_rules, flight=self.flight)
        self.ring = RingSink(config.telemetry_ring)
        sinks = [self.ring]
        if config.telemetry_jsonl:
            sinks.append(JsonlSink(config.telemetry_jsonl))
        interval = config.telemetry_interval
        self.exporter = TelemetryExporter(
            self.obs,
            interval=interval if interval > 0 else 1.0,
            sinks=sinks,
            monitor=self.monitor,
            collect=self.publish_metrics,
        )
        self.exporter.on_tick(self._apply_health)

    def _apply_health(self, sample) -> None:
        self._health_gauge.set(sample.health)
        if self.config.slo_load_shedding:
            # One firing alert => RETRY hints double; each further
            # alert adds another multiple, capped by max_backoff_ms in
            # the controller itself.
            self.controller.pressure = 1.0 + len(sample.firing)

    # ------------------------------------------------------------- metrics

    def _register_gauges(self) -> None:
        scope = self.obs.scoped("serve")
        scope.gauge(
            "inflight", unit="slots",
            description="In-flight table entries in use",
            callback=lambda: len(self.inflight),
        )
        scope.gauge(
            "inflight_peak", unit="slots",
            description="Deepest the in-flight table has been",
            callback=lambda: self.inflight.peak,
        )
        scope.gauge(
            "tenants", unit="tenants",
            description="Tenants seen since startup",
            callback=lambda: len(self.tenants),
        )
        scope.gauge(
            "connections", unit="connections",
            description="Connections accepted since startup",
            callback=lambda: self._connections,
        )
        scope.gauge(
            "retries_sent", unit="responses",
            description="RETRY frames issued across all tenants",
            callback=lambda: self._retries_sent,
        )
        scope.gauge(
            "requests", unit="requests",
            description="Requests served (all kinds) since startup",
            callback=lambda: self._requests,
        )
        scope.gauge(
            "inflight_capacity", unit="slots",
            description="Configured in-flight table capacity",
            callback=lambda: self.config.max_inflight,
        )
        self._health_gauge = scope.gauge(
            "health", unit="fraction",
            description="SLO health: 1.0 = every objective holds",
        )
        self._health_gauge.set(1.0)
        scope.gauge(
            "divergences", unit="divergences",
            description="Soundness divergences reported by the latest "
                        "verification sweep (selftest publishes here)",
        )

    def publish_metrics(self) -> MetricsRegistry:
        """Publish all tenant counters; returns the shared registry."""
        self.tenants.publish_metrics()
        return self.obs

    def snapshot(self):
        """Publish and freeze the whole server's metric state."""
        return self.publish_metrics().snapshot()

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        if self.exporter is not None and self.config.telemetry_port is not None:
            self._telemetry_server = await asyncio.start_server(
                self._handle_exposition,
                self.config.host,
                self.config.telemetry_port,
            )
        if self.flight is not None and self.flight.path is not None:
            # No-op off the main thread (ServerThread); the foreground
            # CLI process gets dump-on-SIGTERM.
            self.flight.install()
        if self.exporter is not None and self.config.telemetry_interval > 0:
            self.exporter.start()

    @property
    def address(self):
        """The bound ``(host, port)`` (after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    @property
    def telemetry_address(self) -> Optional[Tuple[str, int]]:
        """Bound ``(host, port)`` of the exposition endpoint (or None)."""
        if self._telemetry_server is None or not self._telemetry_server.sockets:
            return None
        return self._telemetry_server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        """Run until cancelled."""
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Stop accepting and close the listener (graceful)."""
        if self.exporter is not None:
            self.exporter.stop(flush=True)
        if self._telemetry_server is not None:
            self._telemetry_server.close()
            await self._telemetry_server.wait_closed()
            self._telemetry_server = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ----------------------------------------------------------- span glue

    def _begin_request_span(self, name: str, context, **fields):
        if self.spans is None:
            return None
        parent = None
        if context is not None:
            parent = context.span_id
        return self.spans.begin(name, parent=parent, kind="async", **fields)

    def _finish_span(self, handle, **fields) -> None:
        if self.spans is not None and handle is not None:
            self.spans.finish(handle, **fields)

    # ----------------------------------------------------------- connection

    async def _handle_connection(self, reader, writer) -> None:
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            # Shutdown cancels handlers parked on reads; the finally
            # below has already released their sessions, and letting
            # the cancellation propagate makes asyncio's stream
            # callback log a spurious traceback per connection.
            pass

    async def _serve_connection(self, reader, writer) -> None:
        self._connections += 1
        tenant = None
        context: Optional[TraceContext] = None
        sessions: Dict[str, StreamSession] = {}

        async def send(message: Dict) -> None:
            writer.write(encode_frame(message))
            await writer.drain()

        try:
            while True:
                try:
                    header = await reader.readexactly(4)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                length = int.from_bytes(header, "big")
                if length > MAX_FRAME_BYTES:
                    await send(error_message(
                        f"frame of {length} bytes exceeds the limit",
                        code="frame",
                    ))
                    break
                try:
                    payload = await reader.readexactly(length)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                try:
                    from repro.serve.protocol import decode_payload

                    message = decode_payload(payload)
                except ProtocolError as error:
                    await send(error_message(str(error), code="frame"))
                    continue

                kind = message.get("type")
                if kind == "hello":
                    tenant, context, reply = self._do_hello(message)
                    await send(reply)
                    if reply["type"] == "error":
                        break
                    continue
                if kind == "ping":
                    await send({"type": "pong"})
                    continue
                if kind == "telemetry":
                    # Monitoring needs no tenant session: scrapers speak
                    # this verb before (or without) any hello.
                    await send(self._do_telemetry(message))
                    continue
                if tenant is None:
                    await send(error_message(
                        "hello must precede any request", code="state"
                    ))
                    continue

                started = time.perf_counter()
                if kind == "stream_open":
                    reply = self._do_stream_open(
                        tenant, message, sessions, context
                    )
                elif kind == "events":
                    reply = self._do_events(tenant, message, sessions)
                elif kind == "query":
                    reply = self._do_query(message, sessions)
                elif kind == "stream_close":
                    reply = self._do_stream_close(message, sessions)
                elif kind == "submit":
                    reply = self._do_submit(tenant, message, context)
                else:
                    await send(error_message(
                        f"unknown message type: {kind!r}", code="type"
                    ))
                    continue
                elapsed = time.perf_counter() - started
                self._requests += 1
                self._request_timer.record(elapsed)
                tenant.latency.record(elapsed)
                await send(reply)
                if kind in ("events", "submit"):
                    # Yield between batches so one firehose stream
                    # cannot starve other connections of the loop.
                    await asyncio.sleep(0)
        finally:
            # Disconnect teardown: drain every still-open session
            # idempotently and give its slot back.  A session that
            # already produced its result just releases.
            for session in sessions.values():
                session.close(disconnected=not session.finished)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # Shutdown may cancel the handler while the transport
                # drains; the sessions above are already released.
                pass

    # ----------------------------------------------------------- telemetry

    def _telemetry_sample(self):
        """Latest exporter sample, taking one on demand before the
        first periodic tick (and always when the thread is off)."""
        if self.exporter is None:
            return None
        sample = self.exporter.latest()
        if sample is None or self.config.telemetry_interval <= 0:
            sample = self.exporter.tick()
        return sample

    def _do_telemetry(self, message: Dict) -> Dict:
        if self.exporter is None:
            return error_message(
                "telemetry is not enabled on this server", code="telemetry"
            )
        sample = self._telemetry_sample()
        mode = message.get("mode", "text")
        if mode == "json":
            return {"type": "telemetry", "mode": "json",
                    "sample": sample.to_dict()}
        if mode != "text":
            return error_message(
                f"unknown telemetry mode {mode!r} (text|json)",
                code="telemetry",
            )
        return {"type": "telemetry", "mode": "text",
                "body": render_prometheus(sample)}

    async def _handle_exposition(self, reader, writer) -> None:
        # Plain-TCP scrape endpoint: connect, read the exposition text,
        # connection closes.  No protocol framing, so curl/nc work.
        try:
            sample = self._telemetry_sample()
            if sample is not None:
                writer.write(render_prometheus(sample).encode("utf-8"))
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    # ------------------------------------------------------------ handlers

    def _do_hello(self, message: Dict):
        proto = message.get("proto")
        if proto != PROTOCOL_VERSION:
            return None, None, error_message(
                f"unsupported protocol revision {proto!r} "
                f"(server speaks {PROTOCOL_VERSION})",
                code="proto",
            )
        try:
            tenant = self.tenants.get(str(message.get("tenant", "")))
        except TenantNameError as error:
            return None, None, error_message(str(error), code="tenant")
        context = None
        raw_context = message.get("trace")
        if raw_context is not None:
            try:
                context = TraceContext.from_wire(raw_context)
            except ValueError as error:
                return None, None, error_message(str(error), code="trace")
        limits = tenant.limits
        return tenant, context, {
            "type": "welcome",
            "tenant": tenant.name,
            "limits": {
                "max_batch": self.config.effective_max_batch(limits),
                "rate": limits.rate,
                "burst": limits.burst,
                "max_streams": limits.max_streams,
            },
        }

    def _refuse(self, tenant, advice: RetryAdvice) -> Dict:
        tenant.record_rejection(advice)
        self._retries_sent += 1
        if self.spans is not None:
            self.spans.event(
                "serve.retry", tenant=tenant.name, reason=advice.reason,
                backoff_ms=advice.backoff_ms,
            )
        return advice.message()

    def _do_stream_open(self, tenant, message, sessions, context) -> Dict:
        verdict = self.controller.admit_request(tenant, "stream")
        if isinstance(verdict, RetryAdvice):
            return self._refuse(tenant, verdict)
        assert isinstance(verdict, Slot)
        self._stream_counter += 1
        stream_id = f"s{self._stream_counter}"
        span = self._begin_request_span(
            "serve.stream", context, tenant=tenant.name, stream=stream_id
        )
        try:
            session = StreamSession(
                tenant, stream_id, verdict, self.controller,
                pipeline_overrides=message.get("pipeline"),
                latch_overrides=message.get("latch"),
            )
        except ProtocolError as error:
            self.controller.release(verdict)
            self._finish_span(span, outcome="error")
            return error_message(str(error), code="config")
        session.span = span
        sessions[stream_id] = session
        tenant.admitted += 1
        return {"type": "stream_ack", "stream": stream_id}

    def _session_for(self, message, sessions) -> StreamSession:
        stream_id = message.get("stream")
        session = sessions.get(stream_id)
        if session is None:
            raise ProtocolError(f"unknown stream: {stream_id!r}")
        return session

    def _do_events(self, tenant, message, sessions) -> Dict:
        try:
            session = self._session_for(message, sessions)
            batch = message.get("batch")
            count = batch_events(batch)
            if count > self.config.max_batch:
                raise ProtocolError(
                    f"batch of {count} events exceeds max_batch="
                    f"{self.config.max_batch}"
                )
            advice = self.controller.admit_events(tenant, count)
            if advice is not None:
                session.retries += 1
                return self._refuse(tenant, advice)
            count = session.feed(batch)
        except ProtocolError as error:
            return error_message(str(error), code="events")
        return {"type": "ok", "events": count}

    def _do_query(self, message, sessions) -> Dict:
        try:
            session = self._session_for(message, sessions)
            return session.query(
                wire_value(int, "address", message.get("address", -1)),
                wire_value(int, "size", message.get("size", 0)),
            )
        except ProtocolError as error:
            return error_message(str(error), code="query")

    def _do_stream_close(self, message, sessions) -> Dict:
        try:
            session = self._session_for(message, sessions)
        except ProtocolError as error:
            return error_message(str(error), code="close")
        result = dict(session.result())
        result["retries"] = session.retries
        self._finish_span(
            getattr(session, "span", None),
            outcome="result", events=session.events_fed,
        )
        session.close()
        del sessions[session.stream_id]
        return result

    def _do_submit(self, tenant, message, context) -> Dict:
        verdict = self.controller.admit_request(tenant, "job")
        if isinstance(verdict, RetryAdvice):
            return self._refuse(tenant, verdict)
        assert isinstance(verdict, Slot)
        runner = JobRunner(tenant, verdict, self.controller)
        span = self._begin_request_span(
            "serve.job", context, tenant=tenant.name
        )
        try:
            tenant.admitted += 1
            result = runner.run(message.get("job"))
            self._finish_span(span, outcome="result")
            return result
        except ProtocolError as error:
            self._finish_span(span, outcome="error")
            return error_message(str(error), code="job")
        finally:
            runner.release()


class ServerThread:
    """Run a :class:`TaintServer` event loop in a daemon thread.

    The sync client, the CLI selftest, and the executable docs all use
    this: start, read :attr:`address`, drive traffic from the calling
    thread, then :meth:`stop` for a clean shutdown (sessions left open
    by vanished clients are drained by their connection handlers).
    """

    def __init__(self, server: TaintServer) -> None:
        self.server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._failure: Optional[BaseException] = None

    def start(self, timeout: float = 10.0) -> "ServerThread":
        """Start the loop and wait until the listener is bound."""
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("server did not start in time")
        if self._failure is not None:
            raise RuntimeError(
                f"server failed to start: {self._failure!r}"
            )
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as error:  # pragma: no cover - bind failure
            self._failure = error
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.server.shutdown())
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    @property
    def address(self):
        """The bound ``(host, port)``."""
        return self.server.address

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the loop and join the thread."""
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout)


@contextmanager
def running_server(
    config: Optional[ServeConfig] = None,
    registry: Optional[MetricsRegistry] = None,
    spans: Optional[SpanTracer] = None,
    clock=None,
):
    """``with running_server(...) as (server, (host, port)):`` helper."""
    server = TaintServer(
        config=config, registry=registry, spans=spans, clock=clock
    )
    thread = ServerThread(server).start()
    try:
        yield server, thread.address
    finally:
        thread.stop()
