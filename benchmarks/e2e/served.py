"""served-streams: recorded traces streamed to ``repro-serve serve``.

The server runs in its own process with its defaults (scalar gate,
batch 1) and a ``--rate`` high enough that the token buckets never
refuse.  This process is the load generator: one asyncio loop, two
``AsyncServeClient`` connections and sixteen prepared traces, each the
``record_trace`` of a seeded one-request echo server or a 64-byte
``file_filter`` run, checked against ``local_reference``.

The generator alternates a closed loop (each connection sends its next
stream when the previous result arrives), for throughput, with an open
loop that releases streams at a fixed rate whether or not the server
keeps up.  Open-loop latency is timed from each stream's *due* time, so
a stall delays every stream queued behind it.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import random
import resource
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from ledger import (
    CLIENT_TARGETS,
    Ledger,
    coverage,
    layer_metrics,
    median,
    percentile,
    tail_percentile,
)
from live_path import reference_run

from repro.serve.client import (
    AsyncServeClient,
    ServeError,
    local_reference,
    record_trace,
)
from repro.serve.protocol import canonical_json
from repro.workloads import programs

HERE = Path(__file__).resolve().parent

TRACES = 16
CONNECTIONS = 2
#: Token-bucket refill rate handed to the server: far above any rate
#: the server can sustain, so admission never answers RETRY.
SERVER_RATE = 1e9
#: Open-loop offered load in streams per second.  With ~1.2K events per
#: stream this is ~15K events/s, about 40% of the closed-loop capacity
#: measured when the benchmark was written (~35-45K events/s, 2-vCPU VM).
OPEN_LOOP_RATE = 12.0
#: Share of an untraced run spent in the closed loop; the rest is the
#: open loop, long enough for >= 200 streams so p95 is supported.
CLOSED_SHARE = 0.25
#: The loops alternate in this many segments, so a slow spell of the
#: host hits a few closed-loop windows rather than the whole estimate;
#: throughput is the median over the closed-loop windows.
SEGMENTS = 5

CLIENT_ERRORS = (ServeError, ConnectionError, OSError,
                 asyncio.IncompleteReadError)


# ---------------------------------------------------------------- traces


@dataclass
class Prepared:
    factory: Callable
    events: List[Dict]
    signature: str
    stats: str


def trace_factories(seed: int, count: int = TRACES) -> List[Callable]:
    """Fresh-CPU factories for the seeded stream mix.

    Three in four are one-request echo servers whose body lengths are
    spread evenly over 100-190 B (shuffled by seed), the rest 64-byte
    ``file_filter`` runs.  Every seed thus gets the same stream sizes
    (~0.8K to ~1.8K events) and the latency median falls inside the
    echo sizes rather than on the gap between the two programs.
    """
    rng = random.Random(f"served-streams:{seed}")
    echoes = count - count // 4
    lengths = [100 + (90 * i) // max(echoes - 1, 1) for i in range(echoes)]
    rng.shuffle(lengths)
    factories = []
    for index in range(count):
        if index % 4 == 3:
            payload = bytes(rng.randrange(256) for _ in range(64))
            factories.append(lambda payload=payload:
                             programs.file_filter(payload).make_cpu())
        else:
            body = bytes(rng.randrange(32, 127) for _ in range(lengths.pop()))
            factories.append(lambda body=body: programs.echo_server(
                [body], [False]).make_cpu())
    return factories


def prepare(seed: int, count: int = TRACES) -> List[Prepared]:
    prepared = []
    for factory in trace_factories(seed, count):
        reference = local_reference(factory)
        prepared.append(Prepared(
            factory=factory, events=record_trace(factory),
            signature=canonical_json(reference["signature"]),
            stats=canonical_json(reference["stats"]),
        ))
    return prepared


# ---------------------------------------------------------------- server


class ServerProcess:
    """``repro-serve serve`` (or its traced twin) as a child process."""

    def __init__(self, traced: bool = False, ledger_out=None, spans_out=None):
        command = [sys.executable, "-u"]
        if traced:
            command += [str(HERE / "serve_traced.py"),
                        "--ledger-out", str(ledger_out),
                        "--spans-out", str(spans_out), "--"]
        else:
            command += ["-m", "repro.serve.cli"]
        command += ["serve", "--port", "0", "--rate", str(SERVER_RATE)]
        self.traced = traced
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     text=True)
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    def wait_listening(self) -> None:
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.host, _, port = line.split()[-1].rpartition(":")
        self.port = int(port)

    def stop(self) -> None:
        """Graceful shutdown, then reap: SIGTERM makes the traced server
        dump its ledger, SIGINT is the product server's Ctrl-C."""
        if self.proc.poll() is None:
            self.proc.send_signal(
                signal.SIGTERM if self.traced else signal.SIGINT
            )
        try:
            self.proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


# ------------------------------------------------------------- generator


@dataclass
class StreamRecord:
    index: int
    due: float
    released: float = 0.0
    acquired: float = 0.0
    end: float = 0.0
    result: object = None
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        """Seconds from due time to result (``inf`` when it failed)."""
        return self.end - self.due if self.error is None else math.inf


async def _one_stream(run_stream, connection, record, clock) -> None:
    try:
        record.result = await run_stream(connection, record.index)
    except CLIENT_ERRORS as error:
        record.error = f"{type(error).__name__}: {error}"
    finally:
        record.end = clock()


async def closed_loop(run_stream, connections: Sequence, seconds: float,
                      indices=None, clock=time.perf_counter):
    """Each connection streams back to back until ``seconds`` pass.

    Stream ``i`` sends trace ``next(indices)``.  Returns ``(records,
    elapsed seconds)``.
    """
    indices = itertools.count() if indices is None else indices
    records: List[StreamRecord] = []
    start = clock()
    deadline = start + seconds

    async def worker(connection) -> None:
        while clock() < deadline:
            now = clock()
            record = StreamRecord(next(indices), now, now, now)
            records.append(record)
            await _one_stream(run_stream, connection, record, clock)
            if record.error is not None:
                return  # the connection is no longer trustworthy

    await asyncio.gather(*(worker(c) for c in connections))
    return records, clock() - start


async def open_loop(run_stream, connections: Sequence, rate: float,
                    seconds: float, indices=None, clock=time.perf_counter,
                    sleep=asyncio.sleep) -> List[StreamRecord]:
    """Release stream ``i`` at ``start + i / rate`` for ``seconds``.

    A released stream takes the next free connection, waiting while all
    are busy; its latency still counts from the due time.
    """
    free: asyncio.Queue = asyncio.Queue()
    for connection in connections:
        free.put_nowait(connection)
    indices = itertools.count() if indices is None else indices
    records: List[StreamRecord] = []
    tasks = []

    async def one(connection, record) -> None:
        try:
            await _one_stream(run_stream, connection, record, clock)
        finally:
            free.put_nowait(connection)

    start = clock()
    for released in itertools.count():
        if released / rate >= seconds:
            break
        due = start + released / rate
        delay = due - clock()
        if delay > 0:
            await sleep(delay)
        record = StreamRecord(next(indices), due, released=clock())
        connection = await free.get()
        record.acquired = clock()
        records.append(record)
        tasks.append(asyncio.create_task(one(connection, record)))
    await asyncio.gather(*tasks)
    return records


@contextmanager
def wire_tally():
    """Count the generator's frames and wire bytes (both directions)."""
    import repro.serve.client as client_module
    import repro.serve.protocol as protocol

    tally = {"frames": 0, "bytes": 0}
    encode, decode = client_module.encode_frame, protocol.decode_payload

    def counted_encode(message):
        frame = encode(message)
        tally["frames"] += 1
        tally["bytes"] += len(frame)
        return frame

    def counted_decode(payload):
        tally["frames"] += 1
        tally["bytes"] += len(payload) + 4
        return decode(payload)

    client_module.encode_frame = counted_encode
    protocol.decode_payload = counted_decode
    try:
        yield tally
    finally:
        client_module.encode_frame = encode
        protocol.decode_payload = decode


@dataclass
class Phase:
    """What one server session measured."""

    census: List[StreamRecord] = field(default_factory=list)
    tally: Dict[str, int] = field(default_factory=dict)
    #: ``(records, elapsed seconds)`` per closed-loop window.
    windows: List[tuple] = field(default_factory=list)
    opened: List[StreamRecord] = field(default_factory=list)
    client_cpu_s: float = 0.0

    @property
    def closed(self) -> List[StreamRecord]:
        return [record for records, _ in self.windows for record in records]


async def _session(server: ServerProcess, traces: Sequence[Prepared],
                   closed_s: float, open_s: float,
                   mark_setup_done: Optional[Callable] = None,
                   ledger: Optional[Ledger] = None) -> Phase:
    """Census pass, then closed-loop and (if ``open_s``) open-loop
    segments, alternating."""
    clients = [await AsyncServeClient(server.host, server.port).connect()
               for _ in range(CONNECTIONS)]
    phase = Phase()

    async def run_stream(connection, index):
        return await connection.check_trace(traces[index % len(traces)].events)

    try:
        # One sequential pass over every trace: warms both sides and
        # counts the wire traffic of exactly one pass.
        with wire_tally() as phase.tally:
            for index in range(len(traces)):
                record = StreamRecord(index, time.perf_counter())
                await _one_stream(run_stream, clients[index % CONNECTIONS],
                                  record, time.perf_counter)
                phase.census.append(record)
        if mark_setup_done is not None:
            mark_setup_done()
        cpu_start = time.process_time()
        if ledger is not None:
            ledger.install(CLIENT_TARGETS)
        indices = itertools.count()
        try:
            for _ in range(SEGMENTS):
                phase.windows.append(await closed_loop(
                    run_stream, clients, closed_s / SEGMENTS, indices))
                if open_s > 0:
                    phase.opened += await open_loop(
                        run_stream, clients, OPEN_LOOP_RATE,
                        open_s / SEGMENTS, indices)
        finally:
            if ledger is not None:
                ledger.restore()
        phase.client_cpu_s = time.process_time() - cpu_start
    finally:
        for client in clients:
            await client.close()
    return phase


def _served(server: ServerProcess, traces, closed_s, open_s,
            mark_setup_done=None, ledger=None) -> Phase:
    try:
        server.wait_listening()
        return asyncio.run(_session(server, traces, closed_s, open_s,
                                    mark_setup_done, ledger))
    finally:
        server.stop()


def _verify(records, traces) -> List[str]:
    """Error strings of records whose result is not bit-identical."""
    errors = []
    for record in records:
        if record.error is None:
            expected = traces[record.index % len(traces)]
            if (canonical_json(record.result.signature) != expected.signature
                    or canonical_json(record.result.stats) != expected.stats):
                record.error = "served result differs from local_reference"
        if record.error is not None:
            errors.append(record.error)
    return errors


def _events_per_s(phase: Phase, traces) -> float:
    """Median over the closed-loop windows of events acknowledged/s."""
    return median([
        sum(len(traces[r.index % len(traces)].events)
            for r in records if r.error is None) / elapsed
        for records, elapsed in phase.windows
    ])


def replay_counts(traces: Sequence[Prepared]) -> Dict[str, float]:
    """Gate/pipeline statistics of one pass over the traces, replayed
    locally through a pipeline built with the server's default config."""
    from repro.pipeline import StreamingPipeline
    from repro.serve.protocol import decode_batch
    from repro.serve.session import pipeline_config_from_wire

    gate_fields = ("steps", "register_hits", "memory_hits", "pending_hits",
                   "writeback_hits", "suppressed")
    totals = dict.fromkeys(gate_fields + ("instructions", "enqueued",
                                          "stall_cycles", "stalls"), 0)
    high_water = 0
    for trace in traces:
        pipeline = StreamingPipeline(None,
                                     config=pipeline_config_from_wire(None))
        hooks = {"step": pipeline.on_step, "input": pipeline.on_input,
                 "output": pipeline.on_output, "halt": pipeline.on_halt}
        for kind, payload in decode_batch(trace.events):
            hooks[kind](payload)
        pipeline.finish()
        for name in gate_fields:
            totals[name] += getattr(pipeline.gate.stats, name)
        totals["instructions"] += pipeline.stats.instructions
        totals["enqueued"] += pipeline.stats.enqueued
        totals["stalls"] += pipeline.stats.queue_full_stalls
        totals["stall_cycles"] += int(pipeline.model.stall_cycles)
        high_water = max(high_water, pipeline.queue.high_water)
    steps = totals["steps"]
    return {
        "gate.steps": steps,
        "gate.suppressed_frac": totals["suppressed"] / steps if steps else 0.0,
        "gate.register_hits": totals["register_hits"],
        "gate.memory_hits": totals["memory_hits"],
        "gate.pending_hits": totals["pending_hits"],
        "gate.writeback_hits": totals["writeback_hits"],
        "pipeline.enqueue_frac": (totals["enqueued"] / totals["instructions"]
                                  if totals["instructions"] else 0.0),
        "pipeline.stall_cycles": totals["stall_cycles"],
        "queue.stalls": totals["stalls"],
        "queue.high_water": high_water,
    }


def reference_ips(traces: Sequence[Prepared], observer: bool) -> float:
    """Native or always-on-DIFT instructions/s over the trace programs."""
    runs = [reference_run(trace.factory, observer) for trace in traces]
    return sum(run[0] for run in runs) / sum(run[1] for run in runs)


# ------------------------------------------------------------- workload


def run_workload(seed: int, seconds: float, trace: bool,
                 mark_setup_done: Callable[[], None], out_dir: Path,
                 trace_count: int = TRACES) -> Dict:
    out: Dict = {"metrics": {}, "notes": {}, "layers": {}}
    # Start the server first: it boots while the traces are recorded.
    server = ServerProcess()
    try:
        traces = prepare(seed, trace_count)
    except BaseException:
        server.stop()
        raise
    tag = f"served-streams-s{seed}"
    ledger_out = out_dir / f"{tag}-server-ledger.json"
    client_ledger = Ledger()
    if not trace:
        plain = timed = _served(server, traces, seconds * CLOSED_SHARE,
                                seconds * (1 - CLOSED_SHARE), mark_setup_done)
        phases = [plain]
        # The server is this process's only reaped child.
        out["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        )
    else:
        plain = _served(server, traces, seconds / 3, 0.0, mark_setup_done)
        timed = _served(
            ServerProcess(traced=True, ledger_out=ledger_out,
                          spans_out=out_dir / f"spans-{tag}-server.jsonl"),
            traces, seconds / 3, seconds / 3, ledger=client_ledger,
        )
        phases = [plain, timed]

    records = [r for phase in phases
               for r in phase.census + phase.closed + phase.opened]
    errors = _verify(records, traces)
    events_per_s = _events_per_s(plain, traces)
    latencies = [record.latency for record in timed.opened]
    p50 = percentile(latencies, 50.0) * 1000.0
    out["attempted"] = len(records)
    out["failed"] = len(errors)
    out["errors"] = errors[:5]
    out["metrics"]["work_per_s"] = events_per_s
    out["metrics"]["latency_p50_ms"] = p50
    out["notes"].update({
        "serve_events_per_s": (events_per_s, "events/s"),
        "stream_p50_ms": (p50, "ms"),
        "stream.count": (len(latencies), "streams"),
        "open_loop_rate": (OPEN_LOOP_RATE, "streams/s"),
    })
    tail = tail_percentile(len(latencies))
    if tail is not None and tail >= 95.0:
        out["notes"]["stream_p95_ms"] = (
            percentile(latencies, 95.0) * 1000.0, "ms")
    elif tail is not None:
        out["notes"]["stream_p95_ms"] = ("unsupported", (
            f"(fewer than 200 streams; p{tail:g} = "
            f"{percentile(latencies, tail) * 1000.0:.6g} ms)"))
    out["notes"]["loadgen.lag_ms_p95"] = (
        percentile([(r.released - r.due) * 1000.0 for r in timed.opened],
                   95.0), "ms")
    out["notes"]["serve.client.wait_ms_p50"] = (
        median([(r.acquired - r.released) * 1000.0 for r in timed.opened]),
        "ms")
    out["layers"]["serve.retries"] = sum(
        r.result.retries for r in records if r.result is not None
    )
    out["layers"]["serve.frames"] = plain.tally["frames"]
    out["layers"]["serve.wire_bytes"] = plain.tally["bytes"]
    if trace:
        server_ledger = json.loads(ledger_out.read_text())
        layers = layer_metrics([server_ledger], server_ledger["cpu_s"])
        out["layers"].update(layers)
        out["layers"]["trace.coverage_frac"] = coverage(layers)
        out["layers"].update(layer_metrics(
            [client_ledger.to_dict()], timed.client_cpu_s, ("serve.client",)
        ))
        # Streams overlap on two connections, so their spans are written
        # from the records instead of a nested span stack.
        client_ledger.spans.extend(
            {"id": None, "parent": None, "name": "serve.stream",
             "start": r.due, "end": r.end, "key": str(r.index)}
            for r in timed.closed + timed.opened
        )
        client_ledger.write_spans(out_dir / f"spans-{tag}-client.jsonl")
        out["layers"]["trace_overhead_frac"] = (
            events_per_s / _events_per_s(timed, traces) - 1.0
        )
        out["layers"].update(replay_counts(traces))
        out["layers"]["machine.native_ips"] = reference_ips(traces, False)
        out["layers"]["dift.alwayson_ips"] = reference_ips(traces, True)
        out["notes"]["server_cpu_s"] = (server_ledger["cpu_s"], "s")
    return out
