"""End-to-end server behaviour: bit-identity, isolation, overload.

Every test runs a real :class:`TaintServer` on an ephemeral port via
:func:`running_server` and drives it with the blocking client — the
same path ``repro-serve selftest`` exercises.
"""

import base64
import socket
import struct
import time

import pytest

from repro.obs import MetricsRegistry, SpanTracer, Tracer
from repro.obs.spans import TraceContext
from repro.serve import (
    RetryExhausted,
    ServeClient,
    ServeConfig,
    ServeError,
    TenantLimits,
    local_reference,
    record_trace,
    running_server,
)
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    canonical_json,
    encode_frame,
)
from repro.trace.rows import INPUT_ROW, STEP_ROW
from repro.workloads import programs

SCENARIOS = ("checksum", "file_filter", "substitution_cipher")


def _factory(name):
    builder = getattr(programs, name)
    return lambda: builder().make_cpu()


@pytest.fixture(scope="module")
def traces():
    """Shared wire traces + local references (recorded once)."""
    prepared = {}
    for name in SCENARIOS:
        factory = _factory(name)
        prepared[name] = (record_trace(factory), local_reference(factory))
    return prepared


def _no_sleep(_seconds):
    pass


class TestBitIdentity:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_served_stream_matches_local_platch(self, traces, scenario):
        events, reference = traces[scenario]
        with running_server() as (_server, (host, port)):
            with ServeClient(host, port, tenant="ident") as client:
                result = client.check_trace(events)
        assert canonical_json(result.signature) == canonical_json(
            reference["signature"]
        )
        assert canonical_json(result.stats) == canonical_json(
            reference["stats"]
        )
        assert result.halted

    def test_wide_li_immediates_stream_bit_identically(self):
        # 50000 = 0xC350: the ``li`` low half needs the unsigned ``ori``
        # immediate, which the wire encoding must carry unchanged.
        factory = lambda: programs.phased_compute(
            clean_iterations=50000
        ).make_cpu()
        events = record_trace(factory)
        reference = local_reference(factory)
        unthrottled = ServeConfig(
            default_limits=TenantLimits(rate=1e9, burst=1e9)
        )
        with running_server(unthrottled) as (_server, (host, port)):
            with ServeClient(host, port, tenant="wide") as client:
                result = client.check_trace(events)
        assert canonical_json(result.signature) == canonical_json(
            reference["signature"]
        )
        assert canonical_json(result.stats) == canonical_json(
            reference["stats"]
        )
        assert result.halted

    def test_batch_size_does_not_change_the_verdict(self, traces):
        events, reference = traces["checksum"]
        results = []
        with running_server() as (_server, (host, port)):
            for batch_size in (1, 7, 512):
                with ServeClient(host, port, tenant="chunks") as client:
                    results.append(
                        client.check_trace(events, batch_size=batch_size)
                    )
        for result in results:
            assert canonical_json(result.signature) == canonical_json(
                reference["signature"]
            )
            assert canonical_json(result.stats) == canonical_json(
                reference["stats"]
            )

    JOB_SOURCE = """
    .data
path:   .asciiz "job.bin"
buf:    .space 32
    .text
_start:
    li   r3, 3
    li   r4, path
    syscall
    mv   r10, r3
    li   r3, 1
    mv   r4, r10
    li   r5, buf
    li   r6, 32
    syscall
    li   r8, buf
    lbu  r9, 0(r8)
    addi r9, r9, 1
    sw   r9, 4(r8)
    li   r3, 0
    mv   r4, r9
    syscall
"""

    def _job_cpu(self):
        from repro.isa.assembler import assemble
        from repro.machine.cpu import CPU
        from repro.machine.devices import DeviceTable, VirtualFile

        devices = DeviceTable()
        devices.register_file(
            VirtualFile("job.bin", b"\x05taint", tainted=True)
        )
        return CPU(assemble(self.JOB_SOURCE), devices=devices)

    def test_submitted_job_matches_local_platch(self):
        # Whole-job mode: server assembles and runs the program itself.
        import base64

        reference = local_reference(self._job_cpu)
        job = {
            "source": self.JOB_SOURCE,
            "files": [{
                "name": "job.bin",
                "data": base64.b64encode(b"\x05taint").decode("ascii"),
                "tainted": True,
            }],
        }
        with running_server() as (_server, (host, port)):
            with ServeClient(host, port, tenant="jobs") as client:
                result = client.submit_job(job)
        assert canonical_json(result.signature) == canonical_json(
            reference["signature"]
        )
        assert result.halted

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_submitted_columnar_trace_matches_local_platch(
        self, traces, scenario
    ):
        # Whole-trace mode: the client records once on its machine and
        # ships the .ltrace container; no assembly or CPU on the server.
        import base64

        from repro.trace.record import TraceRecorder

        cpu = _factory(scenario)()
        recorder = TraceRecorder(name=scenario)
        cpu.attach(recorder)
        cpu.run(200_000)
        _, reference = traces[scenario]
        job = {
            "trace": base64.b64encode(recorder.to_bytes()).decode("ascii")
        }
        with running_server() as (_server, (host, port)):
            with ServeClient(host, port, tenant="coljobs") as client:
                result = client.submit_job(job)
        assert canonical_json(result.signature) == canonical_json(
            reference["signature"]
        )
        assert result.halted
        assert result.stats is not None

    def test_corrupt_trace_is_a_protocol_error_not_a_crash(self):
        import base64

        from repro.serve import ServeError

        with running_server() as (_server, (host, port)):
            with ServeClient(host, port, tenant="coljobs") as client:
                with pytest.raises(ServeError, match="bad trace"):
                    client.submit_job({
                        "trace": base64.b64encode(
                            b"LTRCgarbage" + b"\0" * 64
                        ).decode("ascii"),
                    })
                with pytest.raises(ServeError, match="trace"):
                    client.submit_job({"trace": "!!! not base64 !!!"})
                # The connection survives: protocol errors are answers.
                assert client.ping()

    @pytest.mark.parametrize("forgery", [
        "missing-offset", "missing-dtype", "missing-shape",
        "entry-not-an-object",
        # Intact directory, hostile contents: the section dtypes, the
        # string pool and the input payload bounds are checked before
        # the first event.
        "strings-not-a-list", "strings-empty", "inputs-plain",
        "input-past-data",
    ])
    def test_forged_directory_answers_job_error(self, forgery):
        # The directory checksum matches, so only the per-entry checks
        # (and the event decoder's content checks) stand between a
        # forged trace and the replay.
        import base64

        from repro.trace.record import TraceRecorder
        from tests.test_trace_format import (
            FORGED_DIRECTORIES,
            HOSTILE_EVENT_TRACES,
            _forge_directory,
        )

        cpu = _factory("checksum")()
        recorder = TraceRecorder(name="forged")
        cpu.attach(recorder)
        cpu.run(200_000)
        if forgery in HOSTILE_EVENT_TRACES:
            blob = HOSTILE_EVENT_TRACES[forgery][0](recorder)
        else:
            blob = _forge_directory(
                recorder.to_bytes(), FORGED_DIRECTORIES[forgery]
            )
        job = {"trace": base64.b64encode(blob).decode("ascii")}
        with running_server() as (server, (host, port)):
            with ServeClient(host, port, tenant="forged") as client:
                client._send({"type": "submit", "job": job})
                reply = client._recv()
                assert reply["type"] == "error", reply
                assert reply["code"] == "job", reply
                assert "bad trace" in reply["detail"], reply
                assert client.ping()
            assert _wait_until(lambda: len(server.inflight) == 0)


class TestTenantIsolation:
    def test_interleaved_tenants_never_share_taint(self, traces):
        # Two tenants stream different workloads through one server,
        # interleaving batch by batch on separate connections.  Each
        # must get exactly the result of its own trace: any cross-tenant
        # leak of shadow memory, TRF state, or alerts breaks the
        # signature comparison.
        events_a, ref_a = traces["checksum"]
        events_b, ref_b = traces["substitution_cipher"]
        with running_server() as (server, (host, port)):
            a = ServeClient(host, port, tenant="alpha")
            b = ServeClient(host, port, tenant="beta")
            try:
                stream_a, _ = a.open_stream()
                stream_b, _ = b.open_stream()
                index_a = index_b = 0
                while index_a < len(events_a) or index_b < len(events_b):
                    if index_a < len(events_a):
                        a.send_events(
                            stream_a, events_a[index_a:index_a + 32]
                        )
                        index_a += 32
                    if index_b < len(events_b):
                        b.send_events(
                            stream_b, events_b[index_b:index_b + 32]
                        )
                        index_b += 32
                result_a = a.close_stream(stream_a)
                result_b = b.close_stream(stream_b)
            finally:
                a.close()
                b.close()
            snapshot = server.snapshot()
        assert canonical_json(result_a["signature"]) == canonical_json(
            ref_a["signature"]
        )
        assert canonical_json(result_b["signature"]) == canonical_json(
            ref_b["signature"]
        )
        # Metrics land in per-tenant namespaces, not on shared names.
        assert snapshot.get("serve.tenant.alpha.results") == 1
        assert snapshot.get("serve.tenant.beta.results") == 1
        assert snapshot.get(
            "serve.tenant.alpha.pipeline.events.enqueued"
        ) is not None
        assert snapshot.get(
            "serve.tenant.beta.pipeline.events.enqueued"
        ) is not None

    def test_same_tenant_parallel_streams_are_private(self, traces):
        # Even within one tenant, every stream owns its structures.
        events, reference = traces["checksum"]
        with running_server() as (_server, (host, port)):
            with ServeClient(host, port, tenant="gamma") as client:
                first, _ = client.open_stream()
                second, _ = client.open_stream()
                client.send_events(first, events[:])
                client.send_events(second, events[:50])
                result_first = client.close_stream(first)
                result_second = client.close_stream(second)
        assert canonical_json(result_first["signature"]) == canonical_json(
            reference["signature"]
        )
        # The truncated stream saw 50 events, not the full trace.
        assert result_second["events"] == 50
        assert result_first["signature"] != result_second["signature"]


class TestOverload:
    def test_inflight_full_retries_then_admits_after_release(self):
        # Fill the 1-slot table with an idle stream from one tenant;
        # a second tenant (bucket full, totally idle) must get RETRY
        # with reason=inflight, then admit once the slot frees.
        config = ServeConfig(max_inflight=1)
        with running_server(config) as (server, (host, port)):
            holder = ServeClient(host, port, tenant="holder")
            waiter = ServeClient(
                host, port, tenant="waiter", max_retries=2,
                sleep=_no_sleep,
            )
            try:
                held, _ = holder.open_stream()
                with pytest.raises(RetryExhausted) as excinfo:
                    waiter.open_stream()
                assert excinfo.value.reason == "inflight"
                holder.close_stream(held)
                stream, retries = waiter.open_stream()
                assert stream
                snapshot = server.snapshot()
                assert snapshot.get(
                    "serve.tenant.waiter.rejected.inflight"
                ) >= 2
            finally:
                holder.close()
                waiter.close()

    def test_zero_capacity_tenant_always_retry_never_error(self, traces):
        config = ServeConfig(tenant_overrides={
            "paused": TenantLimits(rate=0.0, burst=0.0),
        })
        with running_server(config) as (server, (host, port)):
            client = ServeClient(
                host, port, tenant="paused", max_retries=3,
                sleep=_no_sleep,
            )
            try:
                # The welcome already advertises no admissible batch.
                assert client.limits["max_batch"] == 0
                with pytest.raises(RetryExhausted) as excinfo:
                    client.open_stream()
                assert excinfo.value.reason == "rate"
                # check_trace refuses up front rather than spinning.
                with pytest.raises(ServeError):
                    client.check_trace(traces["checksum"][0])
            finally:
                client.close()
            snapshot = server.snapshot()
            assert snapshot.get("serve.tenant.paused.rejected.rate") >= 4
            assert snapshot.get("serve.tenant.paused.results") == 0

    def test_event_burst_beyond_bucket_gets_retry_not_drop(self, traces):
        events, reference = traces["checksum"]
        # Burst smaller than the trace: the client must hit RETRY at
        # least once and still land a bit-identical result (no drops).
        # Refilling one 64-event batch takes ~13ms at this rate — far
        # slower than the local round trip, so RETRY must fire.
        config = ServeConfig(default_limits=TenantLimits(
            rate=5_000.0, burst=64.0,
        ))
        with running_server(config) as (server, (host, port)):
            with ServeClient(host, port, tenant="bursty") as client:
                result = client.check_trace(events)
            snapshot = server.snapshot()
        assert result.retries > 0
        assert snapshot.get("serve.tenant.bursty.rejected.rate") > 0
        assert canonical_json(result.signature) == canonical_json(
            reference["signature"]
        )
        assert canonical_json(result.stats) == canonical_json(
            reference["stats"]
        )


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestDisconnects:
    def test_client_vanishing_mid_batch_releases_everything(self, traces):
        events, _reference = traces["checksum"]
        with running_server() as (server, (host, port)):
            raw = socket.create_connection((host, port), timeout=5.0)
            raw.sendall(encode_frame(
                {"type": "hello", "proto": PROTOCOL_VERSION,
                 "tenant": "ghost"}
            ))
            raw.sendall(encode_frame({"type": "stream_open"}))
            # Wait for welcome + stream_ack so the slot is truly held.
            from repro.serve.protocol import FrameDecoder

            decoder = FrameDecoder()
            replies = []
            while len(replies) < 2:
                data = raw.recv(65536)
                assert data, "server closed during handshake"
                replies.extend(decoder.feed(data))
            assert replies[1]["type"] == "stream_ack"
            stream_id = replies[1]["stream"]
            assert len(server.inflight) == 1
            # Half an events frame: a complete header announcing more
            # bytes than we will ever send, then vanish.
            frame = encode_frame(
                {"type": "events", "stream": stream_id,
                 "batch": events[:64]}
            )
            raw.sendall(frame[:len(frame) // 2])
            raw.close()

            # The handler must notice, drain the session idempotently,
            # and give the in-flight slot back.
            assert _wait_until(lambda: len(server.inflight) == 0)
            snapshot = server.snapshot()
            assert snapshot.get("serve.tenant.ghost.disconnects") == 1

            # The server stays fully serviceable afterwards.
            with ServeClient(host, port, tenant="ghost") as client:
                result = client.check_trace(events)
            assert result.halted

    def test_double_close_and_unknown_stream_are_clean_errors(self, traces):
        events, _ = traces["checksum"]
        with running_server() as (_server, (host, port)):
            with ServeClient(host, port, tenant="dup") as client:
                stream, _ = client.open_stream()
                client.send_events(stream, events[:10])
                client.close_stream(stream)
                # Closed streams are forgotten: further traffic errors
                # without wedging the connection.
                with pytest.raises(ServeError):
                    client.close_stream(stream)
                with pytest.raises(ServeError):
                    client.send_events(stream, events[:10])
                assert client.ping()


class TestQueriesAndProtocol:
    def test_online_query_reflects_acknowledged_events(self, traces):
        events, reference = traces["checksum"]
        with running_server() as (_server, (host, port)):
            with ServeClient(host, port, tenant="q") as client:
                stream, _ = client.open_stream()
                client.send_events(stream, events[:])
                tainted = sorted(reference["signature"]["tainted"])
                assert tainted, "scenario must taint something"
                answer = client.query(stream, tainted[0], 1)
                assert answer["tainted"] is True
                assert answer["tags"][0]
                miss = client.query(stream, 0x7FF0, 4)
                assert miss["tainted"] is False
                # Querying does not perturb the final signature.
                result = client.close_stream(stream)
        assert canonical_json(result["signature"]) == canonical_json(
            reference["signature"]
        )

    def test_revision_one_client_is_refused_at_hello(self):
        # Revision 1 step records carried register lists and access
        # sizes, revision 2 sent events as JSON records; such a client
        # is turned away before it sends one.
        from repro.serve.protocol import FrameDecoder

        with running_server() as (_server, (host, port)):
            for proto in (1, 2):
                with socket.create_connection(
                    (host, port), timeout=5.0
                ) as raw:
                    raw.sendall(encode_frame(
                        {"type": "hello", "proto": proto, "tenant": "old"}
                    ))
                    decoder, replies = FrameDecoder(), []
                    while not replies:
                        data = raw.recv(65536)
                        assert data, "server closed without an answer"
                        replies = decoder.feed(data)
                assert (replies[0]["type"], replies[0]["code"]) == (
                    "error", "proto"
                ), proto

    def test_protocol_violations_answer_errors(self):
        with running_server() as (_server, (host, port)):
            raw = socket.create_connection((host, port), timeout=5.0)
            decoder_buf = []

            def roundtrip(message):
                from repro.serve.protocol import FrameDecoder

                raw.sendall(encode_frame(message))
                decoder = FrameDecoder()
                while True:
                    data = raw.recv(65536)
                    assert data, "server closed unexpectedly"
                    messages = decoder.feed(data)
                    if messages:
                        return messages[0]

            # Requests before hello are refused.
            reply = roundtrip({"type": "stream_open"})
            assert reply["type"] == "error" and reply["code"] == "state"
            # Wrong protocol revision.
            reply = roundtrip({"type": "hello", "proto": 99, "tenant": "x"})
            assert reply["type"] == "error" and reply["code"] == "proto"
            raw.close()

        with running_server() as (_server, (host, port)):
            with ServeClient(host, port, tenant="p") as client:
                # Unknown message type.
                client._send({"type": "warp"})
                assert client._recv()["code"] == "type"
                # Unknown pipeline knob is rejected at stream-open.
                client._send({"type": "stream_open",
                              "pipeline": {"warp_factor": 9}})
                assert client._recv()["code"] == "config"
                # Oversized batch (beyond the server's max_batch).
                stream, _ = client.open_stream()
                # The count comes from the section length: 513 rows.
                big = {"steps": base64.b64encode(
                    bytes(STEP_ROW.size * 513)
                ).decode()}
                client._send({"type": "events", "stream": stream,
                              "batch": big})
                assert client._recv()["code"] == "events"
                assert client.ping()

    #: Stream opens whose overrides must be refused with ``code="config"``:
    #: values that do not coerce, non-object override blocks, removed or
    #: unknown knobs, and values the LATCH structures reject when built.
    BAD_OPENS = (
        {"pipeline": {"queue_capacity": "abc"}},
        {"pipeline": {"queue_capacity": None}},
        {"pipeline": {"sample_rate": "fast"}},
        {"pipeline": {"sample_rate": 7.0}},
        {"pipeline": {"drain_batch": 1e999}},
        {"pipeline": ["queue_capacity"]},
        {"pipeline": {"backend": "scalar"}},
        {"pipeline": {"model_epoch": 1}},
        {"pipeline": {"hist_mode": "exact"}},
        {"pipeline": {"gate_batch": 1}},
        {"latch": {"domain_size": "big"}},
        {"latch": {"domain_size": 3}},
        {"latch": {"ctc_entries": 0}},
        {"latch": {"use_tlb_bits": "false"}},
        {"latch": "tiny"},
    )

    def test_malformed_opens_answer_errors_and_release_slots(self, traces):
        events, reference = traces["checksum"]
        unthrottled = ServeConfig(
            default_limits=TenantLimits(rate=1e9, burst=1e9)
        )
        with running_server(unthrottled) as (server, (host, port)):
            with ServeClient(host, port, tenant="bad") as client:
                for index in range(100):
                    bad = self.BAD_OPENS[index % len(self.BAD_OPENS)]
                    client._send({"type": "stream_open", **bad})
                    reply = client._recv()
                    assert reply["type"] == "error", (bad, reply)
                    assert reply["code"] == "config", (bad, reply)
                assert len(server.inflight) == 0
                # The same connection still serves a bit-identical stream.
                result = client.check_trace(events)
            assert _wait_until(lambda: len(server.inflight) == 0)
        assert canonical_json(result.signature) == canonical_json(
            reference["signature"]
        )
        assert canonical_json(result.stats) == canonical_json(
            reference["stats"]
        )

    def test_malformed_query_and_job_fields_answer_errors(self, traces):
        events, _ = traces["checksum"]
        with running_server() as (server, (host, port)):
            with ServeClient(host, port, tenant="bad") as client:
                stream, _ = client.open_stream()
                client.send_events(stream, events[:10])
                client._send({"type": "query", "stream": stream,
                              "address": "abc", "size": 1})
                assert client._recv()["code"] == "query"
                client._send({"type": "query", "stream": stream,
                              "address": 0, "size": None})
                assert client._recv()["code"] == "query"
                client.close_stream(stream)
                for job in (
                    {"source": "_start: halt", "max_steps": "lots"},
                    {"source": "_start: halt",
                     "pipeline": {"drain_batch": "x"}},
                    {"source": "_start: halt", "latch": {"domain_size": 5}},
                ):
                    client._send({"type": "submit", "job": job})
                    assert client._recv()["code"] == "job", job
                assert client.ping()
            assert _wait_until(lambda: len(server.inflight) == 0)

    @staticmethod
    def _hostile_records(events):
        """Batches a valid trace never holds, each behind a valid
        prefix: every :data:`FORGED_STEPS` forgery of a load row or of
        the batch's fields, seq stamps out of order, an input row whose
        tainted hint byte is not 0 or 1, source and payload fields
        that point outside the string pool and data blob, and an input
        address outside ``[0, 2**32)``."""
        from repro.serve.protocol import decode_batch
        from tests.test_serve_protocol import FORGED_STEPS, forged_batch

        decoded = decode_batch(events)
        first_access = next(index for index, (kind, event) in
                            enumerate(decoded) if kind == "step"
                            and event.memory_accesses)
        prefix = events[:first_access + 1]
        batches = [forged_batch(prefix, forgery) for forgery in FORGED_STEPS]
        steps = bytearray(base64.b64decode(prefix["steps"]))
        STEP_ROW.pack_into(steps, 0, 5, *STEP_ROW.unpack_from(steps)[1:])
        batches.append({**prefix, "steps": base64.b64encode(steps).decode()})
        first_input = next(index for index, (kind, _) in
                           enumerate(decoded) if kind == "input")
        around = events[first_input - 2:first_input + 3]
        rows = base64.b64decode(around["inputs"])
        hint = bytearray(rows)
        hint[INPUT_ROW.size - 1] = 2
        forged = [bytes(hint)]
        for field, value in ((5, len(around["strings"])), (6, -1),
                             (3, 10**6), (4, -1), (2, 1 << 32)):
            row = list(INPUT_ROW.unpack(rows))
            row[field] = value
            forged.append(INPUT_ROW.pack(*row))
        return batches + [
            {**around, "inputs": base64.b64encode(row).decode()}
            for row in forged
        ]

    @staticmethod
    def _hostile_ltraces():
        """Recorded ``.ltrace`` jobs with an opcode byte that does not
        decode, an address on ADDI, no address on LW or SB, or an
        address outside ``[0, 2**32)``."""
        import base64

        from repro.isa.instructions import Instruction, Opcode
        from repro.trace.record import TraceRecorder
        from tests.test_trace_format import _forge_step

        def job(instruction, address):
            cpu = _factory("checksum")()
            recorder = TraceRecorder(name="hostile")
            cpu.attach(recorder)
            cpu.run(200_000)
            _forge_step(recorder, instruction, address)
            return {"trace": base64.b64encode(
                recorder.to_bytes()
            ).decode("ascii")}

        lw = Instruction(Opcode.LW, rd=1, rs1=2)
        return [job(0xFA00_0000, -1),
                job(Instruction(Opcode.ADDI, rd=1, rs1=2, imm=3), 0x100),
                job(lw, -1),
                job(Instruction(Opcode.SB, rs1=2, rs2=1), -1),
                job(lw, 1 << 32),
                job(lw, -5)]

    def test_hostile_records_answer_errors_on_a_live_connection(
        self, traces
    ):
        events, reference = traces["checksum"]
        unthrottled = ServeConfig(
            default_limits=TenantLimits(rate=1e9, burst=1e9)
        )
        with running_server(unthrottled) as (server, (host, port)):
            with ServeClient(host, port, tenant="hostile") as client:
                stream, _ = client.open_stream()
                for batch in self._hostile_records(events):
                    # A valid prefix rides along: the whole batch must
                    # be refused without advancing the stream.
                    client._send({"type": "events", "stream": stream,
                                  "batch": batch})
                    reply = client._recv()
                    assert reply["type"] == "error", (batch, reply)
                    assert reply["code"] == "events", (batch, reply)
                # A revision-1 batch: a list of JSON records, the load's
                # access in the old ``rd`` list with a huge size and no
                # ``a``.  Refused at once, without touching a byte of
                # the claimed range.
                legacy = [{"k": "s", "i": 0, "pc": 0x1000, "w": 0x0,
                           "np": 0x1004, "rd": [[0x3000, 10**9]]}]
                started = time.monotonic()
                client._send({"type": "events", "stream": stream,
                              "batch": legacy})
                reply = client._recv()
                assert time.monotonic() - started < 2.0
                assert (reply["type"], reply["code"]) == ("error", "events")
                for start in range(0, len(events), 64):
                    client.send_events(stream, events[start:start + 64])
                atomic = client.close_stream(stream)
                for job in self._hostile_ltraces():
                    client._send({"type": "submit", "job": job})
                    reply = client._recv()
                    assert reply["type"] == "error", reply
                    assert reply["code"] == "job", reply
                assert len(server.inflight) == 0
                result = client.check_trace(events)
            assert _wait_until(lambda: len(server.inflight) == 0)
        for served in (atomic, {"signature": result.signature,
                                "stats": result.stats}):
            assert canonical_json(served["signature"]) == canonical_json(
                reference["signature"]
            )
            assert canonical_json(served["stats"]) == canonical_json(
                reference["stats"]
            )

    def test_invalid_tenant_name_refused_at_hello(self):
        with running_server() as (_server, (host, port)):
            with pytest.raises(ServeError):
                ServeClient(host, port, tenant="no spaces allowed")


class TestSpanReconstruction:
    def test_server_spans_parent_onto_client_context(self, traces):
        # The client opens a span, propagates its TraceContext through
        # hello, and the server's serve.stream span must appear as a
        # child in the merged record set — the repro-trace contract.
        events, _ = traces["checksum"]
        client_sink = Tracer()
        client_spans = SpanTracer(client_sink)
        server_sink = Tracer()
        server_spans = SpanTracer(server_sink)

        with running_server(spans=server_spans) as (_server, (host, port)):
            with client_spans.span("client.check") as handle:
                wire = client_spans.context(handle).to_wire()
                with ServeClient(
                    host, port, tenant="traced", trace_context=wire
                ) as client:
                    client.check_trace(events)

        merged = client_sink.records() + server_sink.records()
        begins = {
            record["name"]: record
            for record in merged if record["type"] == "span_begin"
        }
        assert "serve.stream" in begins
        client_span = begins["client.check"]
        server_span = begins["serve.stream"]
        assert server_span["parent"] == client_span["span"]
        closes = [
            record for record in merged
            if record["type"] == "span_close"
            and record["name"] == "serve.stream"
        ]
        assert closes and closes[0]["outcome"] == "result"

    def test_retry_events_are_traced(self):
        server_spans = SpanTracer(sink := Tracer())
        config = ServeConfig(tenant_overrides={
            "paused": TenantLimits(rate=0.0, burst=0.0),
        })
        with running_server(config, spans=server_spans) as (_s, (host, port)):
            client = ServeClient(
                host, port, tenant="paused", max_retries=1,
                sleep=_no_sleep,
            )
            try:
                with pytest.raises(RetryExhausted):
                    client.open_stream()
            finally:
                client.close()
        retries = [
            record for record in sink.records()
            if record["type"] == "event" and record["name"] == "serve.retry"
        ]
        assert retries
        assert retries[0]["tenant"] == "paused"
        assert retries[0]["reason"] == "rate"


class TestServerLifecycle:
    def test_registry_survives_two_servers_in_one_process(self):
        # Two servers sharing one registry must not collide on metric
        # registration (the satellite-1 regression: second pipeline in
        # one process).
        registry = MetricsRegistry()
        with running_server(registry=registry) as (_a, (host_a, port_a)):
            with ServeClient(host_a, port_a, tenant="one") as client:
                assert client.ping()
        with running_server(registry=registry) as (_b, (host_b, port_b)):
            with ServeClient(host_b, port_b, tenant="one") as client:
                assert client.ping()

    def test_config_from_env(self):
        env = {
            "REPRO_SERVE_HOST": "127.0.0.1",
            "REPRO_SERVE_PORT": "0",
            "REPRO_SERVE_MAX_INFLIGHT": "7",
            "REPRO_SERVE_RATE": "123.0",
            "REPRO_SERVE_BURST": "456.0",
            "REPRO_SERVE_MAX_BATCH": "99",
        }
        config = ServeConfig.from_env(env)
        assert config.max_inflight == 7
        assert config.max_batch == 99
        assert config.default_limits.rate == 123.0
        assert config.default_limits.burst == 456.0

    def test_frame_length_header_is_bounded(self):
        with running_server() as (_server, (host, port)):
            raw = socket.create_connection((host, port), timeout=5.0)
            raw.sendall(struct.pack(">I", 1 << 30))
            chunks = b""
            while True:
                data = raw.recv(65536)
                if not data:
                    break
                chunks += data
            raw.close()
        assert b"exceeds" in chunks
