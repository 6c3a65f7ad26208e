"""Wire protocol: framing, the event codec, and the canonical signature."""

import json
import struct

import pytest

from repro.machine.events import InputEvent, MemoryAccess, OutputEvent, StepEvent
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    ProtocolError,
    canonical_json,
    canonical_signature,
    decode_batch,
    decode_event,
    decode_payload,
    encode_frame,
    encode_halt,
    encode_input,
    encode_output,
    encode_step,
)


class TestFraming:
    def test_round_trip(self):
        message = {"type": "hello", "tenant": "t1", "proto": 1}
        frame = encode_frame(message)
        length = struct.unpack(">I", frame[:4])[0]
        assert length == len(frame) - 4
        assert decode_payload(frame[4:]) == message

    def test_encoding_is_deterministic(self):
        a = encode_frame({"b": 1, "a": 2, "type": "x"})
        b = encode_frame({"a": 2, "type": "x", "b": 1})
        assert a == b

    def test_oversized_frame_rejected(self):
        with pytest.raises(ProtocolError):
            encode_frame({"type": "x", "pad": "y" * MAX_FRAME_BYTES})

    def test_payload_must_be_object_with_type(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"[1, 2, 3]")
        with pytest.raises(ProtocolError):
            decode_payload(json.dumps({"no_type": 1}).encode())
        with pytest.raises(ProtocolError):
            decode_payload(b"\xff\xfe not json")


class TestFrameDecoder:
    def test_byte_at_a_time(self):
        frame = encode_frame({"type": "ping"})
        decoder = FrameDecoder()
        messages = []
        for index in range(len(frame)):
            messages.extend(decoder.feed(frame[index:index + 1]))
        assert messages == [{"type": "ping"}]

    def test_multiple_frames_in_one_read(self):
        data = encode_frame({"type": "a"}) + encode_frame({"type": "b"})
        assert [m["type"] for m in FrameDecoder().feed(data)] == ["a", "b"]

    def test_partial_frame_buffers_across_feeds(self):
        frame = encode_frame({"type": "ping", "pad": "x" * 100})
        decoder = FrameDecoder()
        assert decoder.feed(frame[:50]) == []
        assert decoder.feed(frame[50:]) == [
            {"type": "ping", "pad": "x" * 100}
        ]

    def test_announced_oversize_rejected_before_buffering(self):
        decoder = FrameDecoder(max_frame=64)
        bogus = struct.pack(">I", 1 << 20)
        with pytest.raises(ProtocolError):
            decoder.feed(bogus)


def _step_event(**overrides):
    from repro.isa.assembler import assemble

    program = assemble("""
    .text
    ADDI r1, r0, 7
    HALT
    """)
    fields = dict(
        index=3,
        pc=0x20,
        instruction=program.instructions[0],
        regs_read=(0,),
        regs_written=(1,),
        reads=(MemoryAccess(address=0x100, size=4, is_write=False),),
        writes=(MemoryAccess(address=0x200, size=2, is_write=True),),
        next_pc=0x24,
        syscall_number=None,
    )
    fields.update(overrides)
    return StepEvent(**fields)


class TestEventCodec:
    def test_step_round_trip(self):
        event = _step_event()
        kind, decoded = decode_event(encode_step(event))
        assert kind == "step"
        assert decoded == event

    def test_step_with_syscall(self):
        event = _step_event(syscall_number=2, reads=(), writes=())
        kind, decoded = decode_event(encode_step(event))
        assert decoded.syscall_number == 2
        assert decoded.reads == () and decoded.writes == ()

    def test_input_round_trip(self):
        event = InputEvent(
            step_index=9, address=0x400, data=b"\x00\xffsecret",
            source_kind="file", source_name="input.txt", tainted_hint=True,
        )
        kind, decoded = decode_event(encode_input(event))
        assert kind == "input"
        assert decoded == event

    def test_output_round_trip(self):
        event = OutputEvent(
            step_index=11, address=0x500, length=16,
            sink_kind="file", sink_name="out.txt",
        )
        kind, decoded = decode_event(encode_output(event))
        assert kind == "output"
        assert decoded == event

    def test_halt_round_trip(self):
        kind, index = decode_event(encode_halt(42))
        assert (kind, index) == ("halt", 42)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError):
            decode_event({"k": "z", "i": 0})

    def test_malformed_step_rejected(self):
        with pytest.raises(ProtocolError):
            decode_event({"k": "s", "i": 0})  # missing pc/w/np

    @pytest.mark.parametrize("field,registers", [
        ("rw", [99]), ("rr", [-1]), ("rr", [16]), ("rw", [0, 15, 16]),
    ])
    def test_out_of_range_register_rejected(self, field, registers):
        record = encode_step(_step_event())
        record[field] = registers
        with pytest.raises(ProtocolError, match="register id"):
            decode_event(record)

    @pytest.mark.parametrize("hint", ["false", "true", 0, 1, None])
    def test_tainted_hint_must_be_a_json_boolean(self, hint):
        event = InputEvent(
            step_index=0, address=0, data=b"x", source_kind="file",
            source_name="f", tainted_hint=False,
        )
        record = encode_input(event)
        assert decode_event(record)[1].tainted_hint is False
        record["th"] = hint
        with pytest.raises(ProtocolError, match="JSON boolean"):
            decode_event(record)

    def test_bad_base64_rejected(self):
        record = encode_input(InputEvent(
            step_index=0, address=0, data=b"x", source_kind="file",
            source_name="f", tainted_hint=True,
        ))
        record["d"] = "!!! not base64 !!!"
        with pytest.raises(ProtocolError):
            decode_event(record)

    def test_batch_decodes_atomically(self):
        good = encode_halt(1)
        with pytest.raises(ProtocolError):
            decode_batch([good, {"k": "z"}])
        with pytest.raises(ProtocolError):
            decode_batch("not a list")

    def test_wire_survives_json(self):
        event = _step_event()
        record = json.loads(json.dumps(encode_step(event)))
        assert decode_event(record)[1] == event


class TestCanonicalSignature:
    def test_mirrors_oracle_state_signature(self):
        from repro.check.oracle import state_signature
        from repro.pipeline import StreamingPipeline
        from repro.workloads.programs import checksum

        cpu = checksum().make_cpu()
        system = StreamingPipeline(cpu)
        cpu.run(100_000)
        system.finish()

        wire = canonical_signature(system.engine)
        alerts, tainted, trf = state_signature(system.engine)
        assert [tuple(a) for a in wire["alerts"]] == [
            (kind.value, pc) for kind, pc in
            [(alert.kind, alert.pc) for alert in system.engine.alerts]
        ]
        assert list(wire["tainted"]) == list(tainted)
        assert len(wire["trf"]) == 16

    def test_survives_json_round_trip(self):
        from repro.pipeline import StreamingPipeline
        from repro.workloads.programs import checksum

        cpu = checksum().make_cpu()
        system = StreamingPipeline(cpu)
        cpu.run(100_000)
        system.finish()
        wire = canonical_signature(system.engine)
        assert json.loads(canonical_json(wire)) == wire

    def test_canonical_json_is_stable(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'


class TestWireConfig:
    def test_wire_booleans_must_be_json_booleans(self):
        from repro.serve.session import latch_config_from_wire

        for value in (False, True):
            config = latch_config_from_wire({"use_tlb_bits": value})
            assert config.use_tlb_bits is value
        for bad in ("false", "true", 0, 1, None, [], {}):
            with pytest.raises(ProtocolError, match="JSON boolean"):
                latch_config_from_wire({"use_tlb_bits": bad})

    def test_backend_wire_knob_is_unknown(self):
        from repro.serve.session import pipeline_config_from_wire

        for value in ("scalar", "vector"):
            with pytest.raises(ProtocolError, match="unknown pipeline knob"):
                pipeline_config_from_wire({"backend": value})

    @pytest.mark.parametrize("overrides", [
        {"model_epoch": 1},
        {"model_epoch": 1000},
        {"hist_mode": "exact"},
        {"hist_mode": "bounded"},
        {"gate_batch": 1},
        {"gate_batch": 16},
    ])
    def test_retired_wire_knobs_are_unknown(self, overrides):
        from repro.serve.session import pipeline_config_from_wire

        with pytest.raises(ProtocolError, match="unknown pipeline knob"):
            pipeline_config_from_wire(overrides)

    @pytest.mark.parametrize("overrides", [
        {"queue_capacity": "abc"},
        {"queue_capacity": None},
        {"sample_window": "wide"},
        {"sample_rate": 0.0},
        {"drain_batch": float("inf")},
    ])
    def test_bad_pipeline_values_are_protocol_errors(self, overrides):
        from repro.serve.session import pipeline_config_from_wire

        with pytest.raises(ProtocolError):
            pipeline_config_from_wire(overrides)

    def test_served_default_is_event_at_a_time(self):
        from repro.pipeline import PipelineConfig
        from repro.serve.session import pipeline_config_from_wire

        assert pipeline_config_from_wire(None) == PipelineConfig()
