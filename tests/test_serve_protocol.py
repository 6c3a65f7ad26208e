"""Wire protocol: framing, the event codec, and the canonical signature."""

import json
import struct

import pytest

from repro.machine.events import InputEvent, OutputEvent
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


def _steps():
    """Real committed steps: an LW (one read) and an SW (one write)."""
    from repro.isa.assembler import assemble
    from repro.machine.cpu import CPU

    cpu = CPU(assemble("""
    .text
    li r2, 0x3000
    lw r1, 4(r2)
    sw r1, 8(r2)
    halt
    """))
    events = [cpu.step() for _ in range(4)]  # lui, ori, lw, sw
    assert [e.instruction.opcode.name for e in events[2:]] == ["LW", "SW"]
    return events[2:]


def _word(text):
    from repro.isa.assembler import assemble
    from repro.machine.cpu import instruction_word

    return instruction_word(assemble(text).instructions[0])


#: Step records a committed step never produces, on the fields a record
#: still carries: the word and the address.
FORGED_STEPS = {
    "unknown-opcode": {"w": 0xFA00_0000},
    "word-high": {"w": 1 << 32},
    "word-negative": {"w": -1},
    "word-string": {"w": "0"},
    # The same value as the LW's own (cached) word, but not an int.
    "word-float": {"w": float(_word("lw r1, 4(r2)"))},
    "word-bool": {"w": True},
    "address-on-addi": {"w": _word("addi r1, r2, 3"), "a": 0x100},
    "lw-without-address": {"w": _word("lw r1, 0(r2)"), "a": None},
    "sb-without-address": {"w": _word("sb r1, 0(r2)"), "a": None},
    "address-high": {"a": 1 << 32},
    "address-negative": {"a": -4},
    "address-not-an-integer": {"a": "4096"},
    "address-float": {"a": 4096.0},
    "address-bool": {"a": True},
}


class TestEventCodec:
    def test_step_round_trip(self):
        for event in _steps():
            kind, decoded = decode_event(encode_step(event))
            assert kind == "step"
            assert decoded == event

    def test_step_record_carries_only_dynamic_fields(self):
        load, store = (encode_step(event) for event in _steps())
        assert set(load) == set(store) == {"k", "i", "pc", "w", "a", "np"}

    def test_step_with_syscall(self):
        from repro.isa.instructions import Instruction, Opcode
        from repro.machine.cpu import instruction_word, step_event

        event = step_event(
            index=5, pc=0x1010,
            word=instruction_word(Instruction(Opcode.SYSCALL)),
            address=None, next_pc=0x1014, syscall_number=2,
        )
        kind, decoded = decode_event(encode_step(event))
        assert decoded == event
        assert decoded.syscall_number == 2
        assert decoded.reads == () and decoded.writes == ()
        assert decoded.regs_read == (3, 4, 5, 6)
        assert decoded.regs_written == (3,)

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

    @pytest.mark.parametrize("forgery", sorted(FORGED_STEPS))
    def test_forged_step_record_rejected(self, forgery):
        record = {**encode_step(_steps()[0]), **FORGED_STEPS[forgery]}
        if record["a"] is None:
            del record["a"]
        with pytest.raises(ProtocolError, match="malformed event record"):
            decode_event(record)

    def test_access_size_comes_from_the_opcode(self):
        # Fields protocol revision 1 carried are ignored: a step cannot
        # set its own access size, registers or direction.
        load = _steps()[0]
        record = {**encode_step(load), "rd": [[0x3004, 10**9]],
                  "wr": [[0, 8]], "rr": [99], "rw": [-1]}
        assert decode_event(record)[1] == load

    def test_old_load_record_without_address_rejected(self):
        record = encode_step(_steps()[0])
        record["rd"] = [[record.pop("a"), 10**9]]
        with pytest.raises(ProtocolError, match="needs a u32 address"):
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
        for event in _steps():
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
