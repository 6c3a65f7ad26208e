"""Wire protocol: framing, event batches, and the canonical signature."""

import base64
import json
import struct

import pytest

from repro.machine.events import InputEvent, OutputEvent, StepEvent
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    ProtocolError,
    batch_events,
    canonical_json,
    canonical_signature,
    decode_batch,
    decode_payload,
    encode_frame,
)
from repro.trace.record import TraceRecorder
from repro.trace.rows import INPUT_ROW, STEP_FIELDS, STEP_ROW


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


def _recorded(*events, halt=None):
    """A recorder fed ``events`` (and a halt) through its observer hooks."""
    recorder = TraceRecorder()
    hooks = {StepEvent: recorder.on_step, InputEvent: recorder.on_input,
             OutputEvent: recorder.on_output}
    for event in events:
        hooks[type(event)](event)
    if halt is not None:
        recorder.on_halt(halt)
    return recorder


_STEP_NAMES = [name for name, _ in STEP_FIELDS]


def forge_load(batch, **fields):
    """``batch`` with the fields of its first load or store row replaced."""
    rows = bytearray(base64.b64decode(batch["steps"]))
    for offset in range(0, len(rows), STEP_ROW.size):
        row = dict(zip(_STEP_NAMES, STEP_ROW.unpack_from(rows, offset)))
        if row["address"] != -1:
            row.update(fields)
            STEP_ROW.pack_into(rows, offset, *row.values())
            return {**batch, "steps": base64.b64encode(rows).decode()}
    raise AssertionError("the batch holds no load or store")


#: Step forgeries.  Row forgeries rewrite a load's word or address to
#: one no committed step has.  A row holds only integers of each
#: field's width, so the JSON codec's ill-typed words (out of range,
#: strings, floats, booleans) become ill-typed step sections, and its
#: ill-typed addresses an ill-typed ``halt``, the batch's one integer.
FORGED_STEPS = {
    "unknown-opcode": {"word": 0xFA00_0000},
    "word-high": {"steps": 1 << 32},
    "word-negative": {"steps": -1},
    "word-string": {"steps": "0"},
    "word-float": {"steps": float(_word("lw r1, 4(r2)"))},
    "word-bool": {"steps": True},
    "address-on-addi": {"word": _word("addi r1, r2, 3"), "address": 0x100},
    "lw-without-address": {"word": _word("lw r1, 0(r2)"), "address": -1},
    "sb-without-address": {"word": _word("sb r1, 0(r2)"), "address": -1},
    "address-high": {"address": 1 << 32},
    "address-negative": {"address": -4},
    "address-not-an-integer": {"halt": "4096"},
    "address-float": {"halt": 4096.0},
    "address-bool": {"halt": True},
}


def forged_batch(batch, forgery):
    """``batch`` with one :data:`FORGED_STEPS` forgery applied."""
    edit = FORGED_STEPS[forgery]
    row = {key: value for key, value in edit.items() if key in _STEP_NAMES}
    if row:
        batch = forge_load(batch, **row)
    return {**batch, **{key: value for key, value in edit.items()
                        if key not in row}}


def _input():
    return InputEvent(
        step_index=9, address=0x400, data=b"\x00\xffsecret",
        source_kind="file", source_name="input.txt", tainted_hint=True,
    )


class TestEventCodec:
    def test_step_round_trip(self):
        for event in _steps():
            assert decode_batch(_recorded(event)[:]) == [("step", event)]

    def test_step_record_carries_only_dynamic_fields(self):
        assert _STEP_NAMES == [
            "seq", "index", "pc", "next_pc", "word", "address", "syscall"
        ]
        assert STEP_ROW.size == 52
        assert set(_recorded(*_steps())[:]) == {"steps"}

    def test_step_with_syscall(self):
        from repro.isa.instructions import Instruction, Opcode
        from repro.machine.cpu import instruction_word, step_event

        event = step_event(
            index=5, pc=0x1010,
            word=instruction_word(Instruction(Opcode.SYSCALL)),
            address=None, next_pc=0x1014, syscall_number=2,
        )
        [(kind, decoded)] = decode_batch(_recorded(event)[:])
        assert decoded == event
        assert decoded.syscall_number == 2
        assert decoded.reads == () and decoded.writes == ()
        assert decoded.regs_read == (3, 4, 5, 6)
        assert decoded.regs_written == (3,)

    def test_input_round_trip(self):
        event = _input()
        assert decode_batch(_recorded(event)[:]) == [("input", event)]

    def test_output_round_trip(self):
        event = OutputEvent(
            step_index=11, address=0x500, length=16,
            sink_kind="file", sink_name="out.txt",
        )
        assert decode_batch(_recorded(event)[:]) == [("output", event)]

    def test_halt_round_trip(self):
        batch = _recorded(halt=42)[:]
        assert batch == {"halt": 42}
        assert decode_batch(batch) == [("halt", 42)]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="unknown batch fields"):
            decode_batch({"k": "z", "i": 0})

    def test_malformed_step_rejected(self):
        # A step row cut short of its syscall field.
        row = base64.b64decode(_recorded(_steps()[0])[:]["steps"])
        with pytest.raises(ProtocolError, match="whole 52-byte rows"):
            decode_batch({"steps": base64.b64encode(row[:-8]).decode()})

    @pytest.mark.parametrize("forgery", sorted(FORGED_STEPS))
    def test_forged_step_record_rejected(self, forgery):
        batch = forged_batch(_recorded(*_steps())[:], forgery)
        with pytest.raises(ProtocolError, match="bad event batch"):
            decode_batch(batch)
        with pytest.raises(ProtocolError):
            decode_batch(json.loads(json.dumps(batch)))

    def test_access_size_comes_from_the_opcode(self):
        from repro.isa.instructions import LOAD_SIZES, STORE_SIZES

        load, store = _steps()
        assert decode_batch(_recorded(load, store)[:]) == [
            ("step", load), ("step", store)
        ]
        assert load.reads[0].size == LOAD_SIZES[load.instruction.opcode]
        assert store.writes[0].size == STORE_SIZES[store.instruction.opcode]
        # No field of a batch can carry a size, registers or direction.
        with pytest.raises(ProtocolError, match="unknown batch fields"):
            decode_batch({**_recorded(load)[:], "rd": [[0x3004, 10**9]]})

    def test_old_load_record_without_address_rejected(self):
        batch = forge_load(_recorded(_steps()[0])[:], address=-1)
        with pytest.raises(ProtocolError, match="needs a u32 address"):
            decode_batch(batch)

    @pytest.mark.parametrize("hint", [2, 3, 0x7F, 0x80, 0xFF])
    def test_tainted_hint_byte_must_be_0_or_1(self, hint):
        batch = _recorded(_input())[:]
        assert decode_batch(batch)[0][1].tainted_hint is True
        row = bytearray(base64.b64decode(batch["inputs"]))
        row[INPUT_ROW.size - 1] = hint
        with pytest.raises(ProtocolError, match="tainted_hint byte"):
            decode_batch({**batch, "inputs": base64.b64encode(row).decode()})

    def test_bad_base64_rejected(self):
        batch = _recorded(_input())[:]
        batch["data"] = "!!! not base64 !!!"
        with pytest.raises(ProtocolError):
            decode_batch(batch)

    def test_batch_decodes_atomically(self):
        good = _recorded(*_steps(), halt=1)[:]
        with pytest.raises(ProtocolError):
            decode_batch(forge_load(good, address=1 << 32))
        for bad in ("not an object", [good], None):
            with pytest.raises(ProtocolError, match="must be an object"):
                decode_batch(bad)

    def test_wire_survives_json(self):
        recorder = _recorded(*_steps(), _input(), halt=7)
        batch = json.loads(json.dumps(recorder[:]))
        assert [event for _, event in decode_batch(batch)] == [
            *_steps(), _input(), 7
        ]


class TestBatchRows:
    """Seq stamps, slices and the section-derived event count."""

    def test_slices_decode_to_the_stream(self):
        recorder = _recorded(*_steps(), _input(), *_steps(), halt=4)
        whole = decode_batch(recorder)
        assert len(recorder) == len(whole) == 6
        for size in (1, 2, 4):
            pieces = [pair for start in range(0, len(recorder), size)
                      for pair in decode_batch(recorder[start:start + size])]
            assert pieces == whole

    def test_event_count_comes_from_section_lengths(self):
        recorder = _recorded(*_steps(), _input(), halt=3)
        assert batch_events(recorder[:]) == 4
        assert batch_events(recorder[1:3]) == 2
        assert batch_events({}) == 0
        with pytest.raises(ProtocolError, match="whole 49-byte rows"):
            batch_events({"inputs": base64.b64encode(b"x" * 50).decode()})

    @pytest.mark.parametrize("seqs", [(0, 0), (0, 2), (5, 3, 3)],
                             ids=["repeated", "gap", "repeat-after-gap"])
    def test_seq_stamps_must_number_a_run(self, seqs):
        load, store = _steps()
        rows = b"".join(
            STEP_ROW.pack(seq, *STEP_ROW.unpack(
                base64.b64decode(_recorded(event)[:]["steps"]))[1:])
            for seq, event in zip(seqs, [load, store, load])
        )
        with pytest.raises(ProtocolError, match="seq"):
            decode_batch({"steps": base64.b64encode(rows).decode()})

    def test_seq_stamps_order_rows_of_one_section(self):
        load, store = _steps()
        rows = base64.b64decode(_recorded(load, store)[:]["steps"])
        swapped = rows[STEP_ROW.size:] + rows[:STEP_ROW.size]
        assert decode_batch({
            "steps": base64.b64encode(swapped).decode()
        }) == [("step", load), ("step", store)]


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
