"""Fuzzing the ``events`` batch decoder.

A batch sliced from a recorded trace decodes to exactly the live
events it holds.  A mutated batch decodes to exactly its source's
events or is a :class:`ProtocolError`: ragged sections, seq stamps out
of order, pool indices and payload bounds out of range, words that do
not decode, stray, missing or out-of-range addresses, and ill-typed
fields.  Random
section bytes either decode to events a recorder could have written,
as many as the admission count says, or are a :class:`ProtocolError`;
no other exception escapes.  A rejected :meth:`StreamSession.feed`
leaves the pipeline untouched.

``--hypothesis-profile=deep`` runs the properties longer.
"""

from __future__ import annotations

import base64
import json

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.check.generator import generate_program
from repro.machine.cpu import instruction_word, step_event
from repro.machine.events import Observer
from repro.serve.protocol import ProtocolError, batch_events, decode_batch
from repro.trace.record import TraceRecorder
from repro.trace.rows import INPUT_ROW, OUTPUT_ROW, SECTIONS, STEP_ROW
from repro.workloads import programs

ROWS = {"steps": STEP_ROW, "inputs": INPUT_ROW, "outputs": OUTPUT_ROW}
FIELDS = {name: [field for field, _ in fields]
          for name, fields in SECTIONS.items()}


class _Log(Observer):
    """The live stream as ``(kind, payload)`` pairs, halt included."""

    def __init__(self) -> None:
        self.pairs = []

    def on_step(self, event):
        self.pairs.append(("step", event))

    def on_input(self, event):
        self.pairs.append(("input", event))

    def on_output(self, event):
        self.pairs.append(("output", event))

    def on_halt(self, step_index):
        self.pairs.append(("halt", step_index))


def _record(make_cpu):
    cpu = make_cpu()
    recorder, log = TraceRecorder(), _Log()
    cpu.attach(recorder)
    cpu.attach(log)
    try:
        cpu.run(20_000)
    except Exception:
        pass
    return recorder, log.pairs


#: Recorded traces with inputs, outputs, loads, stores and syscalls.
TRACES = [_record(make_cpu) for make_cpu in (
    lambda: programs.echo_server([b"GET /", b"x" * 40], [False, True])
    .make_cpu(),
    lambda: programs.file_filter(bytes(range(48))).make_cpu(),
    generate_program(0).make_cpu,
    generate_program(7).make_cpu,
)]


@st.composite
def sources(draw):
    """A slice of a recorded trace and the live events it holds."""
    recorder, pairs = draw(st.sampled_from(TRACES))
    start = draw(st.integers(0, len(recorder) - 1))
    stop = draw(st.integers(start + 1, min(len(recorder), start + 48)))
    assert len(pairs) == len(recorder)
    return recorder[start:stop], pairs[start:stop]


def _rows(batch, name):
    raw = base64.b64decode(batch.get(name, ""))
    return [dict(zip(FIELDS[name], row))
            for row in ROWS[name].iter_unpack(raw)]


def _with_rows(batch, name, rows):
    packed = b"".join(ROWS[name].pack(*row.values()) for row in rows)
    return {**batch, name: base64.b64encode(packed).decode()}


def _seqs(batch):
    return sorted(row["seq"] for name in ROWS for row in _rows(batch, name))


# ------------------------------------------------------------- mutations
#
# Each takes (draw, batch) and returns a mutated batch; ``assume`` skips
# batches a mutation does not apply to.


def ragged(draw, batch):
    name = draw(st.sampled_from(sorted(ROWS)))
    raw = base64.b64decode(batch.get(name, ""))
    size = ROWS[name].size
    cut = draw(st.integers(1, size - 1))
    raw = raw[:-cut] if len(raw) >= size and draw(st.booleans()) \
        else raw + bytes(cut)
    return {**batch, name: base64.b64encode(raw).decode()}


def repeated_seq(draw, batch):
    seqs = _seqs(batch)
    assume(len(seqs) >= 2)
    name = draw(st.sampled_from([n for n in ROWS if _rows(batch, n)]))
    rows = _rows(batch, name)
    row = draw(st.sampled_from(rows))
    row["seq"] = draw(st.sampled_from([s for s in seqs if s != row["seq"]]))
    return _with_rows(batch, name, rows)


def gap_in_seqs(draw, batch):
    names = [name for name in ROWS if _rows(batch, name)]
    assume(names)
    name = draw(st.sampled_from(names))
    rows = _rows(batch, name)
    row = draw(st.sampled_from(rows))
    # At least 2 past the last stamp: moving the first row to just
    # past the end would only rotate the run.
    row["seq"] = _seqs(batch)[-1] + draw(st.integers(2, 1 << 40))
    return _with_rows(batch, name, rows)


def shuffled_rows(draw, batch):
    name = draw(st.sampled_from(sorted(ROWS)))
    return _with_rows(batch, name, draw(st.permutations(_rows(batch, name))))


def pool_index(draw, batch):
    choices = [(n, f) for n in ("inputs", "outputs") if _rows(batch, n)
               for f in FIELDS[n] if f.endswith(("_kind", "_name"))]
    assume(choices)
    name, field = draw(st.sampled_from(choices))
    rows = _rows(batch, name)
    pool = len(batch.get("strings", []))
    draw(st.sampled_from(rows))[field] = draw(
        st.integers(pool, 2**31 - 1) | st.integers(-2**31, -1)
    )
    return _with_rows(batch, name, rows)


def io_range(draw, batch):
    choices = [(name, field) for name in ("inputs", "outputs")
               if _rows(batch, name) for field in ("address", "length")
               if field in FIELDS[name]]
    assume(choices)
    name, field = draw(st.sampled_from(choices))
    rows = _rows(batch, name)
    draw(st.sampled_from(rows))[field] = draw(
        st.integers(2**32, 2**63 - 1) | st.integers(-2**63, -1)
    )
    return _with_rows(batch, name, rows)


def payload_bounds(draw, batch):
    rows = _rows(batch, "inputs")
    assume(rows)
    row = draw(st.sampled_from(rows))
    size = len(base64.b64decode(batch.get("data", "")))
    field = draw(st.sampled_from(["data_off", "data_len"]))
    if draw(st.booleans()):
        row[field] = draw(st.integers(-2**63, -1))
    elif field == "data_off":
        row["data_off"] = size - row["data_len"] + draw(st.integers(1, 999))
    else:
        row["data_len"] = size - row["data_off"] + draw(st.integers(1, 999))
    return _with_rows(batch, "inputs", rows)


def _step_rows(batch, wanted):
    rows = _rows(batch, "steps")
    picked = [row for row in rows if wanted(row)]
    assume(picked)
    return rows, picked


def undecodable_word(draw, batch):
    from repro.isa.instructions import Opcode

    rows, picked = _step_rows(batch, lambda row: True)
    opcode = draw(st.integers(0, 255).filter(
        lambda byte: byte not in {int(op) for op in Opcode}))
    row = draw(st.sampled_from(picked))
    row["word"] = opcode << 24 | row["word"] & 0xFF_FFFF
    return _with_rows(batch, "steps", rows)


def stray_address(draw, batch):
    rows, picked = _step_rows(batch, lambda row: row["address"] == -1)
    draw(st.sampled_from(picked))["address"] = draw(st.integers(0, 2**32 - 1))
    return _with_rows(batch, "steps", rows)


def missing_address(draw, batch):
    rows, picked = _step_rows(batch, lambda row: row["address"] != -1)
    draw(st.sampled_from(picked))["address"] = draw(
        st.just(-1) | st.integers(-2**63, -2) | st.integers(2**32, 2**63 - 1)
    )
    return _with_rows(batch, "steps", rows)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def ill_typed_field(draw, batch):
    field = draw(st.sampled_from(
        ["steps", "inputs", "outputs", "data", "strings", "halt", "extra"]
    ))
    value = draw(JSON_VALUES)
    if field in ("steps", "inputs", "outputs", "data"):
        assume(not isinstance(value, str))
    elif field == "strings":
        assume(not isinstance(value, list)
               or not all(isinstance(text, str) for text in value))
    elif field == "halt":
        assume(value is not None and type(value) is not int)
    return {**batch, field: value}


MUTATIONS = {
    "ragged": ragged,
    "repeated-seq": repeated_seq,
    "gap-in-seqs": gap_in_seqs,
    "shuffled-rows": shuffled_rows,
    "pool-index": pool_index,
    "io-range": io_range,
    "payload-bounds": payload_bounds,
    "undecodable-word": undecodable_word,
    "stray-address": stray_address,
    "missing-address": missing_address,
    "ill-typed-field": ill_typed_field,
}


@st.composite
def mutated(draw):
    batch, pairs = draw(sources())
    name = draw(st.sampled_from(sorted(MUTATIONS)))
    return name, MUTATIONS[name](draw, dict(batch)), pairs


def _re_recorded(pairs):
    """``pairs`` re-recorded by a recorder and decoded again."""
    recorder = TraceRecorder()
    hooks = {"step": recorder.on_step, "input": recorder.on_input,
             "output": recorder.on_output, "halt": recorder.on_halt}
    for kind, payload in pairs:
        hooks[kind](payload)
    return decode_batch(recorder[:])


SETTINGS = settings(suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.filter_too_much])


class TestBatchDecoder:
    @SETTINGS
    @given(sources())
    def test_slices_decode_to_their_live_events(self, source):
        batch, pairs = source
        assert batch_events(batch) == len(pairs)
        assert decode_batch(json.loads(json.dumps(batch))) == pairs

    @SETTINGS
    @given(mutated())
    def test_mutations_decode_exactly_or_raise(self, case):
        name, batch, pairs = case
        try:
            decoded = decode_batch(json.loads(json.dumps(batch)))
        except ProtocolError:
            return
        assert decoded == pairs, name

    @SETTINGS
    @given(sources(), st.sampled_from(sorted(ROWS) + ["data"]),
           st.binary(max_size=4 * STEP_ROW.size))
    def test_random_section_bytes_decode_or_raise(self, source, name, raw):
        batch = {**source[0], name: base64.b64encode(raw).decode()}
        try:
            count = batch_events(batch)
            decoded = decode_batch(batch)
        except ProtocolError:
            return
        assert len(decoded) == count
        assert _re_recorded(decoded) == decoded

    @SETTINGS
    @given(JSON_VALUES)
    def test_arbitrary_json_decodes_or_raises(self, batch):
        try:
            decoded = decode_batch(batch)
        except ProtocolError:
            return
        assert len(decoded) == batch_events(batch)


def _session():
    from repro.obs import MetricsRegistry
    from repro.serve.admission import AdmissionController, InFlightTable
    from repro.serve.session import StreamSession
    from repro.serve.tenant import TenantLimits, TenantState

    tenant = TenantState("fuzz", TenantLimits(rate=1e9, burst=1e9),
                         MetricsRegistry())
    controller = AdmissionController(InFlightTable(4))
    return StreamSession(tenant, "s1", controller.admit_request(
        tenant, "stream"), controller)


def _state(session):
    from repro.serve.protocol import canonical_signature
    from repro.serve.session import _stats_payload

    tenant = session.tenant
    return (_stats_payload(session.pipeline), session.events_fed,
            session.halted, tenant.events_in, tenant.batches,
            canonical_signature(session.pipeline.engine))


class TestRejectedFeed:
    @SETTINGS
    @given(mutated(), st.integers(0, 64))
    def test_rejected_feed_leaves_the_pipeline_unchanged(self, case, prefix):
        name, batch, _ = case
        try:
            decode_batch(batch)
            accepted = True
        except ProtocolError:
            accepted = False
        assume(not accepted)
        recorder, _ = TRACES[0]
        session = _session()
        session.feed(recorder[:prefix])
        before = _state(session)
        with pytest.raises(ProtocolError):
            session.feed(batch)
        assert _state(session) == before, name


class TestDecodeCacheSoak:
    def test_distinct_words_keep_the_decode_caches_bounded(self):
        from repro.isa.instructions import Instruction, Opcode
        from repro.machine.cpu import decode_word

        session = _session()
        recorder = TraceRecorder()
        for index in range(10_000):
            # ADDI r1, r(index % 15 + 1), index: 10,000 distinct words.
            word = instruction_word(Instruction(
                Opcode.ADDI, rd=1, rs1=index % 15 + 1, imm=index))
            recorder.on_step(step_event(
                index, 0x1000 + 4 * index, word, None,
                0x1004 + 4 * index, None))
        words = {row["word"] for row in _rows(recorder[:], "steps")}
        assert len(words) == 10_000
        for start in range(0, len(recorder), 512):
            session.feed(recorder[start:start + 512])
            assert decode_word.cache_info().currsize <= 4096
            assert instruction_word.cache_info().currsize <= 4096
        assert session.events_fed == 10_000
