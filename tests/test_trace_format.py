"""Conformance battery for the ``.ltrace`` columnar container.

Three layers of lock-down:

* **event conformance** — every observer event kind round-trips through
  :class:`~repro.trace.record.TraceRecorder` field-exact: the decoded
  ``StepEvent`` / ``InputEvent`` / ``OutputEvent`` stream compares equal
  (dataclass equality) to what the live CPU emitted, in the same commit
  order, and replaying it into a fresh byte-precise engine reproduces
  the reference signature;
* **golden layout pin** — the committed gcc window
  ``tests/golden/gcc_w2000_s0.ltrace`` must equal a fresh encode of its
  own contents byte for byte, so the v1 binary layout
  (prologue, 64-byte alignment, section order, directory JSON) cannot
  drift silently, and its sharded replay must still reproduce the
  long-standing golden H-LATCH counters from ``expected.json``;
* **corruption hardening** — truncation, flipped bytes, foreign magic,
  forged directory entries, and future format versions all fail at
  *open* time with a :class:`StorageFormatError` naming the file and
  the problem.
"""

from __future__ import annotations

import json
import struct
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.check.generator import generate_program
from repro.check.oracle import run_reference, state_signature
from repro.dift.engine import DIFTEngine
from repro.isa.instructions import Instruction, Opcode
from repro.machine.cpu import instruction_word
from repro.machine.events import InputEvent, Observer, OutputEvent, StepEvent
from repro.trace.convert import (
    ACCESS_KIND,
    epoch_starts,
    load_columnar_trace,
    save_columnar_trace,
)
from repro.trace.format import (
    TRACE_MAGIC,
    TRACE_VERSION,
    ColumnarFile,
    StorageFormatError,
    to_bytes,
    write_columnar,
)
from repro.trace.record import (
    EVENT_KIND,
    TraceRecorder,
    iter_events,
    replay_events,
)
from repro.trace.replay import replay_columnar
from repro.trace.rows import STEP_FIELDS, STEP_ROW
GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_WINDOW = GOLDEN_DIR / "gcc_w2000_s0.ltrace"
EXPECTED = json.loads((GOLDEN_DIR / "expected.json").read_text())

#: Seeds whose generated programs exercise inputs, outputs, tainted and
#: clean loads/stores, straddles, and syscall-free stretches.
SEEDS = (0, 3, 7, 11, 42)


class _EventLog(Observer):
    """Record the live object-path event stream for exact comparison."""

    def __init__(self) -> None:
        self.events = []
        self.halt = None

    def on_step(self, event: StepEvent) -> None:
        self.events.append(event)

    def on_input(self, event: InputEvent) -> None:
        self.events.append(event)

    def on_output(self, event: OutputEvent) -> None:
        self.events.append(event)

    def on_halt(self, step_index: int) -> None:
        self.halt = step_index


def _record(seed):
    """Run one generated program with recorder + live log attached."""
    cp = generate_program(seed)
    cpu = cp.make_cpu()
    recorder = TraceRecorder(name=cp.name)
    log = _EventLog()
    cpu.attach(log)
    cpu.attach(recorder)
    try:
        cpu.run(10_000)
    except Exception:
        pass
    return cp, recorder, log


def _forge_step(recorder, instruction, address):
    """Overwrite the first recorded step's word (an ``Instruction`` or a
    raw word) and address."""
    word = (instruction if isinstance(instruction, int)
            else instruction_word(instruction))
    steps = recorder._sections[0]
    step = dict(zip((name for name, _ in STEP_FIELDS),
                    STEP_ROW.unpack_from(steps)))
    step.update(word=word, address=address)
    STEP_ROW.pack_into(steps, 0, *step.values())


class TestEventConformance:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_round_trip_is_field_exact(self, seed):
        _, recorder, log = _record(seed)
        decoded = list(iter_events(recorder.to_bytes()))
        assert len(decoded) == len(log.events)
        for got, want in zip(decoded, log.events):
            assert type(got) is type(want)
            assert got == want

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_kind_appears_somewhere(self, seed):
        # The battery is only meaningful if the corpus of generated
        # programs actually exercises the whole event vocabulary.
        _, recorder, log = _record(seed)
        kinds = {type(event) for event in log.events}
        assert StepEvent in kinds
        if seed in (0, 7, 42):
            assert InputEvent in kinds or OutputEvent in kinds

    @pytest.mark.parametrize("seed", SEEDS)
    def test_replay_reproduces_reference_signature(self, seed):
        cp, recorder, _ = _record(seed)
        reference, _ = run_reference(cp)
        replayed = DIFTEngine()
        steps = replay_events(recorder.to_bytes(), replayed)
        assert steps == recorder.step_count
        assert state_signature(replayed) == state_signature(reference)

    def test_halt_is_replayed(self, tmp_path):
        _, recorder, log = _record(0)
        path = tmp_path / "run.ltrace"
        recorder.save(path)
        sink = _EventLog()
        replay_events(path, sink)
        assert recorder.halt_step == log.halt
        assert sink.halt == log.halt

    @pytest.mark.parametrize("address", [1 << 32, -5],
                             ids=["high", "negative"])
    def test_out_of_range_address_is_a_format_error(self, address):
        _, recorder, _ = _record(0)
        _forge_step(recorder, Instruction(Opcode.LW, rd=1, rs1=2), address)
        sink = _EventLog()
        with pytest.raises(StorageFormatError, match="LW step with address"):
            replay_events(recorder.to_bytes(), sink)
        assert sink.events == [], "rejected before any event is replayed"

    def test_unknown_opcode_is_a_format_error(self):
        _, recorder, _ = _record(0)
        _forge_step(recorder, 0xFA00_0000, -1)
        with pytest.raises(StorageFormatError, match="unknown opcode"):
            replay_events(recorder.to_bytes(), _EventLog())

    @pytest.mark.parametrize("instruction,address", [
        (Instruction(Opcode.LW, rd=1, rs1=2), -1),
        (Instruction(Opcode.SB, rs1=2, rs2=1), -1),
        (Instruction(Opcode.ADDI, rd=1, rs1=2, imm=3), 0x100),
    ], ids=["LW-missing", "SB-missing", "ADDI-stray"])
    def test_address_presence_must_match_the_opcode(
        self, instruction, address
    ):
        _, recorder, _ = _record(0)
        _forge_step(recorder, instruction, address)
        sink = _EventLog()
        with pytest.raises(
            StorageFormatError,
            match=f"{instruction.opcode.name} step with address {address}",
        ):
            replay_events(recorder.to_bytes(), sink)
        assert sink.events == [], "rejected before any event is replayed"

    def test_kind_guard_rejects_access_trace(self):
        with load_columnar_trace(GOLDEN_WINDOW) as trace:
            blob = to_bytes(ACCESS_KIND, {"addresses": trace.addresses}, {})
        with pytest.raises(StorageFormatError, match=EVENT_KIND):
            list(iter_events(blob))


class TestAccessTraceRoundTrip:
    @pytest.fixture(scope="class")
    def golden_trace(self):
        with load_columnar_trace(GOLDEN_WINDOW) as view:
            return view.to_access_trace()

    def test_columns_round_trip_exactly(self, golden_trace, tmp_path):
        path = tmp_path / "gcc.ltrace"
        save_columnar_trace(golden_trace, path)
        with load_columnar_trace(path) as view:
            assert view.name == golden_trace.name
            assert len(view) == golden_trace.access_count
            for column in ("addresses", "sizes", "is_write", "tainted",
                           "gap_before", "active_epoch"):
                np.testing.assert_array_equal(
                    getattr(view, column), getattr(golden_trace, column)
                )
            np.testing.assert_array_equal(
                view.layout.extents, golden_trace.layout.extents
            )
            assert (view.layout.accessed_pages
                    == golden_trace.layout.accessed_pages)

    def test_views_are_zero_copy_and_read_only(self, golden_trace, tmp_path):
        path = tmp_path / "gcc.ltrace"
        save_columnar_trace(golden_trace, path)
        view = load_columnar_trace(path)
        addresses = view.addresses
        assert not addresses.flags.owndata
        assert not addresses.flags.writeable
        with pytest.raises(ValueError):
            addresses[0] = 1
        sliced = addresses[5:50]
        assert sliced.base is not None  # still a view over the map
        view.close()

    def test_epoch_starts_mark_flag_flips(self):
        flags = np.array([1, 1, 0, 0, 0, 1, 0], dtype=bool)
        assert epoch_starts(flags).tolist() == [0, 2, 5, 6]
        assert epoch_starts(np.empty(0, dtype=bool)).tolist() == []
        assert epoch_starts(np.ones(4, dtype=bool)).tolist() == [0]

    def test_bytes_and_path_sources_agree(self, golden_trace, tmp_path):
        from repro.trace.convert import columnar_trace_bytes

        path = tmp_path / "gcc.ltrace"
        save_columnar_trace(golden_trace, path)
        assert path.read_bytes() == columnar_trace_bytes(golden_trace)


class TestGoldenLayout:
    def test_v1_layout_is_byte_stable(self):
        golden = GOLDEN_WINDOW.read_bytes()
        from repro.trace.convert import columnar_trace_bytes

        with load_columnar_trace(golden) as view:
            trace = view.to_access_trace()
        assert columnar_trace_bytes(trace) == golden

    def test_golden_prologue_fields(self):
        golden = GOLDEN_WINDOW.read_bytes()
        assert golden[:4] == TRACE_MAGIC
        version = struct.unpack_from("<H", golden, 4)[0]
        assert version == TRACE_VERSION == 1

    def test_golden_replay_matches_golden_counters(self):
        # Cross-format pin: the sharded columnar replay of the committed
        # container must reproduce the long-standing golden H-LATCH
        # snapshot produced by the scalar object path.
        result = replay_columnar(
            GOLDEN_WINDOW, shards=4, baseline_config=None
        )
        metrics = result.system.snapshot().to_dict()["metrics"]
        assert metrics == EXPECTED["gcc"]["hlatch_snapshot"]["metrics"]


class TestCorruption:
    @pytest.fixture()
    def intact(self):
        return GOLDEN_WINDOW.read_bytes()

    def _must_fail(self, blob, match):
        with pytest.raises(StorageFormatError, match=match):
            ColumnarFile(bytes(blob))

    def test_committed_truncated_fixture(self):
        with pytest.raises(StorageFormatError) as excinfo:
            ColumnarFile(GOLDEN_DIR / "corrupt_trace.ltrace")
        assert "corrupt_trace.ltrace" in str(excinfo.value)

    def test_truncated_tail(self, intact):
        self._must_fail(intact[:-7], "truncated")

    def test_truncated_to_prologue_fragment(self, intact):
        self._must_fail(intact[:10], "prologue")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.ltrace"
        path.write_bytes(b"")
        with pytest.raises(StorageFormatError, match="empty"):
            ColumnarFile(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ColumnarFile(tmp_path / "nope.ltrace")

    def test_bad_magic(self, intact):
        self._must_fail(b"NOPE" + intact[4:], "bad magic")

    def test_future_version(self, intact):
        blob = bytearray(intact)
        struct.pack_into("<H", blob, 4, TRACE_VERSION + 1)
        self._must_fail(blob, "newer than this build")

    def test_version_zero(self, intact):
        blob = bytearray(intact)
        struct.pack_into("<H", blob, 4, 0)
        self._must_fail(blob, "invalid format version")

    def test_flipped_section_byte(self, intact):
        blob = bytearray(intact)
        blob[200] ^= 0xFF  # inside the first section payload
        self._must_fail(blob, "checksum mismatch")

    def test_flipped_directory_byte(self, intact):
        blob = bytearray(intact)
        blob[-3] ^= 0xFF  # inside the trailing JSON directory
        self._must_fail(blob, "checksum mismatch")

    def test_directory_crc_field_flipped(self, intact):
        blob = bytearray(intact)
        blob[24] ^= 0xFF  # the prologue's dir_crc32 field itself
        self._must_fail(blob, "checksum mismatch")

    def test_missing_section(self):
        blob = to_bytes(ACCESS_KIND, {"addresses": np.arange(4)}, {})
        handle = ColumnarFile(blob)
        with pytest.raises(StorageFormatError, match="no section"):
            handle.array("sizes")

    def test_wrong_kind_for_access_reader(self):
        blob = to_bytes("event-trace", {"steps": np.arange(4)}, {})
        with pytest.raises(StorageFormatError, match=ACCESS_KIND):
            load_columnar_trace(blob)

    def test_corrupt_errors_name_the_file(self, tmp_path, intact):
        path = tmp_path / "flip.ltrace"
        blob = bytearray(intact)
        blob[200] ^= 0xFF
        path.write_bytes(blob)
        with pytest.raises(StorageFormatError) as excinfo:
            ColumnarFile(path)
        assert "flip.ltrace" in str(excinfo.value)

    def test_misaligned_row_sections_rejected(self):
        arrays = {
            "addresses": np.arange(8, dtype=np.int64),
            "sizes": np.ones(7, dtype=np.int64),  # one row short
            "is_write": np.zeros(8, dtype=bool),
            "tainted": np.zeros(8, dtype=bool),
            "gap_before": np.zeros(8, dtype=np.int64),
            "active_epoch": np.ones(8, dtype=bool),
            "epoch_starts": np.zeros(1, dtype=np.int64),
            "extents": np.empty((0, 2), dtype=np.int64),
            "accessed_pages": np.empty(0, dtype=np.int64),
        }
        blob = to_bytes(ACCESS_KIND, arrays, {"name": "bad"})
        with pytest.raises(StorageFormatError, match="misaligned"):
            load_columnar_trace(blob)


def _forge_directory(blob: bytes, edit) -> bytes:
    """``blob`` with its directory JSON rewritten by ``edit`` and the
    prologue's length and crc32 recomputed, so only the entry-level
    checks stand between the forgery and the reader."""
    prologue = struct.Struct("<4sHHQQI4x")
    magic, version, flags, offset, length, _ = prologue.unpack_from(blob)
    directory = json.loads(blob[offset:offset + length])
    edit(directory)
    forged = json.dumps(directory).encode()
    return prologue.pack(
        magic, version, flags, offset, len(forged),
        zlib.crc32(forged) & 0xFFFFFFFF,
    ) + blob[prologue.size:offset] + forged


def _set_field(field, value):
    def edit(directory):
        directory["sections"][0][field] = value
    return edit


def _drop_field(field):
    def edit(directory):
        del directory["sections"][0][field]
    return edit


def _replace_entry(value):
    def edit(directory):
        directory["sections"][0] = value
    return edit


def _sections_as_object(directory):
    directory["sections"] = {"addresses": directory["sections"][0]}


FORGED_DIRECTORIES = {
    "entry-not-an-object": _replace_entry(7),
    "entry-is-a-list": _replace_entry(["addresses", "<i8"]),
    "sections-is-an-object": _sections_as_object,
    **{f"missing-{field}": _drop_field(field)
       for field in ("name", "dtype", "shape", "offset", "nbytes", "crc32")},
    "name-not-a-string": _set_field("name", 3),
    "dtype-not-a-descriptor": _set_field("dtype", 5),
    "dtype-unknown": _set_field("dtype", "<q9"),
    "dtype-object": _set_field("dtype", "|O"),
    "dtype-zero-size": _set_field("dtype", "V"),
    "shape-not-a-list": _set_field("shape", "8"),
    "shape-negative": _set_field("shape", [-8]),
    "shape-float": _set_field("shape", [8.0]),
    "offset-negative": _set_field("offset", -64),
    "offset-string": _set_field("offset", "64"),
    "offset-bool": _set_field("offset", True),
    "nbytes-negative": _set_field("nbytes", -1),
    "nbytes-float": _set_field("nbytes", 64.0),
    "crc32-string": _set_field("crc32", "0"),
    "crc32-null": _set_field("crc32", None),
}


def _checksum_recorder():
    """A recorded run of the ``checksum`` program (it reads a file, so
    its trace carries an input event that indexes the string pool)."""
    from repro.workloads import programs

    cpu = programs.checksum().make_cpu()
    recorder = TraceRecorder(name="checksum")
    cpu.attach(recorder)
    cpu.run(200_000)
    return recorder


def _forge_meta(field, value):
    def forge(recorder):
        def edit(directory):
            directory["meta"][field] = value
        return _forge_directory(recorder.to_bytes(), edit)
    return forge


def _forge_arrays(edit):
    """Re-encode a recording after ``edit(arrays)``: fresh checksums."""
    def forge(recorder):
        arrays = recorder._arrays()
        edit(arrays)
        return to_bytes(EVENT_KIND, arrays, recorder._meta())
    return forge


#: The step layout before step records dropped their register fields:
#: a trace written with it must be refused, not misread.
OLD_STEP_DTYPE = np.dtype([
    ("seq", "<i8"), ("index", "<i8"), ("pc", "<i8"), ("next_pc", "<i8"),
    ("opcode", "<u2"), ("rd", "<i2"), ("rs1", "<i2"), ("rs2", "<i2"),
    ("imm", "<i8"), ("syscall", "<i8"),
])


def _replace_section(name, value):
    def edit(arrays):
        arrays[name] = value
    return edit


def _input_past_data(arrays):
    arrays["inputs"]["data_off"][0] = 10**6


def _negative_input_length(arrays):
    arrays["inputs"]["data_len"][0] = -1


#: Event traces with an intact directory and checksums whose contents a
#: decoder still must not trust, with the problem each must report.
HOSTILE_EVENT_TRACES = {
    "strings-not-a-list": (
        _forge_meta("strings", 5), "string pool is not a list",
    ),
    "strings-empty": (
        _forge_meta("strings", []), "outside the 0-entry string pool",
    ),
    "inputs-plain": (
        _forge_arrays(_replace_section("inputs", np.arange(4))),
        "inputs is not a 1-D table",
    ),
    "outputs-plain": (
        _forge_arrays(_replace_section("outputs", np.arange(4))),
        "outputs is not a 1-D table",
    ),
    "steps-old-layout": (
        _forge_arrays(_replace_section("steps", np.zeros(
            3, dtype=OLD_STEP_DTYPE
        ))),
        "steps is not a 1-D table of the current steps layout",
    ),
    "input-past-data": (
        _forge_arrays(_input_past_data), "outside the .*-byte data section",
    ),
    "input-negative-length": (
        _forge_arrays(_negative_input_length),
        "outside the .*-byte data section",
    ),
}


class TestHostileEventContents:
    """Section dtypes, the pool and input payload bounds are validated
    before the first event, so a
    hostile trace is a :class:`StorageFormatError` naming the file, not
    a bare ``TypeError``/``IndexError`` from deep in the decoder."""

    @pytest.mark.parametrize("forgery", sorted(HOSTILE_EVENT_TRACES))
    def test_hostile_contents_are_a_format_error(self, forgery, tmp_path):
        forge, problem = HOSTILE_EVENT_TRACES[forgery]
        path = tmp_path / f"{forgery}.ltrace"
        path.write_bytes(forge(_checksum_recorder()))
        sink = _EventLog()
        with pytest.raises(StorageFormatError, match=problem) as excinfo:
            replay_events(path, sink)
        assert str(path) in str(excinfo.value)
        assert sink.events == [], "rejected before any event is replayed"

    def test_intact_checksum_trace_still_decodes(self):
        events = list(iter_events(_checksum_recorder().to_bytes()))
        assert any(isinstance(event, InputEvent) for event in events)


class TestForgedDirectory:
    """A checksummed directory is still untrusted input: every ill-typed,
    missing or negative entry field is a :class:`StorageFormatError`,
    never a bare ``KeyError``/``TypeError`` from deep in the reader."""

    @pytest.fixture(scope="class")
    def blob(self):
        return to_bytes(ACCESS_KIND, {"addresses": np.arange(8)}, {})

    def test_unforged_directory_still_opens(self, blob):
        assert ColumnarFile(_forge_directory(blob, lambda d: None)).array(
            "addresses"
        ).tolist() == list(range(8))

    @pytest.mark.parametrize("forgery", sorted(FORGED_DIRECTORIES))
    def test_forged_entry_is_a_format_error(self, blob, forgery):
        forged = _forge_directory(blob, FORGED_DIRECTORIES[forgery])
        with pytest.raises(StorageFormatError, match="<bytes>"):
            ColumnarFile(forged)


class TestConcurrentWriters:
    def test_one_path_many_writers_leaves_one_valid_container(
        self, tmp_path
    ):
        import threading

        path = tmp_path / "shared.ltrace"
        writers = 6
        barrier = threading.Barrier(writers)
        failures = []

        def write(seed):
            arrays = {"addresses": np.full(50_000, seed, dtype=np.int64)}
            barrier.wait()
            try:
                for _ in range(10):
                    write_columnar(path, ACCESS_KIND, arrays, {"seed": seed})
            except Exception as error:  # pragma: no cover - the bug
                failures.append(error)

        threads = [threading.Thread(target=write, args=(seed,))
                   for seed in range(writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["shared.ltrace"]
        with ColumnarFile(path) as handle:
            seed = handle.meta["seed"]
            assert (handle.array("addresses") == seed).all()
