"""Recording and replaying observer event streams columnar.

:class:`TraceRecorder` is an :class:`~repro.machine.events.Observer`
that encodes the full observer vocabulary — every
:class:`~repro.machine.events.StepEvent` (with its ragged register and
memory-access lists), :class:`~repro.machine.events.InputEvent` payload
bytes, :class:`~repro.machine.events.OutputEvent`, and the final halt —
into flat numpy columns while the CPU runs.  Ragged per-step lists use
CSR encoding (a flat value array plus an ``offsets`` array of
``n_steps + 1`` entries); syscall source/sink names go through a string
pool in the container metadata.

A global ``seq`` number stamps every event, so replay reproduces the
exact commit-time interleaving (a syscall's ``InputEvent`` fires
*during* its step's execution, before that step's ``on_step``).
:func:`replay_events` feeds any observer — a fresh
:class:`~repro.dift.DIFTEngine`, a detached
:class:`~repro.pipeline.StreamingPipeline` — and is asserted
bit-identical to the live object path by the conformance suite.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.isa.instructions import (
    REGISTER_COUNT,
    Instruction,
    Opcode,
    required_registers,
)
from repro.machine.events import (
    InputEvent,
    MemoryAccess,
    Observer,
    OutputEvent,
    StepEvent,
)
from repro.trace.format import ColumnarFile, PathLike, to_bytes, write_columnar

EVENT_KIND = "event-trace"

_OPCODES = np.array([int(opcode) for opcode in Opcode])

#: Per register field, the opcodes whose step records must carry it.
_OPCODES_REQUIRING = {
    name: np.array([
        int(opcode) for opcode in Opcode
        if name in required_registers(opcode)
    ])
    for name in ("rd", "rs1", "rs2")
}

#: Fixed per-step fields as one structured record (v1 layout).  ``-1``
#: encodes an absent register field / syscall number.
STEP_DTYPE = np.dtype([
    ("seq", "<i8"),
    ("index", "<i8"),
    ("pc", "<i8"),
    ("next_pc", "<i8"),
    ("opcode", "<u2"),
    ("rd", "<i2"),
    ("rs1", "<i2"),
    ("rs2", "<i2"),
    ("imm", "<i8"),
    ("syscall", "<i8"),
])

#: Fixed per-input fields; ``data`` lives in the shared byte blob at
#: ``[data_off, data_off + data_len)``; kinds/names index the pool.
INPUT_DTYPE = np.dtype([
    ("seq", "<i8"),
    ("step", "<i8"),
    ("address", "<i8"),
    ("data_off", "<i8"),
    ("data_len", "<i8"),
    ("source_kind", "<i4"),
    ("source_name", "<i4"),
    ("tainted_hint", "?"),
])

OUTPUT_DTYPE = np.dtype([
    ("seq", "<i8"),
    ("step", "<i8"),
    ("address", "<i8"),
    ("length", "<i8"),
    ("sink_kind", "<i4"),
    ("sink_name", "<i4"),
])


class TraceRecorder(Observer):
    """Record a CPU's commit stream into columnar event arrays.

    Attach to a :class:`~repro.machine.cpu.CPU` (or feed events by hand
    through the observer hooks), run the program, then
    :meth:`save` / :meth:`to_bytes`.
    """

    def __init__(self, name: str = "recorded") -> None:
        self.name = name
        self._seq = 0
        self._steps: List[Tuple] = []
        self._regs_read: List[int] = []
        self._regs_read_offsets: List[int] = [0]
        self._regs_written: List[int] = []
        self._regs_written_offsets: List[int] = [0]
        self._accesses: List[Tuple[int, int]] = []   # (address, size)
        self._reads_offsets: List[int] = [0]
        self._writes_offsets: List[int] = [0]
        self._inputs: List[Tuple] = []
        self._outputs: List[Tuple] = []
        self._data = bytearray()
        self._pool: List[str] = []
        self._pool_index: Dict[str, int] = {}
        self.halt_step: Optional[int] = None

    # ------------------------------------------------------------- observer

    def on_step(self, event: StepEvent) -> None:
        instruction = event.instruction
        self._steps.append((
            self._next_seq(),
            event.index,
            event.pc,
            event.next_pc,
            int(instruction.opcode),
            -1 if instruction.rd is None else instruction.rd,
            -1 if instruction.rs1 is None else instruction.rs1,
            -1 if instruction.rs2 is None else instruction.rs2,
            instruction.imm,
            -1 if event.syscall_number is None else event.syscall_number,
        ))
        self._regs_read.extend(event.regs_read)
        self._regs_read_offsets.append(len(self._regs_read))
        self._regs_written.extend(event.regs_written)
        self._regs_written_offsets.append(len(self._regs_written))
        for access in event.reads:
            self._accesses.append((access.address, access.size))
        self._reads_offsets.append(len(self._accesses))
        for access in event.writes:
            self._accesses.append((access.address, access.size))
        self._writes_offsets.append(len(self._accesses))

    def on_input(self, event: InputEvent) -> None:
        offset = len(self._data)
        self._data.extend(event.data)
        self._inputs.append((
            self._next_seq(),
            event.step_index,
            event.address,
            offset,
            len(event.data),
            self._intern(event.source_kind),
            self._intern(event.source_name),
            event.tainted_hint,
        ))

    def on_output(self, event: OutputEvent) -> None:
        self._outputs.append((
            self._next_seq(),
            event.step_index,
            event.address,
            event.length,
            self._intern(event.sink_kind),
            self._intern(event.sink_name),
        ))

    def on_halt(self, step_index: int) -> None:
        self.halt_step = step_index

    # -------------------------------------------------------------- helpers

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def _intern(self, text: str) -> int:
        slot = self._pool_index.get(text)
        if slot is None:
            slot = len(self._pool)
            self._pool.append(text)
            self._pool_index[text] = slot
        return slot

    @property
    def step_count(self) -> int:
        """Committed instructions recorded so far."""
        return len(self._steps)

    # ------------------------------------------------------------ container

    def _arrays(self) -> Dict[str, np.ndarray]:
        return {
            "steps": np.array(self._steps, dtype=STEP_DTYPE),
            "regs_read": np.asarray(self._regs_read, dtype=np.uint8),
            "regs_read_offsets": np.asarray(
                self._regs_read_offsets, dtype=np.int64
            ),
            "regs_written": np.asarray(self._regs_written, dtype=np.uint8),
            "regs_written_offsets": np.asarray(
                self._regs_written_offsets, dtype=np.int64
            ),
            "accesses": np.asarray(
                self._accesses, dtype=np.int64
            ).reshape(-1, 2),
            "reads_offsets": np.asarray(self._reads_offsets, dtype=np.int64),
            "writes_offsets": np.asarray(self._writes_offsets, dtype=np.int64),
            "inputs": np.array(self._inputs, dtype=INPUT_DTYPE),
            "outputs": np.array(self._outputs, dtype=OUTPUT_DTYPE),
            "data": np.frombuffer(bytes(self._data), dtype=np.uint8),
        }

    def _meta(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "strings": list(self._pool),
            "halt_step": self.halt_step,
        }

    def save(self, path: PathLike) -> None:
        """Write the recorded stream as an ``.ltrace`` file."""
        write_columnar(path, EVENT_KIND, self._arrays(), self._meta())

    def to_bytes(self) -> bytes:
        """The recorded stream as in-memory ``.ltrace`` bytes."""
        return to_bytes(EVENT_KIND, self._arrays(), self._meta())


# ---------------------------------------------------------------- decoding


def _as_event_file(source: Union[PathLike, bytes, ColumnarFile]) -> ColumnarFile:
    handle = source if isinstance(source, ColumnarFile) else ColumnarFile(source)
    handle.require_kind(EVENT_KIND)
    return handle


#: Each CSR offset section and the data section its entries index.
_OFFSET_SECTIONS = {
    "regs_read_offsets": "regs_read",
    "regs_written_offsets": "regs_written",
    "reads_offsets": "accesses",
    "writes_offsets": "accesses",
}


def _checked_pool(handle: ColumnarFile, inputs, outputs) -> List[str]:
    """The string pool, once it is a list of ``str`` that every
    source/sink index of ``inputs``/``outputs`` falls inside."""
    pool = handle.meta.get("strings", [])
    if not isinstance(pool, list) or not all(
        isinstance(text, str) for text in pool
    ):
        raise handle._fail("string pool is not a list of strings")
    for table, prefix in ((inputs, "source"), (outputs, "sink")):
        for name in (f"{prefix}_kind", f"{prefix}_name"):
            ids = table[name]
            if ids.size and not 0 <= ids.min() <= ids.max() < len(pool):
                raise handle._fail(
                    f"{name} index outside the {len(pool)}-entry string pool"
                )
    return pool


def _check_offsets(handle: ColumnarFile, steps: int) -> None:
    """Every CSR offset section must hold ``steps + 1`` non-decreasing
    integers inside its data section."""
    for name, data in _OFFSET_SECTIONS.items():
        offsets = handle.array(name)
        rows = len(handle.array(data))
        if (offsets.dtype.kind not in "iu" or offsets.shape != (steps + 1,)
                or (offsets[1:] < offsets[:-1]).any()
                or offsets[0] < 0 or offsets[-1] > rows):
            raise handle._fail(
                f"{name} is not {steps + 1} non-decreasing offsets into "
                f"{data} ({rows} rows)"
            )


def _check_accesses(handle: ColumnarFile) -> None:
    """The ``accesses`` section must be an (N, 2) integer table."""
    accesses = handle.array("accesses")
    if accesses.dtype.kind not in "iu" or accesses.ndim != 2 \
            or accesses.shape[1] != 2:
        raise handle._fail(
            f"accesses is not an (N, 2) integer table (shape "
            f"{accesses.shape}, dtype {accesses.dtype})"
        )


def _check_inputs(handle: ColumnarFile, inputs, data_size: int) -> None:
    """Every input payload must lie inside the ``data`` section."""
    if not inputs.size:
        return
    start = inputs["data_off"]
    length = inputs["data_len"]
    bad = (start < 0) | (length < 0) | (length > data_size - start)
    if bad.any():
        row = int(np.argmax(bad))
        raise handle._fail(
            f"input {row} payload [{int(start[row])}, +{int(length[row])}) "
            f"lies outside the {data_size}-byte data section"
        )


def iter_events(
    source: Union[PathLike, bytes, ColumnarFile]
) -> Iterator[Union[StepEvent, InputEvent, OutputEvent]]:
    """Decode an event trace back to observer events, in commit order.

    Field-exact inverse of :class:`TraceRecorder`: every yielded event
    compares equal to the one the live CPU emitted.
    """
    handle = _as_event_file(source)
    steps = handle.array("steps")
    inputs = handle.array("inputs")
    outputs = handle.array("outputs")
    pool = _checked_pool(handle, inputs, outputs)
    _check_accesses(handle)
    _check_offsets(handle, len(steps))
    data = handle.array("data").tobytes()
    _check_inputs(handle, inputs, len(data))
    regs_read = handle.array("regs_read")
    regs_written = handle.array("regs_written")
    # Register ids index fixed-size register files downstream, opcodes
    # must decode, and a register field the opcode requires must be
    # present; any of these broken is a corrupt container, not a replay
    # fault.
    for ids in (regs_read, regs_written, *(
        steps[operand] for operand in ("rd", "rs1", "rs2")
    )):
        if ids.size and int(ids.max()) >= REGISTER_COUNT:
            raise handle._fail(
                f"register id {int(ids.max())} out of range"
            )
    if not np.isin(steps["opcode"], _OPCODES).all():
        raise handle._fail("unknown opcode in step records")
    for name, opcodes in _OPCODES_REQUIRING.items():
        if (steps[name][np.isin(steps["opcode"], opcodes)] < 0).any():
            raise handle._fail(f"step record missing required {name}")
    regs_read = regs_read.tolist()
    rr_off = handle.array("regs_read_offsets").tolist()
    regs_written = regs_written.tolist()
    rw_off = handle.array("regs_written_offsets").tolist()
    accesses = handle.array("accesses").tolist()
    reads_off = handle.array("reads_offsets").tolist()
    writes_off = handle.array("writes_offsets").tolist()

    def step_at(row: int) -> StepEvent:
        record = steps[row]
        return StepEvent(
            index=int(record["index"]),
            pc=int(record["pc"]),
            instruction=Instruction(
                opcode=Opcode(int(record["opcode"])),
                rd=None if record["rd"] < 0 else int(record["rd"]),
                rs1=None if record["rs1"] < 0 else int(record["rs1"]),
                rs2=None if record["rs2"] < 0 else int(record["rs2"]),
                imm=int(record["imm"]),
            ),
            regs_read=tuple(
                int(r) for r in regs_read[rr_off[row]:rr_off[row + 1]]
            ),
            regs_written=tuple(
                int(r) for r in regs_written[rw_off[row]:rw_off[row + 1]]
            ),
            # Step ``row``'s rows in ``accesses`` are its reads then its
            # writes: reads span [writes_off[row], reads_off[row+1]),
            # writes span [reads_off[row+1], writes_off[row+1]).
            reads=tuple(
                MemoryAccess(int(a), int(s), is_write=False)
                for a, s in accesses[writes_off[row]:reads_off[row + 1]]
            ),
            writes=tuple(
                MemoryAccess(int(a), int(s), is_write=True)
                for a, s in accesses[reads_off[row + 1]:writes_off[row + 1]]
            ),
            next_pc=int(record["next_pc"]),
            syscall_number=(
                None if record["syscall"] < 0 else int(record["syscall"])
            ),
        )

    def input_at(row: int) -> InputEvent:
        record = inputs[row]
        start = int(record["data_off"])
        return InputEvent(
            step_index=int(record["step"]),
            address=int(record["address"]),
            data=data[start:start + int(record["data_len"])],
            source_kind=pool[int(record["source_kind"])],
            source_name=pool[int(record["source_name"])],
            tainted_hint=bool(record["tainted_hint"]),
        )

    def output_at(row: int) -> OutputEvent:
        record = outputs[row]
        return OutputEvent(
            step_index=int(record["step"]),
            address=int(record["address"]),
            length=int(record["length"]),
            sink_kind=pool[int(record["sink_kind"])],
            sink_name=pool[int(record["sink_name"])],
        )

    # Three seq-sorted streams; merge by walking each stream's cursor.
    cursors = [0, 0, 0]
    tables = (steps, inputs, outputs)
    builders = (step_at, input_at, output_at)
    while True:
        best = -1
        best_seq = None
        for lane, table in enumerate(tables):
            row = cursors[lane]
            if row < len(table):
                seq = int(table[row]["seq"])
                if best_seq is None or seq < best_seq:
                    best_seq = seq
                    best = lane
        if best < 0:
            return
        yield builders[best](cursors[best])
        cursors[best] += 1


def replay_events(
    source: Union[PathLike, bytes, ColumnarFile],
    *observers: Observer,
) -> int:
    """Replay a recorded event trace through one or more observers.

    Dispatches ``on_step`` / ``on_input`` / ``on_output`` in the
    recorded commit order and finishes with ``on_halt`` when the
    original run halted.  Returns the number of steps replayed.
    """
    handle = _as_event_file(source)
    steps = 0
    for event in iter_events(handle):
        if isinstance(event, StepEvent):
            steps += 1
            for observer in observers:
                observer.on_step(event)
        elif isinstance(event, InputEvent):
            for observer in observers:
                observer.on_input(event)
        else:
            for observer in observers:
                observer.on_output(event)
    halt_step = handle.meta.get("halt_step")
    if halt_step is not None:
        for observer in observers:
            observer.on_halt(int(halt_step))
    return steps


def access_window(
    source: Union[PathLike, bytes, ColumnarFile]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flat ``(addresses, sizes, is_write)`` window of an event trace.

    Zero-copy reduction for the sharded check-memory differential: the
    per-step reads-then-writes order matches the scalar
    ``event.memory_accesses`` walk exactly.
    """
    handle = _as_event_file(source)
    accesses = handle.array("accesses")
    writes_off = handle.array("writes_offsets")
    reads_off = handle.array("reads_offsets")
    is_write = np.zeros(len(accesses), dtype=bool)
    # Rows [reads_off[i+1], writes_off[i+1]) are step i's writes.
    starts = reads_off[1:]
    stops = writes_off[1:]
    for start, stop in zip(starts.tolist(), stops.tolist()):
        if stop > start:
            is_write[start:stop] = True
    return accesses[:, 0], accesses[:, 1], is_write
