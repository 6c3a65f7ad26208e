"""Recording and replaying observer event streams columnar.

:class:`TraceRecorder` is an :class:`~repro.machine.events.Observer`
that encodes the full observer vocabulary — every
:class:`~repro.machine.events.StepEvent`, :class:`~repro.machine.events.InputEvent`
payload bytes, :class:`~repro.machine.events.OutputEvent`, and the
final halt — into flat numpy columns while the CPU runs.

A step is stored as its dynamic fields only (:data:`STEP_DTYPE`): pc,
instruction word, data address (``-1`` when the opcode has no memory
operand), next pc and syscall number.  Its registers and access size
and direction are pure functions of the word and are derived on decode
(:func:`repro.machine.cpu.step_event`), so no stored field can
contradict the instruction.  Syscall source/sink names go through a
string pool in the container metadata; input payloads share one byte
blob.

A global ``seq`` number stamps every event, so replay reproduces the
exact commit-time interleaving (a syscall's ``InputEvent`` fires
*during* its step's execution, before that step's ``on_step``).
:func:`replay_events` feeds any observer — a fresh
:class:`~repro.dift.DIFTEngine`, a detached
:class:`~repro.pipeline.StreamingPipeline` — and is asserted
bit-identical to the live object path by the conformance suite.

Every section is validated before the first event: exact dtypes, words
that decode, an address present exactly when the opcode needs one and
inside ``[0, 2**32)``, string-pool indices and input payload bounds.  A
trace that fails any check — including one written with an older step
layout — is a :class:`~repro.trace.format.StorageFormatError` naming
the file.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.isa.instructions import LOAD_SIZES, STORE_SIZES, Opcode
from repro.machine.cpu import instruction_word, step_event
from repro.machine.events import (
    InputEvent,
    Observer,
    OutputEvent,
    StepEvent,
)
from repro.trace.format import ColumnarFile, PathLike, to_bytes, write_columnar

EVENT_KIND = "event-trace"

#: One record per committed step.  ``address`` is ``-1`` for opcodes
#: without a memory operand and ``syscall`` is ``-1`` off SYSCALL steps.
STEP_DTYPE = np.dtype([
    ("seq", "<i8"),
    ("index", "<i8"),
    ("pc", "<i8"),
    ("next_pc", "<i8"),
    ("word", "<u4"),
    ("address", "<i8"),
    ("syscall", "<i8"),
])

#: Per opcode byte: whether it decodes, and its access size (0 without a
#: memory operand) and direction.
_DECODES = np.zeros(256, dtype=bool)
_DECODES[[int(opcode) for opcode in Opcode]] = True
_ACCESS_SIZE = np.zeros(256, dtype=np.int64)
_ACCESS_SIZE[list(LOAD_SIZES)] = list(LOAD_SIZES.values())
_ACCESS_SIZE[list(STORE_SIZES)] = list(STORE_SIZES.values())
_IS_STORE = np.zeros(256, dtype=bool)
_IS_STORE[list(STORE_SIZES)] = True

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
        self._inputs: List[Tuple] = []
        self._outputs: List[Tuple] = []
        self._data = bytearray()
        self._pool: List[str] = []
        self._pool_index: Dict[str, int] = {}
        self.halt_step: Optional[int] = None

    # ------------------------------------------------------------- observer

    def on_step(self, event: StepEvent) -> None:
        accesses = event.memory_accesses
        self._steps.append((
            self._next_seq(),
            event.index,
            event.pc,
            event.next_pc,
            instruction_word(event.instruction),
            accesses[0].address if accesses else -1,
            -1 if event.syscall_number is None else event.syscall_number,
        ))

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


#: Record sections and the exact dtype each must carry.
_RECORD_DTYPES = {
    "steps": STEP_DTYPE,
    "inputs": INPUT_DTYPE,
    "outputs": OUTPUT_DTYPE,
}


def _records(handle: ColumnarFile) -> Tuple[np.ndarray, ...]:
    """``(steps, inputs, outputs)``, once each is a 1-D table of its
    exact record dtype and every step record could have been committed:
    its word decodes and its address is present exactly when the
    opcode has a memory operand, inside ``[0, 2**32)``."""
    tables = []
    for name, dtype in _RECORD_DTYPES.items():
        table = handle.array(name)
        if table.dtype != dtype or table.ndim != 1:
            raise handle._fail(
                f"{name} is not a 1-D table of the current {name} layout "
                f"(shape {table.shape}, dtype {table.dtype})"
            )
        tables.append(table)
    steps = tables[0]
    opcodes = steps["word"] >> 24
    unknown = ~_DECODES[opcodes]
    if unknown.any():
        row = int(np.argmax(unknown))
        raise handle._fail(
            f"step {row}: unknown opcode byte {int(opcodes[row]):#04x}"
        )
    address = steps["address"]
    bad = ((address >= 0) != (_ACCESS_SIZE[opcodes] > 0)) | (
        address < -1) | (address > 0xFFFF_FFFF)
    if bad.any():
        row = int(np.argmax(bad))
        raise handle._fail(
            f"step {row}: {Opcode(int(opcodes[row])).name} step with "
            f"address {int(address[row])} (loads and stores need one in "
            "[0, 2**32), other opcodes none)"
        )
    return tuple(tables)


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
    steps, inputs, outputs = _records(handle)
    pool = _checked_pool(handle, inputs, outputs)
    data = handle.array("data").tobytes()
    _check_inputs(handle, inputs, len(data))
    step_rows = steps.tolist()

    def step_at(row: int) -> StepEvent:
        _, index, pc, next_pc, word, address, syscall = step_rows[row]
        return step_event(
            index, pc, word, None if address < 0 else address, next_pc,
            None if syscall < 0 else syscall,
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

    # Three seq-stamped streams, merged back into commit order.
    tables = (steps, inputs, outputs)
    builders = (step_at, input_at, output_at)
    order = np.argsort(
        np.concatenate([table["seq"] for table in tables]), kind="stable"
    )
    lanes = np.repeat(np.arange(3), [len(table) for table in tables])
    rows = np.concatenate([np.arange(len(table)) for table in tables])
    for lane, row in zip(lanes[order].tolist(), rows[order].tolist()):
        yield builders[lane](row)


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

    Vectorised reduction for the sharded check-memory differential: a
    step has at most one access, so its order matches the scalar
    ``event.memory_accesses`` walk exactly; size and direction come
    from the opcode.
    """
    steps = _records(_as_event_file(source))[0]
    accessing = steps[steps["address"] >= 0]
    opcodes = accessing["word"] >> 24
    return (
        accessing["address"], _ACCESS_SIZE[opcodes], _IS_STORE[opcodes]
    )
