"""Recording and replaying observer event streams.

:class:`TraceRecorder` is an :class:`~repro.machine.events.Observer`
that packs the full observer vocabulary — every
:class:`~repro.machine.events.StepEvent`, :class:`~repro.machine.events.InputEvent`
payload bytes, :class:`~repro.machine.events.OutputEvent`, and the
final halt — into the rows of :mod:`repro.trace.rows` while the CPU
runs.  The same rows are an ``.ltrace`` event trace (:meth:`save` /
:meth:`to_bytes`, the only numpy users of a recording) and, sliced,
the ``events`` batches of the taint service.

:func:`replay_events` feeds any observer — a fresh
:class:`~repro.dift.DIFTEngine`, a detached
:class:`~repro.pipeline.StreamingPipeline` — and is asserted
bit-identical to the live object path by the conformance suite.

Every section is validated before the first event: exact dtypes, words
that decode, an address present exactly when the opcode needs one and
inside ``[0, 2**32)``, ``seq`` stamps, string-pool indices, input
payload bounds and input/output addresses.  A trace that fails any check — including one written
with an older step layout — is a
:class:`~repro.trace.format.StorageFormatError` naming the file.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, Tuple, Union

from repro.machine.cpu import instruction_word
from repro.machine.events import (
    InputEvent,
    Observer,
    OutputEvent,
    StepEvent,
)
from repro.trace.rows import (
    INPUT_ROW,
    OUTPUT_ROW,
    SECTIONS,
    STEP_ROW,
    EventRows,
    KindedEvent,
    decode_rows,
)

if TYPE_CHECKING:
    import numpy as np

    from repro.trace.format import ColumnarFile

EVENT_KIND = "event-trace"


def record_dtypes() -> Dict[str, np.dtype]:
    """Section name -> the numpy record dtype of its rows."""
    import numpy as np

    return {name: np.dtype([(field, "<" + code) for field, code in fields])
            for name, fields in SECTIONS.items()}


class TraceRecorder(EventRows, Observer):
    """Record a CPU's commit stream as event rows.

    Attach to a :class:`~repro.machine.cpu.CPU` (or feed events by hand
    through the observer hooks), run the program, then
    :meth:`save` / :meth:`to_bytes`, or slice it into wire batches.
    """

    def __init__(self, name: str = "recorded") -> None:
        super().__init__()
        self.name = name
        self._seq = 0

    # ------------------------------------------------------------- observer

    def on_step(self, event: StepEvent) -> None:
        accesses = event.memory_accesses
        self._sections[0].extend(STEP_ROW.pack(
            self._next_seq(0),
            event.index,
            event.pc,
            event.next_pc,
            instruction_word(event.instruction),
            accesses[0].address if accesses else -1,
            -1 if event.syscall_number is None else event.syscall_number,
        ))

    def on_input(self, event: InputEvent) -> None:
        offset = len(self._data)
        self._data += event.data
        self._sections[1].extend(INPUT_ROW.pack(
            self._next_seq(1),
            event.step_index,
            event.address,
            offset,
            len(event.data),
            self._intern(event.source_kind),
            self._intern(event.source_name),
            event.tainted_hint,
        ))

    def on_output(self, event: OutputEvent) -> None:
        self._sections[2].extend(OUTPUT_ROW.pack(
            self._next_seq(2),
            event.step_index,
            event.address,
            event.length,
            self._intern(event.sink_kind),
            self._intern(event.sink_name),
        ))

    def on_halt(self, step_index: int) -> None:
        self.halt_step = step_index

    # -------------------------------------------------------------- helpers

    def _next_seq(self, section: int) -> int:
        seq = self._seq
        self._seq += 1
        self._seqs[section].append(seq)
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
        return len(self._seqs[0])

    # ------------------------------------------------------------ container

    def _arrays(self) -> Dict[str, np.ndarray]:
        import numpy as np

        arrays = {name: np.frombuffer(bytearray(section), dtype=dtype)
                  for (name, dtype), section
                  in zip(record_dtypes().items(), self._sections)}
        arrays["data"] = np.frombuffer(bytearray(self._data), dtype=np.uint8)
        return arrays

    def _meta(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "strings": list(self._pool),
            "halt_step": self.halt_step,
        }

    def save(self, path) -> None:
        """Write the recorded stream as an ``.ltrace`` file."""
        from repro.trace.format import write_columnar

        write_columnar(path, EVENT_KIND, self._arrays(), self._meta())

    def to_bytes(self) -> bytes:
        """The recorded stream as in-memory ``.ltrace`` bytes."""
        from repro.trace.format import to_bytes

        return to_bytes(EVENT_KIND, self._arrays(), self._meta())


# ---------------------------------------------------------------- decoding


def _as_event_file(source) -> ColumnarFile:
    from repro.trace.format import ColumnarFile

    handle = source if isinstance(source, ColumnarFile) else ColumnarFile(source)
    handle.require_kind(EVENT_KIND)
    return handle


def _records(handle) -> Tuple[np.ndarray, ...]:
    """``(steps, inputs, outputs)``, once each is a 1-D table of its
    exact record dtype and every step record could have been committed:
    its word decodes and its address is present exactly when the
    opcode has a memory operand, inside ``[0, 2**32)``."""
    import numpy as np

    from repro.isa.instructions import LOAD_SIZES, STORE_SIZES, Opcode

    tables = []
    for name, dtype in record_dtypes().items():
        table = handle.array(name)
        if table.dtype != dtype or table.ndim != 1:
            raise handle._fail(
                f"{name} is not a 1-D table of the current {name} layout "
                f"(shape {table.shape}, dtype {table.dtype})"
            )
        tables.append(table)
    decodes = np.zeros(256, dtype=bool)
    decodes[[int(opcode) for opcode in Opcode]] = True
    has_operand = np.zeros(256, dtype=bool)
    has_operand[[*LOAD_SIZES, *STORE_SIZES]] = True
    steps = tables[0]
    opcodes = steps["word"] >> 24
    unknown = ~decodes[opcodes]
    if unknown.any():
        row = int(np.argmax(unknown))
        raise handle._fail(
            f"step {row}: unknown opcode byte {int(opcodes[row]):#04x}"
        )
    address = steps["address"]
    bad = ((address >= 0) != has_operand[opcodes]) | (
        address < -1) | (address > 0xFFFF_FFFF)
    if bad.any():
        row = int(np.argmax(bad))
        raise handle._fail(
            f"step {row}: {Opcode(int(opcodes[row])).name} step with "
            f"address {int(address[row])} (loads and stores need one in "
            "[0, 2**32), other opcodes none)"
        )
    return tuple(tables)


def _decoded(handle) -> Iterator[KindedEvent]:
    """The trace's events, every section checked before the first."""
    steps, inputs, outputs = _records(handle)
    try:
        yield from decode_rows(
            steps.tobytes(), inputs.tobytes(), outputs.tobytes(),
            handle.array("data").tobytes(), handle.meta.get("strings", []),
        )
    except ValueError as error:
        raise handle._fail(str(error)) from error


def iter_events(
    source,
) -> Iterator[Union[StepEvent, InputEvent, OutputEvent]]:
    """Decode an event trace back to observer events, in commit order.

    Field-exact inverse of :class:`TraceRecorder`: every yielded event
    compares equal to the one the live CPU emitted.
    """
    for _, event in _decoded(_as_event_file(source)):
        yield event


def replay_events(source, *observers: Observer) -> int:
    """Replay a recorded event trace through one or more observers.

    ``source`` is an ``.ltrace`` path, its bytes or an open
    :class:`~repro.trace.format.ColumnarFile`.  Dispatches ``on_step`` /
    ``on_input`` / ``on_output`` in the recorded commit order and
    finishes with ``on_halt`` when the original run halted.  Returns
    the number of steps replayed.
    """
    handle = _as_event_file(source)
    steps = 0
    for kind, event in _decoded(handle):
        steps += kind == "step"
        for observer in observers:
            getattr(observer, "on_" + kind)(event)
    halt_step = handle.meta.get("halt_step")
    if halt_step is not None:
        for observer in observers:
            observer.on_halt(int(halt_step))
    return steps

