"""The one encoding of the commit stream: fixed-width event rows.

A recorded stream is three tables of little-endian rows, a byte blob
and a string pool.  ``.ltrace`` event traces store the tables as numpy
record sections (:mod:`repro.trace.record` derives their dtypes from
the field tables below); an ``events`` frame of the taint service
carries the same bytes base64-encoded.  This module is numpy-free, so
the service and its clients never load numpy.

===========  ==========================================================
``steps``    one row per committed instruction: pc, 32-bit word, data
             address (``-1`` when the opcode has no memory operand),
             next pc and syscall number (``-1`` off SYSCALL steps).
             The registers and access size and direction follow from
             the word (:func:`repro.machine.cpu.step_event`).
``inputs``   one row per taint source; the payload is
             ``data[data_off:data_off + data_len]`` and the kind and
             name index the string pool
``outputs``  one row per taint sink
===========  ==========================================================

Every row starts with a ``seq`` stamp, its event's position in the
commit stream, so the tables merge back into commit order (a syscall's
input fires *during* its step, before that step's row).  The stamps of
a batch must number a run ``first, first + 1, ...`` with each stamp
used once.

A wire batch is a JSON object with the sections as base64 text
(``steps``, ``inputs``, ``outputs``, ``data``; an empty one may be
left out), the ``strings`` pool, and ``halt`` (the final step index)
when the batch ends the stream.  Its event count follows from the
section lengths, which must be whole rows.
"""

from __future__ import annotations

import base64
import struct
from bisect import bisect_left
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.machine.cpu import step_event
from repro.machine.events import InputEvent, OutputEvent, StepEvent

#: ``(name, struct code)`` per field.  The codes read the same to numpy,
#: so ``"<" + code`` is also each field's dtype.
STEP_FIELDS = (
    ("seq", "q"), ("index", "q"), ("pc", "q"), ("next_pc", "q"),
    ("word", "I"), ("address", "q"), ("syscall", "q"),
)
INPUT_FIELDS = (
    ("seq", "q"), ("step", "q"), ("address", "q"), ("data_off", "q"),
    ("data_len", "q"), ("source_kind", "i"), ("source_name", "i"),
    ("tainted_hint", "?"),
)
OUTPUT_FIELDS = (
    ("seq", "q"), ("step", "q"), ("address", "q"), ("length", "q"),
    ("sink_kind", "i"), ("sink_name", "i"),
)

#: Section name -> fields, in ``.ltrace`` section order.
SECTIONS = {
    "steps": STEP_FIELDS, "inputs": INPUT_FIELDS, "outputs": OUTPUT_FIELDS,
}


def _row(fields) -> struct.Struct:
    return struct.Struct("<" + "".join(code for _, code in fields))


STEP_ROW, INPUT_ROW, OUTPUT_ROW = map(_row, SECTIONS.values())
_ROWS = tuple(zip(SECTIONS, (STEP_ROW, INPUT_ROW, OUTPUT_ROW)))
#: Inputs as decoded: the hint as its raw byte, so only 0 and 1 pass.
_INPUT_READ = struct.Struct(INPUT_ROW.format.replace("?", "B"))

#: A decoded event with its observer hook's name; ``halt`` carries the
#: final step index instead of an event object.
KindedEvent = Tuple[str, Union[StepEvent, InputEvent, OutputEvent, int]]


class EventRows:
    """A commit stream held as rows; :class:`repro.trace.TraceRecorder`
    appends them.

    ``len()`` counts its events, the final halt included, and a slice
    is a wire batch: ``rows[a:b]`` holds events ``a`` to ``b - 1``.
    """

    def __init__(self) -> None:
        self._sections = (bytearray(), bytearray(), bytearray())
        self._seqs: Tuple[List[int], ...] = ([], [], [])
        self._data = bytearray()
        self._pool: List[str] = []
        self._pool_index: Dict[str, int] = {}
        self.halt_step: Optional[int] = None

    def __len__(self) -> int:
        return sum(map(len, self._seqs)) + (self.halt_step is not None)

    def __getitem__(self, events: slice) -> Dict[str, object]:
        start, stop, stride = events.indices(len(self))
        if stride != 1:
            raise ValueError("a batch is a run of consecutive events")
        sections: Dict[str, bytes] = {}
        for (name, row), section, seqs in zip(
            _ROWS, self._sections, self._seqs
        ):
            low, high = bisect_left(seqs, start), bisect_left(seqs, stop)
            if low < high:
                sections[name] = section[low * row.size:high * row.size]
        if "inputs" in sections:
            sections["inputs"], sections["data"] = self._rebased_inputs(
                sections["inputs"]
            )
        batch: Dict[str, object] = {
            name: base64.b64encode(raw).decode("ascii")
            for name, raw in sections.items()
        }
        if self._pool:
            batch["strings"] = list(self._pool)
        if self.halt_step is not None and start < len(self) <= stop:
            batch["halt"] = self.halt_step
        return batch

    def _rebased_inputs(self, rows: bytes) -> Tuple[bytes, bytes]:
        """Input rows with payload offsets into their own data slice."""
        fields = [list(row) for row in INPUT_ROW.iter_unpack(rows)]
        base = fields[0][3]
        end = fields[-1][3] + fields[-1][4]
        for row in fields:
            row[3] -= base
        return (b"".join(INPUT_ROW.pack(*row) for row in fields),
                bytes(self._data[base:end]))


_BASE64_FIELDS = (*SECTIONS, "data")
_BATCH_FIELDS = frozenset((*_BASE64_FIELDS, "strings", "halt"))


def _u32(value: int, field: str) -> int:
    if not 0 <= value <= 0xFFFF_FFFF:
        raise ValueError(f"{field} {value} is outside [0, 2**32)")
    return value


def _pooled(pool: List[str], slot: int, field: str) -> str:
    if not 0 <= slot < len(pool):
        raise ValueError(
            f"{field} index {slot} outside the {len(pool)}-entry string pool"
        )
    return pool[slot]


def _step(row: tuple) -> StepEvent:
    _, index, pc, next_pc, word, address, syscall = row
    return step_event(
        index, pc, word, None if address == -1 else address, next_pc,
        None if syscall < 0 else syscall,
    )


def decode_rows(
    steps: bytes, inputs: bytes, outputs: bytes, data: bytes, pool
) -> Iterator[KindedEvent]:
    """The events of whole-row sections, in commit (``seq``) order.

    Field-exact inverse of the recorder.  The ``seq`` stamps, pool
    indices, payload ranges and input/output fields are checked before
    this returns; each step is rebuilt, and so checked, by
    :func:`~repro.machine.cpu.step_event` as the iterator reaches it, so
    a caller that must decode atomically collects it first.  Raises
    :class:`ValueError` on anything the recorder could not have written.
    """
    if not isinstance(pool, list) or not all(
        isinstance(text, str) for text in pool
    ):
        raise ValueError("string pool is not a list of strings")
    tables = (list(STEP_ROW.iter_unpack(steps)),
              list(_INPUT_READ.iter_unpack(inputs)),
              list(OUTPUT_ROW.iter_unpack(outputs)))
    count = sum(map(len, tables))
    first = min((min(map(itemgetter(0), table)) for table in tables
                 if table), default=0)
    # Step rows stay raw until the iterator reaches them; inputs and
    # outputs (a few per syscall) are built here.
    ordered: List[Optional[Tuple[str, object]]] = [None] * count

    def slot(seq: int) -> int:
        position = seq - first
        if position >= count or ordered[position] is not None:
            raise ValueError(
                f"seq {seq} is repeated or leaves a gap in a run of "
                f"{count} events from {first}"
            )
        return position

    for row in tables[0]:
        ordered[slot(row[0])] = ("step", row)
    for seq, step, address, start, length, kind, name, hint in tables[1]:
        if start < 0 or length < 0 or length > len(data) - start:
            raise ValueError(
                f"input payload [{start}, +{length}) lies outside the "
                f"{len(data)}-byte data section"
            )
        if hint > 1:
            raise ValueError(f"tainted_hint byte {hint} is not 0 or 1")
        ordered[slot(seq)] = ("input", InputEvent(
            step, _u32(address, "input address"), data[start:start + length],
            _pooled(pool, kind, "source_kind"),
            _pooled(pool, name, "source_name"), bool(hint),
        ))
    for seq, step, address, length, kind, name in tables[2]:
        ordered[slot(seq)] = ("output", OutputEvent(
            step, _u32(address, "output address"),
            _u32(length, "output length"), _pooled(pool, kind, "sink_kind"),
            _pooled(pool, name, "sink_name"),
        ))
    return ((kind, _step(item) if kind == "step" else item)
            for kind, item in ordered)


def _fields(batch) -> Tuple[List[str], object, Optional[int]]:
    """The base64 section texts (``_ROWS`` order, then ``data``), the
    pool and the halt of a wire batch."""
    if isinstance(batch, EventRows):
        batch = batch[:]
    if not isinstance(batch, dict):
        raise ValueError("an event batch must be an object")
    stray = batch.keys() - _BATCH_FIELDS
    if stray:
        raise ValueError(f"unknown batch fields {sorted(stray)}")
    texts = [batch.get(name, "") for name in _BASE64_FIELDS]
    if not all(isinstance(text, str) for text in texts):
        raise ValueError("sections must be base64 text")
    halt = batch.get("halt")
    if halt is not None and type(halt) is not int:
        raise ValueError(f"halt {halt!r} is not an integer")
    return texts, batch.get("strings", []), halt


def _whole_rows(name: str, row: struct.Struct, size: int) -> int:
    if size % row.size:
        raise ValueError(
            f"{name} holds {size} bytes, not whole {row.size}-byte rows"
        )
    return size // row.size


def batch_events(batch) -> int:
    """How many events a wire batch holds, from its section lengths.

    Counted before anything is decoded: the decoded length of valid
    base64 follows from the text's length and padding, and a text that
    does not decode fails :func:`decode_batch`.
    """
    texts, _, halt = _fields(batch)
    return sum(
        _whole_rows(name, row, len(text) // 4 * 3 - text[-2:].count("="))
        for text, (name, row) in zip(texts, _ROWS)
    ) + (halt is not None)


def decode_batch(batch) -> List[KindedEvent]:
    """Every event of a wire batch (or of a whole :class:`EventRows`),
    halt last; :class:`ValueError` for a batch no recorder wrote."""
    texts, pool, halt = _fields(batch)
    sections = [base64.b64decode(text, validate=True) for text in texts]
    for raw, (name, row) in zip(sections, _ROWS):
        _whole_rows(name, row, len(raw))
    events = list(decode_rows(*sections, pool))
    if halt is not None:
        events.append(("halt", halt))
    return events
