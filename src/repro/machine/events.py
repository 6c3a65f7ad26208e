"""Observer-protocol event types emitted by the CPU.

These events are the reproduction's equivalent of the instrumentation
callbacks a Pintool receives from Intel Pin: one :class:`StepEvent` per
committed instruction, carrying the registers and memory ranges it read
and wrote, plus :class:`InputEvent`/:class:`OutputEvent` for syscall I/O
(the points where taint enters and leaves the system).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

from repro.isa.instructions import Instruction


class MemoryAccess(NamedTuple):
    """One contiguous data-memory access performed by an instruction."""

    address: int
    size: int
    is_write: bool


class StepEvent(NamedTuple):
    """A committed instruction with its architectural effects.

    An immutable, hashable named tuple: the CPU builds one positionally
    for every instruction it commits outside a quiet stretch, so an
    event costs little more than a tuple.  The static half (instruction,
    registers, access sizes and directions) follows from the
    instruction word alone; :func:`repro.machine.cpu.step_event`
    rebuilds an event from the word and the step's dynamic fields.

    Attributes:
        index: zero-based dynamic instruction count.
        pc: address of the instruction.
        instruction: the decoded instruction.
        regs_read: architectural register numbers read.
        regs_written: architectural register numbers written.
        reads: data-memory reads performed.
        writes: data-memory writes performed.
        next_pc: pc after this instruction (reflects taken branches).
        syscall_number: populated for SYSCALL steps.
    """

    index: int
    pc: int
    instruction: Instruction
    regs_read: Tuple[int, ...] = ()
    regs_written: Tuple[int, ...] = ()
    reads: Tuple[MemoryAccess, ...] = ()
    writes: Tuple[MemoryAccess, ...] = ()
    next_pc: int = 0
    syscall_number: Optional[int] = None

    @property
    def memory_accesses(self) -> Tuple[MemoryAccess, ...]:
        """All data-memory accesses (reads then writes)."""
        return self.reads + self.writes


@dataclass(frozen=True)
class InputEvent:
    """Bytes delivered into program memory by a syscall (read/recv).

    DIFT engines use the ``source`` descriptor to decide whether the bytes
    are tainted; see :class:`repro.dift.policy.TaintPolicy`.
    """

    step_index: int
    address: int
    data: bytes
    source_kind: str  # "file" | "socket"
    source_name: str
    tainted_hint: bool = True


@dataclass(frozen=True)
class OutputEvent:
    """Bytes leaving program memory through a syscall (write/send)."""

    step_index: int
    address: int
    length: int
    sink_kind: str  # "file" | "socket" | "console"
    sink_name: str


class Observer:
    """Base class for execution observers.

    All hooks default to no-ops so subclasses override only what they
    need.  Observers are invoked synchronously at commit time, in the
    order they were attached.

    An observer sees a :class:`StepEvent` for every committed
    instruction unless it opts into quiet stretches by returning a
    snapshot from :meth:`quiet_snapshot`.  The default returns ``None``,
    so DIFT engines, recorders and collectors see every step.  The CPU
    takes quiet stretches only while a single observer is attached: a
    second observer always forces the per-step path.
    """

    def on_step(self, event: StepEvent) -> None:
        """Called after every committed instruction outside quiet stretches."""

    def on_input(self, event: InputEvent) -> None:
        """Called when a syscall writes external data into memory."""

    def on_output(self, event: OutputEvent) -> None:
        """Called when a syscall reads program memory out to a sink."""

    def on_halt(self, step_index: int) -> None:
        """Called once when the program halts."""

    def quiet_snapshot(self):
        """Which instructions this observer may skip, or ``None`` for none.

        A snapshot is ``(register_mask, memory_probe)``: the CPU may
        commit instructions without events as long as none reads or
        writes a register in ``register_mask`` (bit r = register r) and,
        for a memory operand, ``memory_probe(address, size)`` is false
        (``None`` means never true).  The observer must guarantee that
        :meth:`on_step` would do nothing for such an instruction beyond
        what :meth:`on_quiet` accounts, and that the snapshot stays
        valid until its next hook call.
        """
        return None

    def quiet_registers(self) -> int:
        """The ``register_mask`` a snapshot taken now would carry.

        The CPU reads it before :meth:`quiet_snapshot`: when the next
        instruction uses one of these registers, a stretch would commit
        nothing, so the CPU steps without asking for a snapshot.  The
        default, 0, never skips the request.
        """
        return 0

    def on_quiet(self, count: int) -> None:
        """Called once after ``count`` instructions committed quietly."""
