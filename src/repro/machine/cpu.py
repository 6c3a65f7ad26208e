"""Fetch/decode/execute CPU for the toy ISA.

The static half of a committed step — the instruction, its
``regs_read`` / ``regs_written``, and its memory operand's kind and size
(what the paper's extraction logic derives at decode, Figure 7) — is a
pure function of the 32-bit instruction word, computed in one place:
:func:`decode_word`.  :func:`step_event` rebuilds a whole
:class:`~repro.machine.events.StepEvent` from a step's dynamic fields
(pc, word, address, next pc, syscall number); the row decoder of
:mod:`repro.trace.rows`, behind both the service's event batches and
``.ltrace`` event traces, builds its events through it.

Each :class:`~repro.isa.program.Program` is decoded once into a per-pc
table (:func:`decode_program`).  An entry holds a handler that executes
the instruction and returns the next pc, plus the word's static facts
with their register bitmasks.  Instruction semantics live only in those
handlers.

:meth:`CPU.step` commits one instruction and notifies attached
observers with a :class:`~repro.machine.events.StepEvent` describing the
architectural effects (registers and memory touched).  This commit-time
event stream is what the LATCH hardware module taps in the paper
(Figure 7: extraction logic operates on committed instructions), and
what a Pin-based DIFT tool observes in the software systems.

:meth:`CPU.run` is LATCH's hardware mode.  While the machine is
unobserved, or its only observer offers a *quiet snapshot*
(:meth:`~repro.machine.events.Observer.quiet_snapshot`) that proves the
next instructions taint-free, it runs them straight off the table as a
*quiet stretch*: no event, no observer call, one bulk
:meth:`~repro.machine.events.Observer.on_quiet` at the end.  Events are
emitted only for instructions, and to observers, that need every step.

The three S-LATCH instructions (``strf``, ``stnt``, ``ltnt``) are executed
by delegating to an attached ``latch_port`` — an object implementing the
small :class:`LatchPort` protocol — so that the ISA stays independent of
any particular LATCH implementation.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.encoding import EncodingError, decode, encode
from repro.isa.instructions import (
    JUMP_OPCODES,
    LOAD_SIZES,
    STORE_SIZES,
    Format,
    Instruction,
    Opcode,
)
from repro.isa.program import Program
from repro.machine.devices import DeviceTable
from repro.machine.events import (
    InputEvent,
    MemoryAccess,
    Observer,
    OutputEvent,
    StepEvent,
)
from repro.machine.memory import PagedMemory
from repro.machine.syscalls import SyscallHandler

_MASK32 = 0xFFFFFFFF


class ExecutionError(Exception):
    """Raised on architectural errors (bad pc, division by zero...)."""


def _signed(value: int) -> int:
    """Interpret a 32-bit pattern as a signed integer."""
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


class LatchPort:
    """Protocol for the CPU's LATCH attachment point.

    A LATCH integration (e.g. :class:`repro.slatch.controller.SLatchSystem`)
    implements these hooks; the default implementation makes the three
    special instructions harmless no-ops so programs run on machines
    without LATCH hardware.
    """

    def set_trf(self, mask: int) -> None:
        """``strf``: load the taint register file from bitmask ``mask``."""

    def set_taint(self, address: int, value: int) -> None:
        """``stnt``: set the taint status of ``address`` to ``value``."""

    def last_exception_address(self) -> int:
        """``ltnt``: address that caused the most recent LATCH exception."""
        return 0


# ------------------------------------------------------------------ decode

#: ``handler(cpu, registers) -> next_pc``: one instruction's semantics.
Handler = Callable[["CPU", List[int]], int]

#: Memory-operand kinds of a decoded instruction.
LOAD = "load"
STORE = "store"


#: Distinct words (and instructions) whose decode is kept.  A client
#: of the service may send any number of distinct words, so the caches
#: are bounded; every in-repo program uses far fewer.
_DECODE_CACHE_SIZE = 4096


# ``typed``: ``True`` and ``1.0`` must not hit the entry for word 1.
@functools.lru_cache(maxsize=_DECODE_CACHE_SIZE, typed=True)
def decode_word(word: int) -> Tuple[
    Instruction, Tuple[int, ...], Tuple[int, ...], Optional[str], int
]:
    """``(instruction, regs_read, regs_written, memory, size)`` of ``word``.

    The one owner of a step's static half.  ``regs_read`` /
    ``regs_written`` are the registers a committed :class:`StepEvent`
    reports (SYSCALL's are the fixed ``(3, 4, 5, 6)`` / ``(3,)``);
    ``memory`` is ``LOAD``, ``STORE`` or ``None`` and ``size`` the
    access size in bytes (0 without a memory operand).

    Raises :class:`~repro.isa.encoding.EncodingError` unless ``word`` is
    an int in ``[0, 2**32)`` whose opcode byte decodes.
    """
    if type(word) is not int or not 0 <= word <= _MASK32:
        raise EncodingError(f"instruction word {word!r} is not a u32")
    instruction = decode(word)
    op = instruction.opcode
    memory = LOAD if op in LOAD_SIZES else STORE if op in STORE_SIZES else None
    return (instruction, *register_use(instruction), memory,
            instruction.memory_size)


@functools.lru_cache(maxsize=_DECODE_CACHE_SIZE)
def instruction_word(instruction: Instruction) -> int:
    """The 32-bit word of ``instruction`` (inverse of :func:`decode_word`)."""
    return encode(instruction)


def step_event(
    index: int,
    pc: int,
    word: int,
    address: Optional[int],
    next_pc: int,
    syscall_number: Optional[int],
) -> StepEvent:
    """A committed step rebuilt from its dynamic fields.

    ``address`` must be given exactly when the word's opcode accesses
    memory, as an int in ``[0, 2**32)``; the access size and direction
    come from the opcode alone.  Raises :class:`ValueError` (an
    :class:`~repro.isa.encoding.EncodingError` for a bad word) on a
    record the CPU could not have committed.
    """
    instruction, regs_read, regs_written, memory, size = decode_word(word)
    reads: tuple = ()
    writes: tuple = ()
    if memory is None:
        if address is not None:
            raise ValueError(
                f"{instruction.opcode.name} step carries an address"
            )
    elif type(address) is not int or not 0 <= address <= _MASK32:
        raise ValueError(
            f"{instruction.opcode.name} step needs a u32 address, "
            f"got {address!r}"
        )
    elif memory == STORE:
        writes = (MemoryAccess(address, size, True),)
    else:
        reads = (MemoryAccess(address, size, False),)
    return StepEvent(index, pc, instruction, regs_read, regs_written,
                     reads, writes, next_pc, syscall_number)


class DecodedInstruction:
    """One text slot, decoded once: handler plus static operand facts.

    Attributes:
        instruction: the instruction itself.
        execute: ``execute(cpu, registers) -> next_pc`` runs it.
        regs_read / regs_written / memory / size: its word's static
            facts (see :func:`decode_word`).
        read_mask / write_mask: the same registers as bitmasks.
    """

    __slots__ = (
        "instruction", "execute", "regs_read", "regs_written",
        "read_mask", "write_mask", "memory", "size",
    )

    def __init__(self, instruction: Instruction, pc: int) -> None:
        self.instruction = instruction
        self.execute: Handler = _SEMANTICS[instruction.opcode](instruction, pc)
        _, self.regs_read, self.regs_written, self.memory, self.size = (
            decode_word(instruction_word(instruction))
        )
        self.read_mask = _bits(self.regs_read)
        self.write_mask = _bits(self.regs_written)


class DecodedProgram:
    """A program's per-pc decode table.

    ``entries`` maps every text address to its
    :class:`DecodedInstruction`.  ``quiet`` is the same table cut down
    for quiet stretches: only instructions that may run without an
    event (all but SYSCALL, HALT and the S-LATCH opcodes), each as a
    flat ``(execute, touch_mask, size, rs1, imm)`` tuple, where
    ``touch_mask = read_mask | write_mask`` and ``size`` is 0 without
    a memory operand.
    """

    def __init__(self, program: Program) -> None:
        self.entries: Dict[int, DecodedInstruction] = {}
        self.quiet: Dict[int, tuple] = {}
        for index, instruction in enumerate(program.instructions):
            pc = program.text_base + 4 * index
            entry = DecodedInstruction(instruction, pc)
            self.entries[pc] = entry
            if instruction.opcode not in _PER_STEP_OPCODES:
                self.quiet[pc] = (
                    entry.execute, entry.read_mask | entry.write_mask,
                    entry.size, instruction.rs1, instruction.imm,
                )


def decode_program(program: Program) -> DecodedProgram:
    """The decode table of ``program``, built on first use.

    Program images are immutable once assembled (instructions are never
    fetched from data memory), so the table is cached on the program and
    every CPU running it shares one decode.
    """
    table = program.__dict__.get("_decoded")
    if table is None:
        table = DecodedProgram(program)
        program.__dict__["_decoded"] = table
    return table


def register_use(instruction: Instruction) -> Tuple[tuple, tuple]:
    """``(regs_read, regs_written)`` of a committed step of ``instruction``.

    Fixed by the encoding format; the one definition both
    :func:`decode_word` and the DIFT propagation rules use.
    """
    op, fmt = instruction.opcode, instruction.format
    rd, rs1, rs2 = instruction.rd, instruction.rs1, instruction.rs2
    if op is Opcode.SYSCALL:
        return (3, 4, 5, 6), (3,)
    if op is Opcode.STRF:
        return (rs1,), ()
    if fmt is Format.R:
        return (rs1, rs2), (rd,)
    if fmt is Format.S or fmt is Format.B:
        return (rs1, rs2), ()
    if fmt is Format.U or op is Opcode.LTNT:
        return (), (rd,)
    reads = (rs1,) if fmt is Format.I else ()  # JAL is J-format
    if op in JUMP_OPCODES and rd == 0:  # no link register written
        return reads, ()
    if fmt is Format.I or fmt is Format.J:
        return reads, (rd,)
    return (), ()  # NOP, HALT


def _bits(registers: Tuple[int, ...]) -> int:
    mask = 0
    for register in registers:
        mask |= 1 << register
    return mask


# ------------------------------------------------------------------- CPU


class CPU:
    """A single-core machine executing one program.

    Args:
        program: the assembled image to run.
        devices: descriptor table (a fresh one is created if omitted).
        stack_base: initial stack pointer (grows down); the stack lives in
            ordinary paged memory.
    """

    STACK_BASE = 0x7FFF_F000

    def __init__(
        self,
        program: Program,
        devices: Optional[DeviceTable] = None,
        stack_base: int = STACK_BASE,
    ) -> None:
        self.program = program
        self.memory = PagedMemory()
        self.devices = devices if devices is not None else DeviceTable()
        self.syscalls = SyscallHandler(self.devices)
        self.registers: List[int] = [0] * 16
        self.registers[2] = stack_base  # sp
        self.pc = program.entry_point
        self.halted = False
        self.exit_code = 0
        self.step_count = 0
        self.syscall_count = 0
        self.console = bytearray()
        self.latch_port: LatchPort = LatchPort()
        self._observers: List[Observer] = []
        self._decoded = decode_program(program)
        self._load_data()

    def _load_data(self) -> None:
        if self.program.data:
            self.memory.write_bytes(self.program.data_base, self.program.data)
        # Data loading is initialisation, not program behaviour: exclude it
        # from the pages-accessed statistics.
        self.memory.reset_access_tracking()

    # ------------------------------------------------------------ observers

    def attach(self, observer: Observer) -> None:
        """Attach an execution observer (DIFT engine, tracer, ...)."""
        self._observers.append(observer)

    def detach(self, observer: Observer) -> None:
        """Remove a previously attached observer."""
        self._observers.remove(observer)

    def notify_input(self, event: InputEvent) -> None:
        """Forward a syscall input event to observers (used by syscalls)."""
        for observer in self._observers:
            observer.on_input(event)

    def notify_output(self, event: OutputEvent) -> None:
        """Forward a syscall output event to observers."""
        for observer in self._observers:
            observer.on_output(event)

    # ------------------------------------------------------------ execution

    def halt(self, exit_code: int = 0) -> None:
        """Stop the machine at the end of the current instruction."""
        self.halted = True
        self.exit_code = exit_code

    def step(self) -> StepEvent:
        """Fetch, execute, and commit one instruction.

        Returns the :class:`StepEvent` describing the committed
        instruction; raises :class:`ExecutionError` if the machine has
        already halted or the pc is invalid.
        """
        if self.halted:
            raise ExecutionError("machine is halted")
        pc = self.pc
        entry = self._decoded.entries.get(pc)
        if entry is None:  # the table holds every valid pc
            try:
                self.program.instruction_at(pc)
            except IndexError as exc:
                raise ExecutionError(str(exc)) from exc
        regs = self.registers
        instruction = entry.instruction
        reads: tuple = ()
        writes: tuple = ()
        memory = entry.memory
        if memory is not None:
            address = (regs[instruction.rs1] + instruction.imm) & _MASK32
            if memory == STORE:
                writes = (MemoryAccess(address, entry.size, True),)
            else:
                reads = (MemoryAccess(address, entry.size, False),)
        syscall_number = (
            regs[3] if instruction.opcode is Opcode.SYSCALL else None
        )
        next_pc = entry.execute(self, regs)
        regs[0] = 0  # r0 is hard-wired to zero
        event = StepEvent(self.step_count, pc, instruction, entry.regs_read,
                          entry.regs_written, reads, writes, next_pc,
                          syscall_number)
        self.step_count += 1
        self.pc = next_pc
        for observer in self._observers:
            observer.on_step(event)
        if self.halted:
            for observer in self._observers:
                observer.on_halt(self.step_count)
        return event

    def run(self, max_steps: int = 10_000_000) -> int:
        """Run until halt or ``max_steps``; returns committed step count.

        With no observer, or with one observer whose
        :meth:`~repro.machine.events.Observer.quiet_snapshot` returns a
        snapshot, instructions run in quiet stretches (see
        :meth:`_run_quiet`); every other instruction goes through
        :meth:`step`.  A stretch is attempted only when its first
        instruction could run in it: it is in the quiet table and uses
        no register in the observer's
        :meth:`~repro.machine.events.Observer.quiet_registers`.
        """
        start = self.step_count
        observers = self._observers
        quiet = self._decoded.quiet
        while not self.halted:
            budget = max_steps - (self.step_count - start)
            if budget <= 0:
                break
            entry = quiet.get(self.pc)
            observer = observers[0] if observers else None
            if entry is None or len(observers) > 1:
                snapshot = None
            elif observer is None:
                snapshot = (0, None)
            else:
                # Duck-typed observers without the hooks see every step.
                offer = getattr(observer, "quiet_snapshot", None)
                live = getattr(observer, "quiet_registers", None)
                if offer is None or (live is not None and entry[1] & live()):
                    snapshot = None
                else:
                    snapshot = offer()
            if (snapshot is not None
                    and self._run_quiet(budget, observer, *snapshot) == budget):
                break
            self.step()
        return self.step_count - start

    def _run_quiet(
        self,
        budget: int,
        observer: Optional[Observer],
        register_mask: int,
        memory_probe: Optional[Callable[[int, int], bool]],
    ) -> int:
        """Run a quiet stretch of at most ``budget`` instructions.

        The snapshot — ``register_mask`` (registers whose use needs the
        observer) and ``memory_probe(address, size)`` (True when a
        memory operand needs it; ``None`` for never) — is frozen for the
        whole stretch, because only the per-step path can change it.
        The stretch stops *before* the first instruction that touches a
        masked register, has a probed memory operand, is not in the
        quiet table (see :class:`DecodedProgram`) or sits at a bad pc,
        so that instruction goes through :meth:`step`.  The committed
        count is reported through ``observer.on_quiet`` even when an
        instruction raises, and the pc then stays on the faulting
        instruction.
        """
        table = self._decoded.quiet
        regs = self.registers
        pc = self.pc
        count = 0
        try:
            while count < budget:
                entry = table.get(pc)
                if entry is None:
                    break
                execute, touch_mask, size, rs1, imm = entry
                if touch_mask & register_mask:
                    break
                if (size and memory_probe is not None
                        and memory_probe((regs[rs1] + imm) & _MASK32, size)):
                    break
                pc = execute(self, regs)
                regs[0] = 0
                count += 1
        finally:
            self.pc = pc
            if count:
                self.step_count += count
                if observer is not None:
                    observer.on_quiet(count)
        return count

    # ------------------------------------------------------------- metrics

    def publish_metrics(self, registry) -> None:
        """Publish execution counters into an obs registry.

        The machine keeps plain integer counters on the hot path;
        publication copies them out, so attaching observability costs
        nothing per instruction.
        """
        registry.counter(
            "cpu.instructions", unit="instructions",
            description="Instructions committed",
        ).set(self.step_count)
        registry.counter(
            "cpu.syscalls", unit="syscalls",
            description="SYSCALL instructions dispatched",
        ).set(self.syscall_count)
        registry.gauge(
            "cpu.halted", unit="bool",
            description="1 when the machine has halted",
            callback=lambda: int(self.halted),
        )


# --------------------------------------------------------------- semantics
#
# One handler factory per opcode: ``factory(instruction, pc)`` returns
# ``handler(cpu, registers) -> next_pc`` with the operands bound.


def _div(a: int, b: int) -> int:
    if b == 0:
        raise ExecutionError("division by zero")
    quotient = abs(_signed(a)) // abs(_signed(b))
    if (_signed(a) < 0) != (_signed(b) < 0):
        quotient = -quotient
    return quotient


def _rem(a: int, b: int) -> int:
    if b == 0:
        raise ExecutionError("remainder by zero")
    return _signed(a) - _div(a, b) * _signed(b)


def _alu_reg(fn: Callable[[int, int], int]):
    def factory(ins: Instruction, pc: int) -> Handler:
        rd, rs1, rs2, nxt = ins.rd, ins.rs1, ins.rs2, (pc + 4) & _MASK32

        def execute(cpu, regs):
            regs[rd] = fn(regs[rs1], regs[rs2]) & _MASK32
            return nxt
        return execute
    return factory


def _alu_imm(fn: Callable[[int, int], int]):
    def factory(ins: Instruction, pc: int) -> Handler:
        rd, rs1, imm, nxt = ins.rd, ins.rs1, ins.imm, (pc + 4) & _MASK32

        def execute(cpu, regs):
            regs[rd] = fn(regs[rs1], imm) & _MASK32
            return nxt
        return execute
    return factory


def _branch(fn: Callable[[int, int], bool]):
    def factory(ins: Instruction, pc: int) -> Handler:
        rs1, rs2 = ins.rs1, ins.rs2
        taken, nxt = (pc + ins.imm) & _MASK32, (pc + 4) & _MASK32

        def execute(cpu, regs):
            return taken if fn(regs[rs1], regs[rs2]) else nxt
        return execute
    return factory


def _load(ins: Instruction, pc: int) -> Handler:
    rd, rs1, imm, nxt = ins.rd, ins.rs1, ins.imm, (pc + 4) & _MASK32
    size, signed = LOAD_SIZES[ins.opcode], ins.opcode in _SIGN_EXTENDED
    sign_bit, span = 1 << (8 * size - 1), 1 << (8 * size)

    def execute(cpu, regs):
        raw = cpu.memory.read_uint((regs[rs1] + imm) & _MASK32, size)
        if signed and raw & sign_bit:
            raw -= span
        regs[rd] = raw & _MASK32
        return nxt
    return execute


def _store(ins: Instruction, pc: int) -> Handler:
    rs1, rs2, imm, nxt = ins.rs1, ins.rs2, ins.imm, (pc + 4) & _MASK32
    size = STORE_SIZES[ins.opcode]

    def execute(cpu, regs):
        cpu.memory.write_uint((regs[rs1] + imm) & _MASK32, regs[rs2], size)
        return nxt
    return execute


def _lui(ins: Instruction, pc: int) -> Handler:
    rd, value, nxt = ins.rd, (ins.imm << 16) & _MASK32, (pc + 4) & _MASK32

    def execute(cpu, regs):
        regs[rd] = value
        return nxt
    return execute


def _jal(ins: Instruction, pc: int) -> Handler:
    rd, link, target = ins.rd, (pc + 4) & _MASK32, (pc + ins.imm) & _MASK32

    def execute(cpu, regs):
        if rd != 0:
            regs[rd] = link
        return target
    return execute


def _jalr(ins: Instruction, pc: int) -> Handler:
    rd, rs1, imm, link = ins.rd, ins.rs1, ins.imm, (pc + 4) & _MASK32

    def execute(cpu, regs):
        target = (regs[rs1] + imm) & _MASK32 & ~3
        if rd != 0:
            regs[rd] = link
        return target
    return execute


def _fall_through(effect: Callable[["CPU", List[int], Instruction], None]):
    """Factory for an instruction that only acts and goes to pc + 4."""
    def factory(ins: Instruction, pc: int) -> Handler:
        nxt = (pc + 4) & _MASK32

        def execute(cpu, regs):
            effect(cpu, regs, ins)
            return nxt
        return execute
    return factory


def _syscall(cpu: "CPU", regs: List[int], ins: Instruction) -> None:
    cpu.syscall_count += 1
    regs[3] = cpu.syscalls.dispatch(cpu, regs[3]) & _MASK32


def _ltnt(cpu: "CPU", regs: List[int], ins: Instruction) -> None:
    regs[ins.rd] = cpu.latch_port.last_exception_address() & _MASK32


_SIGN_EXTENDED = frozenset({Opcode.LB, Opcode.LH})

_SEMANTICS: Dict[Opcode, Callable[[Instruction, int], Handler]] = {
    Opcode.ADD: _alu_reg(operator.add),
    Opcode.SUB: _alu_reg(operator.sub),
    Opcode.AND: _alu_reg(operator.and_),
    Opcode.OR: _alu_reg(operator.or_),
    Opcode.XOR: _alu_reg(operator.xor),
    Opcode.SLL: _alu_reg(lambda a, b: a << (b & 31)),
    Opcode.SRL: _alu_reg(lambda a, b: (a & _MASK32) >> (b & 31)),
    Opcode.SRA: _alu_reg(lambda a, b: _signed(a) >> (b & 31)),
    Opcode.SLT: _alu_reg(lambda a, b: int(_signed(a) < _signed(b))),
    Opcode.SLTU: _alu_reg(lambda a, b: int((a & _MASK32) < (b & _MASK32))),
    Opcode.MUL: _alu_reg(operator.mul),
    Opcode.DIV: _alu_reg(_div),
    Opcode.REM: _alu_reg(_rem),
    Opcode.ADDI: _alu_imm(operator.add),
    Opcode.ANDI: _alu_imm(lambda a, imm: a & (imm & 0xFFFF)),
    Opcode.ORI: _alu_imm(lambda a, imm: a | (imm & 0xFFFF)),
    Opcode.XORI: _alu_imm(lambda a, imm: a ^ (imm & 0xFFFF)),
    Opcode.SLLI: _alu_imm(lambda a, imm: a << (imm & 31)),
    Opcode.SRLI: _alu_imm(lambda a, imm: (a & _MASK32) >> (imm & 31)),
    Opcode.SRAI: _alu_imm(lambda a, imm: _signed(a) >> (imm & 31)),
    Opcode.SLTI: _alu_imm(lambda a, imm: int(_signed(a) < imm)),
    Opcode.LUI: _lui,
    **{opcode: _load for opcode in LOAD_SIZES},
    **{opcode: _store for opcode in STORE_SIZES},
    Opcode.BEQ: _branch(operator.eq),
    Opcode.BNE: _branch(operator.ne),
    Opcode.BLT: _branch(lambda a, b: _signed(a) < _signed(b)),
    Opcode.BGE: _branch(lambda a, b: _signed(a) >= _signed(b)),
    Opcode.BLTU: _branch(lambda a, b: (a & _MASK32) < (b & _MASK32)),
    Opcode.BGEU: _branch(lambda a, b: (a & _MASK32) >= (b & _MASK32)),
    Opcode.JAL: _jal,
    Opcode.JALR: _jalr,
    Opcode.NOP: _fall_through(lambda cpu, regs, ins: None),
    Opcode.HALT: _fall_through(
        lambda cpu, regs, ins: cpu.halt(exit_code=regs[3])
    ),
    Opcode.SYSCALL: _fall_through(_syscall),
    Opcode.STRF: _fall_through(
        lambda cpu, regs, ins: cpu.latch_port.set_trf(regs[ins.rs1])
    ),
    Opcode.STNT: _fall_through(
        lambda cpu, regs, ins: cpu.latch_port.set_taint(
            regs[ins.rs1], regs[ins.rs2]
        )
    ),
    Opcode.LTNT: _fall_through(_ltnt),
}

#: Opcodes that always take the per-step path: they call out of the
#: machine (devices, LATCH port) or stop it.
_PER_STEP_OPCODES = frozenset({
    Opcode.SYSCALL, Opcode.HALT, Opcode.STRF, Opcode.STNT, Opcode.LTNT,
})

