"""Fetch/decode/execute CPU for the toy ISA.

The CPU commits one instruction per :meth:`CPU.step` call and notifies
attached observers with a :class:`~repro.machine.events.StepEvent`
describing the architectural effects (registers and memory touched).
This commit-time event stream is what the LATCH hardware module taps in
the paper (Figure 7: extraction logic operates on committed instructions),
and what a Pin-based DIFT tool observes in the software systems.

The three S-LATCH instructions (``strf``, ``stnt``, ``ltnt``) are executed
by delegating to an attached ``latch_port`` — an object implementing the
small :class:`LatchPort` protocol — so that the ISA stays independent of
any particular LATCH implementation.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.isa.instructions import Instruction, Opcode
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
        try:
            instruction = self.program.instruction_at(self.pc)
        except IndexError as exc:
            raise ExecutionError(str(exc)) from exc

        event = self._execute(instruction)
        self.registers[0] = 0  # r0 is hard-wired to zero
        self.step_count += 1
        self.pc = event.next_pc
        for observer in self._observers:
            observer.on_step(event)
        if self.halted:
            for observer in self._observers:
                observer.on_halt(self.step_count)
        return event

    def run(self, max_steps: int = 10_000_000) -> int:
        """Run until halt or ``max_steps``; returns committed step count."""
        start = self.step_count
        while not self.halted and self.step_count - start < max_steps:
            self.step()
        return self.step_count - start

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

    # ----------------------------------------------------------- semantics

    def _execute(self, instruction: Instruction) -> StepEvent:
        op = instruction.opcode
        regs = self.registers
        rd = instruction.rd
        rs1 = instruction.rs1
        rs2 = instruction.rs2
        imm = instruction.imm
        next_pc = (self.pc + 4) & _MASK32
        reads: tuple = ()
        writes: tuple = ()
        regs_read: tuple = ()
        regs_written: tuple = ()
        syscall_number: Optional[int] = None

        if op == Opcode.NOP:
            pass
        elif op == Opcode.HALT:
            self.halt(exit_code=regs[3])
        elif op == Opcode.SYSCALL:
            syscall_number = regs[3]
            self.syscall_count += 1
            regs_read = (3, 4, 5, 6)
            result = self.syscalls.dispatch(self, syscall_number)
            regs[3] = result & _MASK32
            regs_written = (3,)
        elif op in _ALU_REG_OPS:
            value = _ALU_REG_OPS[op](regs[rs1], regs[rs2])
            regs[rd] = value & _MASK32
            regs_read = (rs1, rs2)
            regs_written = (rd,)
        elif op in _ALU_IMM_OPS:
            value = _ALU_IMM_OPS[op](regs[rs1], imm)
            regs[rd] = value & _MASK32
            regs_read = (rs1,)
            regs_written = (rd,)
        elif op == Opcode.LUI:
            regs[rd] = (imm << 16) & _MASK32
            regs_written = (rd,)
        elif op in _LOAD_OPS:
            address = (regs[rs1] + imm) & _MASK32
            size, signed = _LOAD_OPS[op]
            raw = self.memory.read_uint(address, size)
            if signed and raw & (1 << (8 * size - 1)):
                raw -= 1 << (8 * size)
            regs[rd] = raw & _MASK32
            reads = (MemoryAccess(address, size, is_write=False),)
            regs_read = (rs1,)
            regs_written = (rd,)
        elif op in _STORE_OPS:
            address = (regs[rs1] + imm) & _MASK32
            size = _STORE_OPS[op]
            self.memory.write_uint(address, regs[rs2], size)
            writes = (MemoryAccess(address, size, is_write=True),)
            regs_read = (rs1, rs2)
        elif op in _BRANCH_OPS:
            taken = _BRANCH_OPS[op](regs[rs1], regs[rs2])
            regs_read = (rs1, rs2)
            if taken:
                next_pc = (self.pc + imm) & _MASK32
        elif op == Opcode.JAL:
            if rd != 0:
                regs[rd] = (self.pc + 4) & _MASK32
                regs_written = (rd,)
            next_pc = (self.pc + imm) & _MASK32
        elif op == Opcode.JALR:
            target = (regs[rs1] + imm) & _MASK32 & ~3
            regs_read = (rs1,)
            if rd != 0:
                regs[rd] = (self.pc + 4) & _MASK32
                regs_written = (rd,)
            next_pc = target
        elif op == Opcode.STRF:
            regs_read = (rs1,)
            self.latch_port.set_trf(regs[rs1])
        elif op == Opcode.STNT:
            regs_read = (rs1, rs2)
            self.latch_port.set_taint(regs[rs1], regs[rs2])
        elif op == Opcode.LTNT:
            regs[rd] = self.latch_port.last_exception_address() & _MASK32
            regs_written = (rd,)
        else:  # pragma: no cover - opcodes are exhaustive
            raise ExecutionError(f"unimplemented opcode {op.name}")

        return StepEvent(
            index=self.step_count,
            pc=self.pc,
            instruction=instruction,
            regs_read=regs_read,
            regs_written=regs_written,
            reads=reads,
            writes=writes,
            next_pc=next_pc,
            syscall_number=syscall_number,
        )


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


_ALU_REG_OPS = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SLL: lambda a, b: a << (b & 31),
    Opcode.SRL: lambda a, b: (a & _MASK32) >> (b & 31),
    Opcode.SRA: lambda a, b: _signed(a) >> (b & 31),
    Opcode.SLT: lambda a, b: int(_signed(a) < _signed(b)),
    Opcode.SLTU: lambda a, b: int((a & _MASK32) < (b & _MASK32)),
    Opcode.MUL: lambda a, b: a * b,
    Opcode.DIV: _div,
    Opcode.REM: _rem,
}

_ALU_IMM_OPS = {
    Opcode.ADDI: lambda a, imm: a + imm,
    Opcode.ANDI: lambda a, imm: a & (imm & 0xFFFF),
    Opcode.ORI: lambda a, imm: a | (imm & 0xFFFF),
    Opcode.XORI: lambda a, imm: a ^ (imm & 0xFFFF),
    Opcode.SLLI: lambda a, imm: a << (imm & 31),
    Opcode.SRLI: lambda a, imm: (a & _MASK32) >> (imm & 31),
    Opcode.SRAI: lambda a, imm: _signed(a) >> (imm & 31),
    Opcode.SLTI: lambda a, imm: int(_signed(a) < imm),
}

_LOAD_OPS = {
    Opcode.LB: (1, True),
    Opcode.LBU: (1, False),
    Opcode.LH: (2, True),
    Opcode.LHU: (2, False),
    Opcode.LW: (4, False),
}

_STORE_OPS = {Opcode.SB: 1, Opcode.SH: 2, Opcode.SW: 4}

_BRANCH_OPS = {
    Opcode.BEQ: lambda a, b: a == b,
    Opcode.BNE: lambda a, b: a != b,
    Opcode.BLT: lambda a, b: _signed(a) < _signed(b),
    Opcode.BGE: lambda a, b: _signed(a) >= _signed(b),
    Opcode.BLTU: lambda a, b: (a & _MASK32) < (b & _MASK32),
    Opcode.BGEU: lambda a, b: (a & _MASK32) >= (b & _MASK32),
}
