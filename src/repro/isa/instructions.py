"""Instruction definitions for the toy ISA.

The ISA is a conventional 32-bit load/store architecture:

* 16 general-purpose registers ``r0``–``r15``; ``r0`` is hard-wired to zero.
* Byte-addressable, little-endian memory.
* Fixed-width 32-bit instructions.

Instruction formats
-------------------

======  =======================  ==============================================
Format  Fields                   Used by
======  =======================  ==============================================
R       rd, rs1, rs2             ALU register-register operations
I       rd, rs1, imm16           ALU immediates, loads, ``jalr``, ``ltnt``
S       rs1, rs2, imm16          stores and ``stnt`` (no destination register)
B       rs1, rs2, imm16          conditional branches (pc-relative, in bytes)
J       rd, imm26                ``jal`` (pc-relative, in bytes)
U       rd, imm16                ``lui``
N       (none or one register)   ``nop``, ``halt``, ``syscall``, ``strf``
======  =======================  ==============================================

The three S-LATCH instructions from Table 5 of the paper are part of the
ISA so that the software layer of S-LATCH can be expressed as ordinary
assembly:

* ``strf rs1`` — load the taint register file from a bitmask in ``rs1``.
* ``stnt rs1, rs2`` — set the taint status of the byte at address ``rs1``
  to the value in ``rs2``, updating the CTT directly.
* ``ltnt rd`` — load the address that triggered the most recent LATCH
  exception into ``rd``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

#: Number of architectural general-purpose registers.
REGISTER_COUNT = 16

#: Canonical register names, indexable by register number.
REGISTER_NAMES: Tuple[str, ...] = tuple(f"r{i}" for i in range(REGISTER_COUNT))

_REGISTER_ALIASES = {
    "zero": 0,
    "ra": 1,   # return address (convention used by the assembler tests)
    "sp": 2,   # stack pointer
    "a0": 3,   # first argument / syscall number
    "a1": 4,
    "a2": 5,
    "a3": 6,
    "rv": 3,   # return value shares a0, mirroring common RISC conventions
}


def register_number(name: str) -> int:
    """Resolve a register name (``r3``, ``sp``, ``zero``...) to its number.

    Raises :class:`ValueError` for anything that is not a register.
    """
    key = name.strip().lower()
    if key in _REGISTER_ALIASES:
        return _REGISTER_ALIASES[key]
    if key.startswith("r") and key[1:].isdigit():
        number = int(key[1:])
        if 0 <= number < REGISTER_COUNT:
            return number
    raise ValueError(f"unknown register name: {name!r}")


class Format(enum.Enum):
    """Instruction encoding formats (see module docstring)."""

    R = "R"
    I = "I"  # noqa: E741 - conventional ISA format name
    S = "S"
    B = "B"
    J = "J"
    U = "U"
    N = "N"


class Opcode(enum.IntEnum):
    """All opcodes of the toy ISA.

    Values are the 8-bit opcode field of the binary encoding and are part
    of the stable public interface: traces serialised by one version of the
    library must decode identically in later versions.
    """

    # --- ALU, register-register (format R) -------------------------------
    ADD = 0x01
    SUB = 0x02
    AND = 0x03
    OR = 0x04
    XOR = 0x05
    SLL = 0x06
    SRL = 0x07
    SRA = 0x08
    SLT = 0x09
    SLTU = 0x0A
    MUL = 0x0B
    DIV = 0x0C
    REM = 0x0D

    # --- ALU, immediate (format I) ---------------------------------------
    ADDI = 0x10
    ANDI = 0x11
    ORI = 0x12
    XORI = 0x13
    SLLI = 0x14
    SRLI = 0x15
    SRAI = 0x16
    SLTI = 0x17

    # --- Upper immediate (format U) --------------------------------------
    LUI = 0x18

    # --- Loads (format I; address = rs1 + imm) ----------------------------
    LB = 0x20
    LBU = 0x21
    LH = 0x22
    LHU = 0x23
    LW = 0x24

    # --- Stores (format S; address = rs1 + imm, value = rs2) --------------
    SB = 0x28
    SH = 0x29
    SW = 0x2A

    # --- Control flow ------------------------------------------------------
    BEQ = 0x30   # format B
    BNE = 0x31
    BLT = 0x32
    BGE = 0x33
    BLTU = 0x34
    BGEU = 0x35
    JAL = 0x38   # format J
    JALR = 0x39  # format I

    # --- System ------------------------------------------------------------
    NOP = 0x00
    SYSCALL = 0x3C  # format N; syscall number in a0 (r3)
    HALT = 0x3F

    # --- S-LATCH extensions (Table 5 of the paper) -------------------------
    STRF = 0x40  # format N with one source register
    STNT = 0x41  # format S: address in rs1, taint value in rs2
    LTNT = 0x42  # format I with rd only


#: Mapping from opcode to its encoding format.
OPCODE_FORMAT = {
    Opcode.ADD: Format.R,
    Opcode.SUB: Format.R,
    Opcode.AND: Format.R,
    Opcode.OR: Format.R,
    Opcode.XOR: Format.R,
    Opcode.SLL: Format.R,
    Opcode.SRL: Format.R,
    Opcode.SRA: Format.R,
    Opcode.SLT: Format.R,
    Opcode.SLTU: Format.R,
    Opcode.MUL: Format.R,
    Opcode.DIV: Format.R,
    Opcode.REM: Format.R,
    Opcode.ADDI: Format.I,
    Opcode.ANDI: Format.I,
    Opcode.ORI: Format.I,
    Opcode.XORI: Format.I,
    Opcode.SLLI: Format.I,
    Opcode.SRLI: Format.I,
    Opcode.SRAI: Format.I,
    Opcode.SLTI: Format.I,
    Opcode.LUI: Format.U,
    Opcode.LB: Format.I,
    Opcode.LBU: Format.I,
    Opcode.LH: Format.I,
    Opcode.LHU: Format.I,
    Opcode.LW: Format.I,
    Opcode.SB: Format.S,
    Opcode.SH: Format.S,
    Opcode.SW: Format.S,
    Opcode.BEQ: Format.B,
    Opcode.BNE: Format.B,
    Opcode.BLT: Format.B,
    Opcode.BGE: Format.B,
    Opcode.BLTU: Format.B,
    Opcode.BGEU: Format.B,
    Opcode.JAL: Format.J,
    Opcode.JALR: Format.I,
    Opcode.NOP: Format.N,
    Opcode.SYSCALL: Format.N,
    Opcode.HALT: Format.N,
    Opcode.STRF: Format.N,
    Opcode.STNT: Format.S,
    Opcode.LTNT: Format.I,
}

#: Register fields each encoding format requires.
_FORMAT_REGISTERS = {
    Format.R: ("rd", "rs1", "rs2"),
    Format.I: ("rd",),
    Format.S: ("rs1", "rs2"),
    Format.B: ("rs1", "rs2"),
    Format.J: ("rd",),
    Format.U: ("rd",),
    Format.N: (),
}


def required_registers(opcode: Opcode) -> Tuple[str, ...]:
    """The register fields (``rd``/``rs1``/``rs2``) ``opcode`` requires.

    Its format's fields, plus ``rs1`` for every I-format instruction but
    ``ltnt`` and for ``strf``.
    """
    fmt = OPCODE_FORMAT[opcode]
    names = _FORMAT_REGISTERS[fmt]
    if (fmt == Format.I and opcode != Opcode.LTNT) or opcode == Opcode.STRF:
        names += ("rs1",)
    return names


#: Opcodes that read memory, mapped to their access size in bytes.
LOAD_SIZES = {
    Opcode.LB: 1,
    Opcode.LBU: 1,
    Opcode.LH: 2,
    Opcode.LHU: 2,
    Opcode.LW: 4,
}

#: Opcodes that write memory, mapped to their access size in bytes.
STORE_SIZES = {
    Opcode.SB: 1,
    Opcode.SH: 2,
    Opcode.SW: 4,
}

#: I-format logical immediates: zero-extended, so their immediate is an
#: unsigned 16-bit field (0..0xFFFF) — the ``%lo`` half of ``li``/``la``.
LOGICAL_IMM_OPCODES = frozenset({Opcode.ANDI, Opcode.ORI, Opcode.XORI})

#: Conditional branch opcodes.
BRANCH_OPCODES = frozenset(
    {Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.BLTU, Opcode.BGEU}
)

#: Opcodes that unconditionally transfer control.
JUMP_OPCODES = frozenset({Opcode.JAL, Opcode.JALR})


@dataclass(frozen=True)
class Instruction:
    """A decoded instruction.

    Register fields that do not apply to the instruction's format are
    ``None``; immediates default to 0.  ``label`` is only populated by the
    assembler for instructions whose immediate was written symbolically,
    and is ignored by the encoder (the resolved ``imm`` is authoritative).
    """

    opcode: Opcode
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    imm: int = 0
    label: Optional[str] = field(default=None, compare=False)

    @property
    def format(self) -> Format:
        """The encoding format of this instruction."""
        return OPCODE_FORMAT[self.opcode]

    @property
    def is_load(self) -> bool:
        """True if the instruction reads memory."""
        return self.opcode in LOAD_SIZES

    @property
    def is_store(self) -> bool:
        """True if the instruction writes memory."""
        return self.opcode in STORE_SIZES

    @property
    def is_memory_access(self) -> bool:
        """True if the instruction reads or writes data memory."""
        return self.is_load or self.is_store

    @property
    def memory_size(self) -> int:
        """Size in bytes of the memory access (0 for non-memory ops)."""
        if self.opcode in LOAD_SIZES:
            return LOAD_SIZES[self.opcode]
        if self.opcode in STORE_SIZES:
            return STORE_SIZES[self.opcode]
        return 0

    @property
    def is_branch(self) -> bool:
        """True for conditional branches."""
        return self.opcode in BRANCH_OPCODES

    @property
    def is_jump(self) -> bool:
        """True for unconditional jumps (``jal``/``jalr``)."""
        return self.opcode in JUMP_OPCODES

    @property
    def is_control_flow(self) -> bool:
        """True if the instruction may redirect the program counter."""
        return self.is_branch or self.is_jump

    def __str__(self) -> str:
        from repro.isa.disassembler import format_instruction

        return format_instruction(self)

    def validate(self) -> None:
        """Check that the instruction is exactly representable in 32 bits.

        Raises :class:`ValueError` on malformed instructions: a register
        field the format requires is missing or out of range, a field
        the format does not carry is set, or the immediate does not fit
        its encoded field (16 bits for I/U, 12 for S/B, a 4-byte-aligned
        20-bit word offset for J).  Every instruction that validates
        encodes and decodes back to itself.
        """
        fmt = self.format
        required = required_registers(self.opcode)
        for name in ("rd", "rs1", "rs2"):
            value = getattr(self, name)
            if value is None:
                if name in required:
                    raise ValueError(
                        f"{self.opcode.name} ({fmt.value}-format) "
                        f"requires {name}"
                    )
            elif name not in required:
                raise ValueError(f"{self.opcode.name} takes no {name}")
            elif not 0 <= value < REGISTER_COUNT:
                raise ValueError(f"{name}={value} out of range")
        imm = self.imm
        if fmt == Format.J:
            if imm % 4 or not -(1 << 21) <= imm < (1 << 21):
                raise ValueError(
                    f"J-format offset {imm} is not a 4-byte-aligned "
                    "20-bit word offset"
                )
        elif fmt in (Format.S, Format.B):
            if not -(1 << 11) <= imm < (1 << 11):
                raise ValueError(
                    f"{fmt.value}-format immediate {imm} does not fit "
                    "in 12 bits"
                )
        elif self.opcode in LOGICAL_IMM_OPCODES or fmt == Format.U:
            if not 0 <= imm < (1 << 16):
                raise ValueError(
                    f"{self.opcode.name} immediate {imm} out of range"
                )
        elif fmt == Format.I and self.opcode != Opcode.LTNT:
            if not -(1 << 15) <= imm < (1 << 15):
                raise ValueError(
                    f"I-format immediate {imm} out of range"
                )
        elif imm:
            raise ValueError(f"{self.opcode.name} takes no immediate")
