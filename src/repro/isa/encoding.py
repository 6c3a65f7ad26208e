"""Binary encoding of the toy ISA.

Every instruction is one little-endian 32-bit word:

.. code-block:: text

    bits 31..24   opcode (8 bits)
    bits 23..20   rd     (4 bits)
    bits 19..16   rs1    (4 bits)
    bits 15..12   rs2    (4 bits)
    bits 15..0    imm16  (I/S/B/U formats; overlaps rs2 only in I/U)
    bits 25..0    imm26  (J format; rd occupies bits 29..26 instead)

I-format immediates are sign-extended, except for the logical
``andi``/``ori``/``xori``, whose immediate is zero-extended (0..0xFFFF,
so ``lui`` + ``ori`` can build any 32-bit constant).  To keep decode
trivial, formats that carry both ``rs2`` and a 16-bit immediate (S and
B) narrow the immediate to 12 bits (bits 11..0), sign-extended.
:meth:`repro.isa.instructions.Instruction.validate` holds every range
check, so an instruction encodes exactly when it validates.
"""

from __future__ import annotations

from repro.isa.instructions import (
    LOGICAL_IMM_OPCODES,
    Format,
    Instruction,
    Opcode,
)

_MASK32 = 0xFFFFFFFF


class EncodingError(ValueError):
    """Raised when an instruction cannot be represented in 32 bits."""


def _sign_extend(value: int, bits: int) -> int:
    sign_bit = 1 << (bits - 1)
    return (value & (sign_bit - 1)) - (value & sign_bit)


def encode(instruction: Instruction) -> int:
    """Encode a decoded instruction into its 32-bit word.

    Raises :class:`EncodingError` when the instruction does not validate.
    """
    try:
        instruction.validate()
    except ValueError as error:
        raise EncodingError(str(error)) from error
    opcode = int(instruction.opcode) & 0xFF
    fmt = instruction.format
    rd = instruction.rd or 0
    rs1 = instruction.rs1 or 0
    rs2 = instruction.rs2 or 0
    imm = instruction.imm

    if fmt == Format.R:
        word = (opcode << 24) | (rd << 20) | (rs1 << 16) | (rs2 << 12)
    elif fmt == Format.I:
        word = (opcode << 24) | (rd << 20) | (rs1 << 16) | (imm & 0xFFFF)
    elif fmt in (Format.S, Format.B):
        # rs2 is stored in the rd slot (bits 23..20) so the immediate can
        # occupy bits 11..0.
        word = (opcode << 24) | (rs2 << 20) | (rs1 << 16) | (imm & 0xFFF)
    elif fmt == Format.J:
        # J-format: opcode 31..24, rd 23..20, imm20 in 19..0 scaled by 4.
        word = (opcode << 24) | (rd << 20) | ((imm >> 2) & 0xFFFFF)
    elif fmt == Format.U:
        word = (opcode << 24) | (rd << 20) | (imm & 0xFFFF)
    elif fmt == Format.N:
        word = (opcode << 24) | (rs1 << 16)
    else:  # pragma: no cover - formats are exhaustive
        raise EncodingError(f"unknown format {fmt}")
    return word & _MASK32


def decode(word: int) -> Instruction:
    """Decode a 32-bit word back into an :class:`Instruction`.

    Raises :class:`EncodingError` for unknown opcodes.
    """
    word &= _MASK32
    opcode_value = (word >> 24) & 0xFF
    try:
        opcode = Opcode(opcode_value)
    except ValueError as exc:
        raise EncodingError(f"unknown opcode byte 0x{opcode_value:02x}") from exc

    from repro.isa.instructions import OPCODE_FORMAT

    fmt = OPCODE_FORMAT[opcode]
    if fmt == Format.R:
        return Instruction(
            opcode,
            rd=(word >> 20) & 0xF,
            rs1=(word >> 16) & 0xF,
            rs2=(word >> 12) & 0xF,
        )
    if fmt == Format.I:
        rd = (word >> 20) & 0xF
        rs1 = (word >> 16) & 0xF
        imm = word & 0xFFFF
        if opcode not in LOGICAL_IMM_OPCODES:
            imm = _sign_extend(imm, 16)
        if opcode == Opcode.LTNT:
            return Instruction(opcode, rd=rd)
        return Instruction(opcode, rd=rd, rs1=rs1, imm=imm)
    if fmt in (Format.S, Format.B):
        return Instruction(
            opcode,
            rs2=(word >> 20) & 0xF,
            rs1=(word >> 16) & 0xF,
            imm=_sign_extend(word & 0xFFF, 12),
        )
    if fmt == Format.J:
        return Instruction(
            opcode,
            rd=(word >> 20) & 0xF,
            imm=_sign_extend(word & 0xFFFFF, 20) << 2,
        )
    if fmt == Format.U:
        return Instruction(opcode, rd=(word >> 20) & 0xF, imm=word & 0xFFFF)
    # Format.N
    if opcode == Opcode.STRF:
        return Instruction(opcode, rs1=(word >> 16) & 0xF)
    return Instruction(opcode)


def encode_program(instructions) -> bytes:
    """Encode a sequence of instructions into little-endian machine code."""
    out = bytearray()
    for instruction in instructions:
        out += encode(instruction).to_bytes(4, "little")
    return bytes(out)


def decode_program(blob: bytes):
    """Decode little-endian machine code into a list of instructions."""
    if len(blob) % 4:
        raise EncodingError("machine code length must be a multiple of 4")
    return [
        decode(int.from_bytes(blob[i : i + 4], "little"))
        for i in range(0, len(blob), 4)
    ]
