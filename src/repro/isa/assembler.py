"""Two-pass assembler for the toy ISA.

Syntax overview (one statement per line, ``#`` or ``;`` comments):

.. code-block:: asm

    .text                     # switch to text section (default)
    .data                     # switch to data section
    .org 0x1000               # set location counter of current section
    .word 1, 2, 3             # emit 32-bit little-endian words
    .half 7                   # emit 16-bit values
    .byte 0xff, 'a'           # emit bytes
    .ascii "hi"               # emit string bytes (no terminator)
    .asciiz "hi"              # emit string bytes + NUL
    .space 64                 # reserve zeroed bytes
    .align 4                  # pad to a multiple of 4 bytes

    label:                    # labels may be on their own line
    loop:   addi r4, r4, 1
            blt  r4, r5, loop
            lw   r6, 8(r2)    # load/store use displacement(base) syntax
            jal  ra, func
            halt

Immediates accept decimal, ``0x`` hexadecimal, ``0b`` binary, character
literals, and label references (absolute for data/``lui``/``jalr``,
pc-relative for branches and ``jal``).  ``la rd, label`` and
``li rd, value`` pseudo-instructions expand to ``lui``+``ori`` pairs when
the value does not fit in 16 bits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.instructions import Format, Instruction, Opcode, register_number
from repro.isa.program import Program

#: Default base address of the text section.
TEXT_BASE = 0x0000_1000
#: Default base address of the data section.
DATA_BASE = 0x0010_0000


class AssemblyError(ValueError):
    """Raised on any syntax or semantic error, annotated with line number."""

    def __init__(self, message: str, line_number: Optional[int] = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


_MNEMONICS = {opcode.name.lower(): opcode for opcode in Opcode}
_PSEUDO = {"li", "la", "mv", "j", "call", "ret", "beqz", "bnez"}
_MEM_OPERAND = re.compile(r"^(?P<disp>[^()]*)\((?P<base>[^()]+)\)$")


@dataclass
class _Statement:
    """An instruction statement recorded during pass one."""

    mnemonic: str
    operands: List[str]
    address: int
    line_number: int


def _parse_int(token: str, line_number: int) -> int:
    token = token.strip()
    if len(token) >= 3 and token[0] == "'" and token[-1] == "'":
        body = token[1:-1]
        unescaped = body.encode().decode("unicode_escape")
        if len(unescaped) != 1:
            raise AssemblyError(f"bad character literal {token}", line_number)
        return ord(unescaped)
    try:
        return int(token, 0)
    except ValueError as exc:
        raise AssemblyError(f"bad integer literal {token!r}", line_number) from exc


def _split_operands(rest: str) -> List[str]:
    """Split an operand string on commas, respecting quotes."""
    operands: List[str] = []
    current = []
    in_string = False
    quote = ""
    for char in rest:
        if in_string:
            current.append(char)
            if char == quote and (len(current) < 2 or current[-2] != "\\"):
                in_string = False
        elif char in "\"'":
            in_string = True
            quote = char
            current.append(char)
        elif char == ",":
            operands.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        operands.append(tail)
    return operands


def _strip_comment(line: str) -> str:
    in_string = False
    quote = ""
    for index, char in enumerate(line):
        if in_string:
            if char == quote:
                in_string = False
        elif char in "\"'":
            in_string = True
            quote = char
        elif char in "#;":
            return line[:index]
    return line


class Assembler:
    """Two-pass assembler producing a :class:`~repro.isa.program.Program`."""

    def __init__(self, text_base: int = TEXT_BASE, data_base: int = DATA_BASE):
        self.text_base = text_base
        self.data_base = data_base
        self.symbols: Dict[str, int] = {}
        self._statements: List[_Statement] = []
        self._data = bytearray()
        self._data_cursor = 0
        self._text_cursor = 0
        self._section = "text"

    # ------------------------------------------------------------------ API

    def assemble(self, source: str, entry_label: str = "_start") -> Program:
        """Assemble ``source`` and return the linked program image."""
        self._pass_one(source)
        instructions = self._pass_two()
        entry = self.symbols.get(entry_label, self.text_base)
        return Program(
            instructions=instructions,
            text_base=self.text_base,
            data=bytes(self._data),
            data_base=self.data_base,
            symbols=dict(self.symbols),
            entry_point=entry,
        )

    # ------------------------------------------------------------- pass one

    def _pass_one(self, source: str) -> None:
        for line_number, raw_line in enumerate(source.splitlines(), start=1):
            line = _strip_comment(raw_line).strip()
            if not line:
                continue
            while True:
                match = re.match(r"^([A-Za-z_.$][\w.$]*):\s*(.*)$", line)
                if not match:
                    break
                self._define_label(match.group(1), line_number)
                line = match.group(2).strip()
            if not line:
                continue
            mnemonic, _, rest = line.partition(" ")
            mnemonic = mnemonic.lower()
            operands = _split_operands(rest)
            if mnemonic.startswith("."):
                self._directive(mnemonic, operands, line_number)
            else:
                self._record_instruction(mnemonic, operands, line_number)

    def _define_label(self, name: str, line_number: int) -> None:
        if name in self.symbols:
            raise AssemblyError(f"duplicate label {name!r}", line_number)
        if self._section == "text":
            self.symbols[name] = self.text_base + self._text_cursor
        else:
            self.symbols[name] = self.data_base + self._data_cursor

    def _directive(self, name: str, operands: List[str], line_number: int) -> None:
        if name == ".text":
            self._section = "text"
        elif name == ".data":
            self._section = "data"
        elif name == ".org":
            target = _parse_int(operands[0], line_number)
            if self._section == "text":
                if target < self.text_base:
                    raise AssemblyError(".org before text base", line_number)
                self._text_cursor = target - self.text_base
            else:
                if target < self.data_base:
                    raise AssemblyError(".org before data base", line_number)
                self._grow_data(target - self.data_base)
        elif name == ".word":
            for op in operands:
                value = self._constant(op, line_number) & 0xFFFFFFFF
                self._emit_data(value.to_bytes(4, "little"), line_number)
        elif name == ".half":
            for op in operands:
                value = self._constant(op, line_number) & 0xFFFF
                self._emit_data(value.to_bytes(2, "little"), line_number)
        elif name == ".byte":
            for op in operands:
                value = self._constant(op, line_number) & 0xFF
                self._emit_data(value.to_bytes(1, "little"), line_number)
        elif name in (".ascii", ".asciiz"):
            text = operands[0].strip()
            if len(text) < 2 or text[0] != '"' or text[-1] != '"':
                raise AssemblyError("string literal expected", line_number)
            payload = text[1:-1].encode().decode("unicode_escape").encode("latin-1")
            if name == ".asciiz":
                payload += b"\x00"
            self._emit_data(payload, line_number)
        elif name == ".space":
            count = _parse_int(operands[0], line_number)
            self._emit_data(b"\x00" * count, line_number)
        elif name == ".align":
            alignment = _parse_int(operands[0], line_number)
            if self._section == "text":
                while self._text_cursor % alignment:
                    self._record_instruction("nop", [], line_number)
            else:
                while self._data_cursor % alignment:
                    self._emit_data(b"\x00", line_number)
        else:
            raise AssemblyError(f"unknown directive {name}", line_number)

    def _constant(self, token: str, line_number: int) -> int:
        token = token.strip()
        if token in self.symbols:
            return self.symbols[token]
        return _parse_int(token, line_number)

    def _grow_data(self, new_cursor: int) -> None:
        if new_cursor > len(self._data):
            self._data.extend(b"\x00" * (new_cursor - len(self._data)))
        self._data_cursor = new_cursor

    def _emit_data(self, payload: bytes, line_number: int) -> None:
        if self._section != "data":
            raise AssemblyError("data directive outside .data section", line_number)
        end = self._data_cursor + len(payload)
        self._grow_data(end)
        self._data[self._data_cursor - len(payload) : self._data_cursor] = payload

    def _record_instruction(
        self, mnemonic: str, operands: List[str], line_number: int
    ) -> None:
        if self._section != "text":
            raise AssemblyError("instruction outside .text section", line_number)
        expanded = self._expand_pseudo(mnemonic, operands, line_number)
        for real_mnemonic, real_operands in expanded:
            address = self.text_base + self._text_cursor
            self._statements.append(
                _Statement(real_mnemonic, real_operands, address, line_number)
            )
            self._text_cursor += 4

    def _expand_pseudo(
        self, mnemonic: str, operands: List[str], line_number: int
    ) -> List[Tuple[str, List[str]]]:
        """Expand pseudo-instructions; real instructions pass through."""
        if mnemonic in _MNEMONICS:
            return [(mnemonic, operands)]
        if mnemonic == "nop":
            return [("nop", [])]
        if mnemonic == "mv":
            return [("addi", [operands[0], operands[1], "0"])]
        if mnemonic == "j":
            return [("jal", ["r0", operands[0]])]
        if mnemonic == "call":
            return [("jal", ["ra", operands[0]])]
        if mnemonic == "ret":
            return [("jalr", ["r0", "0(ra)"])]
        if mnemonic == "beqz":
            return [("beq", [operands[0], "r0", operands[1]])]
        if mnemonic == "bnez":
            return [("bne", [operands[0], "r0", operands[1]])]
        if mnemonic in ("li", "la"):
            # Worst case needs lui+ori; always emit two instructions so the
            # layout is deterministic regardless of the final symbol value.
            return [
                ("lui", [operands[0], f"%hi:{operands[1]}"]),
                ("ori", [operands[0], operands[0], f"%lo:{operands[1]}"]),
            ]
        raise AssemblyError(f"unknown mnemonic {mnemonic!r}", line_number)

    # ------------------------------------------------------------- pass two

    def _pass_two(self) -> List[Instruction]:
        instructions = []
        for statement in self._statements:
            instruction = self._build(statement)
            try:
                instruction.validate()
            except ValueError as exc:
                raise AssemblyError(str(exc), statement.line_number) from exc
            instructions.append(instruction)
        return instructions

    def _resolve(self, token: str, statement: _Statement) -> int:
        token = token.strip()
        if token.startswith("%hi:"):
            return (self._resolve(token[4:], statement) >> 16) & 0xFFFF
        if token.startswith("%lo:"):
            return self._resolve(token[4:], statement) & 0xFFFF
        if token in self.symbols:
            return self.symbols[token]
        return _parse_int(token, statement.line_number)

    def _register(self, token: str, statement: _Statement) -> int:
        try:
            return register_number(token)
        except ValueError as exc:
            raise AssemblyError(str(exc), statement.line_number) from exc

    def _mem_operand(self, token: str, statement: _Statement) -> Tuple[int, int]:
        """Parse ``disp(base)`` into (base_register, displacement)."""
        match = _MEM_OPERAND.match(token.strip())
        if not match:
            raise AssemblyError(
                f"expected disp(base) operand, got {token!r}", statement.line_number
            )
        base = self._register(match.group("base"), statement)
        disp_text = match.group("disp").strip() or "0"
        disp = self._resolve(disp_text, statement)
        return base, disp

    def _build(self, statement: _Statement) -> Instruction:
        opcode = _MNEMONICS[statement.mnemonic]
        fmt = Instruction(opcode).format
        ops = statement.operands
        ln = statement.line_number
        try:
            if fmt == Format.R:
                return Instruction(
                    opcode,
                    rd=self._register(ops[0], statement),
                    rs1=self._register(ops[1], statement),
                    rs2=self._register(ops[2], statement),
                )
            if opcode == Opcode.LTNT:
                return Instruction(opcode, rd=self._register(ops[0], statement))
            if opcode == Opcode.JALR:
                base, disp = self._mem_operand(ops[1], statement)
                return Instruction(
                    opcode,
                    rd=self._register(ops[0], statement),
                    rs1=base,
                    imm=disp,
                )
            if fmt == Format.I and opcode in (
                Opcode.LB,
                Opcode.LBU,
                Opcode.LH,
                Opcode.LHU,
                Opcode.LW,
            ):
                base, disp = self._mem_operand(ops[1], statement)
                return Instruction(
                    opcode,
                    rd=self._register(ops[0], statement),
                    rs1=base,
                    imm=disp,
                )
            if fmt == Format.I:
                return Instruction(
                    opcode,
                    rd=self._register(ops[0], statement),
                    rs1=self._register(ops[1], statement),
                    imm=self._resolve(ops[2], statement),
                )
            if opcode == Opcode.STNT:
                return Instruction(
                    opcode,
                    rs1=self._register(ops[0], statement),
                    rs2=self._register(ops[1], statement),
                )
            if fmt == Format.S:
                base, disp = self._mem_operand(ops[1], statement)
                return Instruction(
                    opcode,
                    rs2=self._register(ops[0], statement),
                    rs1=base,
                    imm=disp,
                )
            if fmt == Format.B:
                target = self._resolve(ops[2], statement)
                offset = (
                    target - statement.address
                    if ops[2].strip() in self.symbols
                    else target
                )
                return Instruction(
                    opcode,
                    rs1=self._register(ops[0], statement),
                    rs2=self._register(ops[1], statement),
                    imm=offset,
                    label=ops[2].strip() if ops[2].strip() in self.symbols else None,
                )
            if fmt == Format.J:
                target = self._resolve(ops[1], statement)
                offset = (
                    target - statement.address
                    if ops[1].strip() in self.symbols
                    else target
                )
                return Instruction(
                    opcode,
                    rd=self._register(ops[0], statement),
                    imm=offset,
                    label=ops[1].strip() if ops[1].strip() in self.symbols else None,
                )
            if fmt == Format.U:
                return Instruction(
                    opcode,
                    rd=self._register(ops[0], statement),
                    imm=self._resolve(ops[1], statement) & 0xFFFF,
                )
            if opcode == Opcode.STRF:
                return Instruction(opcode, rs1=self._register(ops[0], statement))
            return Instruction(opcode)
        except IndexError as exc:
            raise AssemblyError(
                f"missing operand for {statement.mnemonic}", ln
            ) from exc


def assemble(
    source: str,
    text_base: int = TEXT_BASE,
    data_base: int = DATA_BASE,
    entry_label: str = "_start",
) -> Program:
    """Assemble ``source`` text into a :class:`~repro.isa.program.Program`.

    This is the main entry point of the assembler; see the module docstring
    for the accepted syntax.
    """
    return Assembler(text_base=text_base, data_base=data_base).assemble(
        source, entry_label=entry_label
    )
