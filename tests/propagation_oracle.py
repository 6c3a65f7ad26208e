"""The classical DTA rules as one generic function: the test oracle.

:func:`propagate` states every rule of :mod:`repro.dift.propagation` in
one opcode dispatch over a committed :class:`StepEvent`, reading the
registers and memory operands the event reports.  The engine's
per-instruction rules (:func:`repro.dift.propagation.compile_rule`)
must agree with it on every decodable instruction;
``tests/test_propagation_rules.py`` checks that they do.  The oracle
reads and writes tags one byte at a time (``ShadowMemory.get``/``set``,
a byte-wise max for unions), so the bulk fast paths of
:mod:`repro.dift.tags` are checked along with the rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.dift.tags import ShadowMemory, TaintRegisterFile
from repro.isa.instructions import Format, Opcode
from repro.machine.events import StepEvent

_MASK32 = 0xFFFFFFFF
_CLEARING_OPS = frozenset({Opcode.XOR, Opcode.SUB})
_SIGNED_LOADS = frozenset({Opcode.LB, Opcode.LH})


@dataclass
class PropagationResult:
    """Outcome of propagating taint through one instruction.

    Attributes:
        touched_taint: the instruction manipulated tainted data — any
            source register carried taint, or any byte of any memory
            operand (read or written) was tainted before/after the
            access.  This is the paper's "instructions touching tainted
            data" metric (Tables 1 and 2).
        tainted_sources: True if a source register or loaded byte was
            tainted (used by data-use checks).
        memory_tag_writes: (address, tags) pairs applied to shadow
            memory, in the order a tag listener must see them.
        register_tag_writes: (register, tags) pairs applied to the TRF.
    """

    touched_taint: bool = False
    tainted_sources: bool = False
    memory_tag_writes: List[Tuple[int, bytes]] = field(default_factory=list)
    register_tag_writes: List[Tuple[int, bytes]] = field(default_factory=list)


def propagate(
    event: StepEvent,
    trf: TaintRegisterFile,
    shadow: ShadowMemory,
) -> PropagationResult:
    """Apply the classical DTA rules for one committed instruction.

    Mutates ``trf`` and ``shadow`` in place and reports what changed.
    """
    instruction = event.instruction
    opcode = instruction.opcode
    result = PropagationResult()

    source_tainted = trf.any_tainted(event.regs_read)
    result.tainted_sources = source_tainted
    result.touched_taint = source_tainted

    if instruction.is_load:
        access = event.reads[0]
        tags = _get_range(shadow, access.address, access.size)
        if any(tags):
            result.touched_taint = True
            result.tainted_sources = True
        extended = _extend_tags(tags, opcode)
        trf.set(instruction.rd, extended)
        result.register_tag_writes.append((instruction.rd, extended))
        return result

    if instruction.is_store:
        access = event.writes[0]
        value_tags = trf.get(instruction.rs2)[: access.size]
        # A store touches taint if the stored value is tainted or the
        # destination bytes were tainted (the store may be clearing them).
        if any(value_tags) or any(
            _get_range(shadow, access.address, access.size)
        ):
            result.touched_taint = True
        for offset, tag in enumerate(value_tags):
            shadow.set((access.address + offset) & _MASK32, tag)
        result.memory_tag_writes.append((access.address, bytes(value_tags)))
        return result

    if opcode == Opcode.STNT:
        # Taint-management instruction: handled by the LATCH port, and
        # deliberately NOT counted as an application taint access.
        result.touched_taint = False
        result.tainted_sources = False
        return result

    fmt = instruction.format
    if fmt == Format.R:
        if opcode in _CLEARING_OPS and instruction.rs1 == instruction.rs2:
            tags = bytes(TaintRegisterFile.BYTES_PER_REGISTER)
        else:
            tags = bytes(map(max, trf.get(instruction.rs1),
                             trf.get(instruction.rs2)))
        trf.set(instruction.rd, tags)
        result.register_tag_writes.append((instruction.rd, tags))
        return result

    if opcode == Opcode.LUI:
        tags = bytes(TaintRegisterFile.BYTES_PER_REGISTER)
        trf.set(instruction.rd, tags)
        result.register_tag_writes.append((instruction.rd, tags))
        return result

    if opcode in (Opcode.JAL, Opcode.JALR):
        if instruction.rd not in (None, 0):
            tags = bytes(TaintRegisterFile.BYTES_PER_REGISTER)
            trf.set(instruction.rd, tags)
            result.register_tag_writes.append((instruction.rd, tags))
        return result

    if fmt == Format.I and instruction.rd is not None and opcode != Opcode.LTNT:
        tags = trf.get(instruction.rs1) if instruction.rs1 is not None else bytes(4)
        trf.set(instruction.rd, tags)
        result.register_tag_writes.append((instruction.rd, tags))
        return result

    if opcode == Opcode.LTNT:
        # The loaded exception address is machine metadata, never tainted.
        tags = bytes(TaintRegisterFile.BYTES_PER_REGISTER)
        trf.set(instruction.rd, tags)
        result.register_tag_writes.append((instruction.rd, tags))
        return result

    # Branches, nop, halt, syscall, strf: no register/memory taint flow.
    return result


def _get_range(shadow: ShadowMemory, address: int, size: int) -> bytes:
    return bytes(shadow.get((address + i) & _MASK32) for i in range(size))


def _extend_tags(tags: bytes, opcode: Opcode) -> bytes:
    """Extend loaded tags to a full register width.

    Sign-extension replicates the top loaded byte's tag into the upper
    bytes (a tainted sign bit taints the extension); zero-extension and
    full-width loads pad with clean tags.
    """
    width = TaintRegisterFile.BYTES_PER_REGISTER
    if len(tags) >= width:
        return bytes(tags[:width])
    if opcode in _SIGNED_LOADS and tags:
        fill = tags[-1]
        return bytes(tags) + bytes([fill]) * (width - len(tags))
    return bytes(tags).ljust(width, b"\x00")
