"""Classical Dynamic Taint Analysis propagation rules, one per instruction.

These are the rules libdft applies (and the paper adopts: "All of our
evaluations apply the classical Dynamic Taint Analysis rules used by
[32]"), expressed over the toy ISA:

* register-register ALU: destination tags = byte-wise union of sources;
  the self-cancelling idioms ``xor rd, rs, rs`` and ``sub rd, rs, rs``
  clear the destination (their result is a constant);
* register-immediate ALU: destination tags = source tags;
* ``lui``, ``ltnt`` and ``jal``/``jalr`` link writes: destination
  cleared (immediates and the LATCH exception address are untainted by
  definition);
* loads: destination tags = shadow tags of the loaded bytes, with the
  sign-extension bytes of ``lb``/``lh`` inheriting the tag of the top
  loaded byte;
* stores: shadow tags of the stored bytes = source-register tags;
* branches, ``nop``, ``halt``, ``syscall``, ``strf`` and ``stnt``: no
  register or memory taint flow.

An instruction *touches taint* (Tables 1 and 2) when a register it
reads, or a byte of its memory operand, is tainted; ``stnt``, LATCH's
own taint-management instruction, never does.

Like libdft, which instruments each instruction with a handler
specialised to its class, :func:`compile_rule` turns one instruction
into a *rule* (load, store, copy, union, clear or no-op): a closure
that applies its propagation for one committed step and returns whether
it touched taint.  :class:`repro.dift.engine.DIFTEngine` caches the
rules and adds the data-use checks; ``tests/propagation_oracle.py``
states the same rules as one generic function, the test oracle.
"""

from __future__ import annotations

from typing import Callable

from repro.isa.instructions import (
    JUMP_OPCODES,
    LOAD_SIZES,
    STORE_SIZES,
    Format,
    Instruction,
    Opcode,
)
from repro.machine.cpu import register_use
from repro.machine.events import StepEvent
from repro.dift.tags import ShadowMemory, TaintRegisterFile

#: ``rule(event) -> touched``: one instruction's propagation.
Rule = Callable[[StepEvent], bool]

#: ``notify(address, tags)``: called after each shadow-memory tag write.
TagNotify = Callable[[int, bytes], None]

_CLEARING_OPS = frozenset({Opcode.XOR, Opcode.SUB})
_SIGNED_LOADS = frozenset({Opcode.LB, Opcode.LH})
_WIDTH = TaintRegisterFile.BYTES_PER_REGISTER


def compile_rule(
    instruction: Instruction,
    trf: TaintRegisterFile,
    shadow: ShadowMemory,
    notify: TagNotify,
) -> Rule:
    """The propagation rule of ``instruction`` over ``trf`` and ``shadow``.

    The registers a rule checks are the ones a committed step of the
    instruction reads (:func:`repro.machine.cpu.register_use`); a
    memory rule takes its address from the event and its size from the
    opcode.  Store rules report each shadow write through ``notify``.
    """
    op, rd, rs1, rs2 = (instruction.opcode, instruction.rd,
                        instruction.rs1, instruction.rs2)
    reads = 0
    for register in register_use(instruction)[0]:
        reads |= 1 << register
    if op in LOAD_SIZES:
        return _load(trf, shadow, rd, LOAD_SIZES[op], op in _SIGNED_LOADS,
                     reads)
    if op in STORE_SIZES:
        return _store(trf, shadow, notify, rs2, STORE_SIZES[op], reads)
    if op is Opcode.STNT:
        return lambda event: False
    if instruction.format is Format.R:
        if op in _CLEARING_OPS and rs1 == rs2:
            return _clear(trf, rd, reads)
        return _union(trf, rd, (rs1, rs2), reads)
    if op is Opcode.LUI or op is Opcode.LTNT or (op in JUMP_OPCODES and rd):
        return _clear(trf, rd, reads)
    if instruction.format is Format.I and op not in JUMP_OPCODES:
        return _union(trf, rd, (rs1,), reads)  # a copy
    return _no_op(trf, reads)


def _no_op(trf: TaintRegisterFile, reads: int) -> Rule:
    live = trf.register_mask
    return lambda event: bool(live() & reads)


def _clear(trf: TaintRegisterFile, rd: int, reads: int) -> Rule:
    live, clear = trf.register_mask, trf.clear

    def rule(event: StepEvent) -> bool:
        touched = bool(live() & reads)
        clear(rd)
        return touched
    return rule


def _union(
    trf: TaintRegisterFile, rd: int, sources: tuple, reads: int
) -> Rule:
    live, union, set_, clear = (trf.register_mask, trf.union, trf.set,
                                trf.clear)

    def rule(event: StepEvent) -> bool:
        if live() & reads:
            set_(rd, union(*sources))
            return True
        clear(rd)
        return False
    return rule


def _load(
    trf: TaintRegisterFile, shadow: ShadowMemory, rd: int, size: int,
    signed: bool, reads: int,
) -> Rule:
    live, set_, clear = trf.register_mask, trf.set, trf.clear
    get_range = shadow.get_range
    clean = bytes(size)
    pad = bytes(_WIDTH - size)

    def rule(event: StepEvent) -> bool:
        tags = get_range(event.reads[0].address, size)
        if tags == clean:
            touched = bool(live() & reads)  # before rd, which may be rs1
            clear(rd)
            return touched
        if signed:  # sign-extension bytes inherit the top byte's tag
            set_(rd, tags + tags[-1:] * (_WIDTH - size))
        else:
            set_(rd, tags + pad)
        return True
    return rule


def _store(
    trf: TaintRegisterFile, shadow: ShadowMemory, notify: TagNotify,
    rs2: int, size: int, reads: int,
) -> Rule:
    live, get = trf.register_mask, trf.get
    any_tainted, set_tags = shadow.any_tainted, shadow.set_tags

    def rule(event: StepEvent) -> bool:
        address = event.writes[0].address
        tags = get(rs2)[:size]
        # A store touches taint if the stored value is tainted or the
        # destination bytes were tainted (the store may be clearing them).
        touched = bool(live() & reads) or any_tainted(address, size)
        set_tags(address, tags)
        notify(address, tags)
        return touched
    return rule
