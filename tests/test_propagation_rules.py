"""The engine's compiled propagation rules against the generic oracle.

:class:`~repro.dift.engine.DIFTEngine` applies one compiled rule per
instruction (:func:`repro.dift.propagation.compile_rule`).
``tests/propagation_oracle.propagate`` states the same classical DTA
rules as one opcode dispatch over byte-at-a-time tag operations.  For
every decodable word, from random register and shadow states with
distinct colour tags, both must leave identical TRF and shadow bytes,
count the step as tainted alike, report the same touched flag and send
tag listeners the same ``(address, tags)`` sequence.  The same holds
step by step over whole programs, and the engine's rule cache stays
bounded under a stream of distinct words.
"""

from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.check.corpus import load_corpus
from repro.check.generator import generate_program
from repro.check.workloads import image_program, kv_program, parse_program
from repro.dift.engine import RULE_CACHE_SIZE, DIFTEngine
from repro.dift.tags import ShadowMemory, TaintRegisterFile
from repro.isa.instructions import Instruction, Opcode
from repro.machine.cpu import (
    ExecutionError,
    decode_word,
    instruction_word,
    step_event,
)
from repro.machine.events import Observer
from repro.pipeline import StreamingPipeline
from tests.propagation_oracle import propagate

ROOT = Path(__file__).resolve().parent.parent
MASK32 = 0xFFFFFFFF
PAGE = 4096

#: Distinct non-zero colours; 0 is clean.
TAGS = st.sampled_from((0, 0, 0, 1, 2, 3, 5, 8, 13, 21))
REGISTER_TAGS = st.lists(
    st.just(bytes(4)) | st.binary(min_size=4, max_size=4)
    | st.tuples(TAGS, TAGS, TAGS, TAGS).map(bytes),
    min_size=16, max_size=16,
)
#: Addresses that exercise the one-page fast paths and their edges:
#: page straddles, the top of the 32-bit space, and anywhere.
ADDRESSES = st.one_of(
    st.integers(0, MASK32),
    st.integers(1, 0xFFFFF).map(lambda page: page * PAGE - 2),
    st.integers(1, 3).map(lambda back: (1 << 32) - back),
    st.integers(0x100, 0x140),
)
#: Register fields drawn often from a few registers, so that words like
#: ``lw r1, 0(r1)`` or ``add r2, r2, r2`` come up.
REGISTERS = st.integers(0, 15) | st.sampled_from((0, 1, 2))
WORDS = st.builds(
    lambda opcode, rd, rs1, rs2, low: (
        int(opcode) << 24 | rd << 20 | rs1 << 16 | rs2 << 12 | low),
    st.sampled_from(list(Opcode)),
    REGISTERS, REGISTERS, REGISTERS,
    st.integers(0, 0xFFF),
) | st.builds(
    lambda opcode, fields: int(opcode) << 24 | fields,
    st.sampled_from(list(Opcode)),
    st.integers(0, (1 << 24) - 1),
)


def fill(trf, shadow, register_tags, memory):
    """Load per-register tags and ``{address: tag}`` into a fresh state."""
    for register, tags in enumerate(register_tags):
        trf.set(register, tags)
    for address, tag in memory.items():
        shadow.set(address & MASK32, tag)


def shadow_bytes(shadow):
    return {address: shadow.get(address)
            for address in shadow.iter_tainted_bytes()}


def assert_rule_matches_oracle(event, register_tags, memory):
    """Run ``event`` through a DIFTEngine and the oracle; compare."""
    engine = DIFTEngine()
    writes = []
    engine.add_tag_listener(
        lambda address, tags: writes.append((address, tags))
    )
    trf, shadow = TaintRegisterFile(), ShadowMemory()
    fill(engine.trf, engine.shadow, register_tags, memory)
    fill(trf, shadow, register_tags, memory)

    engine.on_step(event)
    result = propagate(event, trf, shadow)

    assert [engine.trf.get(r) for r in range(16)] == [
        trf.get(r) for r in range(16)]
    assert engine.trf.register_mask() == trf.register_mask()
    assert shadow_bytes(engine.shadow) == shadow_bytes(shadow)
    assert engine.shadow.tainted_byte_count == shadow.tainted_byte_count
    assert engine.last_touched == result.touched_taint
    assert engine.stats.tainted_instructions == int(result.touched_taint)
    assert writes == result.memory_tag_writes


def event_for(word, address, syscall_number=0):
    instruction, _, _, memory, _ = decode_word(word)
    return step_event(
        7, 0x4000, word, address if memory else None, 0x4004,
        syscall_number if instruction.opcode is Opcode.SYSCALL else None,
    )


@given(
    word=WORDS,
    address=ADDRESSES,
    register_tags=REGISTER_TAGS,
    near=st.just({}) | st.dictionaries(st.integers(-4, 8), TAGS.filter(bool),
                                       max_size=10),
    far=st.dictionaries(st.integers(0, MASK32), TAGS.filter(bool),
                        max_size=4),
    syscall_number=st.integers(0, 12),
)
def test_every_decodable_word_matches_the_oracle(
    word, address, register_tags, near, far, syscall_number
):
    memory = dict(far)
    memory.update({(address + offset) & MASK32: tag
                   for offset, tag in near.items()})
    assert_rule_matches_oracle(
        event_for(word, address, syscall_number), register_tags, memory
    )


def _opcode_name(opcode):
    return opcode.name


def _word(opcode, **fields):
    return instruction_word(Instruction(opcode, **fields))


COLOURED = [bytes([0, 0, 0, 0]), bytes([3, 0, 5, 0]), bytes([2, 2, 2, 2]),
            bytes([0, 7, 0, 9])] * 4


@pytest.mark.parametrize("opcode", [Opcode.LB, Opcode.LH], ids=_opcode_name)
def test_signed_load_with_tainted_top_byte(opcode):
    size = 1 if opcode is Opcode.LB else 2
    memory = {0x200: 3, 0x200 + size - 1: 9}
    event = event_for(_word(opcode, rd=4, rs1=1, imm=0), 0x200)
    assert_rule_matches_oracle(event, COLOURED, memory)


@pytest.mark.parametrize("address", [
    pytest.param(PAGE - 2, id="page-straddle"),
    pytest.param(PAGE - 1, id="page-straddle-1"),
    pytest.param(MASK32 - 1, id="wrap"),
    pytest.param(MASK32, id="wrap-1"),
])
@pytest.mark.parametrize("opcode", [Opcode.LW, Opcode.LH, Opcode.SW,
                                    Opcode.SH], ids=_opcode_name)
def test_accesses_across_pages_and_the_top_of_memory(opcode, address):
    fields = ({"rd": 5, "rs1": 1, "imm": 0} if opcode in (Opcode.LW, Opcode.LH)
              else {"rs1": 1, "rs2": 3, "imm": 0})
    memory = {(address + offset) & MASK32: 4 + offset for offset in range(4)}
    event = event_for(_word(opcode, **fields), address)
    assert_rule_matches_oracle(event, COLOURED, memory)
    assert_rule_matches_oracle(event, COLOURED, {})


@pytest.mark.parametrize("instruction", [
    Instruction(Opcode.ADD, rd=0, rs1=1, rs2=2),
    Instruction(Opcode.ADDI, rd=0, rs1=1, imm=3),
    Instruction(Opcode.LW, rd=0, rs1=1, imm=0),
    Instruction(Opcode.LUI, rd=0, imm=1),
    Instruction(Opcode.LTNT, rd=0),
    Instruction(Opcode.JAL, rd=0, imm=8),
    Instruction(Opcode.JALR, rd=0, rs1=2, imm=0),
], ids=lambda instruction: instruction.opcode.name)
def test_destination_r0(instruction):
    word = instruction_word(instruction)
    assert_rule_matches_oracle(event_for(word, 0x200), COLOURED,
                               {0x200: 6})


@pytest.mark.parametrize("memory", [{}, {0x200: 6}], ids=["clean", "tainted"])
@pytest.mark.parametrize("opcode", [Opcode.LW, Opcode.LB, Opcode.LHU],
                         ids=_opcode_name)
def test_load_into_its_own_base_register(opcode, memory):
    """``lw r2, 0(r2)``: the tainted base counts before it is overwritten."""
    event = event_for(_word(opcode, rd=2, rs1=2, imm=0), 0x200)
    assert_rule_matches_oracle(event, COLOURED, memory)


@pytest.mark.parametrize("opcode", [Opcode.XOR, Opcode.SUB], ids=_opcode_name)
@pytest.mark.parametrize("rd", [1, 2])
def test_self_cancelling_idioms_clear(opcode, rd):
    event = event_for(_word(opcode, rd=rd, rs1=2, rs2=2), None)
    assert_rule_matches_oracle(event, COLOURED, {})


# ---------------------------------------------------------------- programs


class Lockstep(Observer):
    """A DIFTEngine and the oracle on twin states, compared every step."""

    def __init__(self):
        self.engine = DIFTEngine()
        self.writes = []
        self.engine.add_tag_listener(
            lambda address, tags: self.writes.append((address, tags))
        )
        self.trf, self.shadow = TaintRegisterFile(), ShadowMemory()
        self.touched = 0

    def on_input(self, event):
        self.engine.on_input(event)
        for offset in range(len(event.data)):
            address = (event.address + offset) & MASK32
            self.shadow.set(address, self.engine.shadow.get(address))
        self.writes.clear()

    def on_output(self, event):
        self.engine.on_output(event)

    def on_step(self, event):
        self.writes.clear()
        self.engine.on_step(event)
        result = propagate(event, self.trf, self.shadow)
        self.touched += result.touched_taint
        assert self.engine.last_touched == result.touched_taint, event
        assert self.writes == result.memory_tag_writes, event
        assert self.engine.trf.register_mask() == self.trf.register_mask()
        assert all(self.engine.trf.get(r) == self.trf.get(r)
                   for r in range(16)), event
        for access in event.memory_accesses:
            assert self.engine.shadow.get_range(
                access.address, access.size
            ) == self.shadow.get_range(access.address, access.size), event

    def finish(self):
        assert self.engine.stats.tainted_instructions == self.touched
        assert shadow_bytes(self.engine.shadow) == shadow_bytes(self.shadow)
        assert (self.engine.shadow.tainted_byte_count
                == self.shadow.tainted_byte_count)


def _programs():
    programs = load_corpus(ROOT / "tests" / "corpus")
    programs += [kv_program(0), parse_program(0), image_program(0)]
    programs += [generate_program(seed) for seed in range(100)]
    return programs


def test_programs_match_the_oracle_step_by_step():
    steps = touched = 0
    for program in _programs():
        cpu = program.make_cpu()
        lockstep = Lockstep()
        cpu.attach(lockstep)
        try:
            cpu.run(200_000)
        except ExecutionError:  # compare up to the fault
            pass
        lockstep.finish()
        steps += lockstep.engine.stats.instructions
        touched += lockstep.touched
    assert 1000 < touched < steps


# ------------------------------------------------------------- rule cache


def test_rule_cache_stays_bounded():
    """10,000 distinct words, all admitted: the cache never passes 4096."""
    pipeline = StreamingPipeline(None)
    pipeline.engine.trf.taint(1)
    pipeline.latch.trf.taint(1)
    opcodes = (Opcode.ADDI, Opcode.XORI, Opcode.ORI, Opcode.ANDI)
    largest = 0
    for index in range(10_000):
        opcode = opcodes[index % len(opcodes)]
        imm = index // len(opcodes)
        word = _word(opcode, rd=1, rs1=1, imm=imm)
        pc = 0x1000 + 4 * index
        pipeline.on_step(step_event(index, pc, word, None, pc + 4, None))
        largest = max(largest, len(pipeline.engine._rules))
    pipeline.finish()
    assert pipeline.engine.stats.instructions == 10_000
    assert RULE_CACHE_SIZE == 4096
    assert 0 < largest <= RULE_CACHE_SIZE
