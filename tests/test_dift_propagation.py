"""Rule-by-rule tests of the classical DTA propagation.

Each step is built by :func:`repro.machine.cpu.step_event`, so it reads
and writes exactly the registers a committed step of its instruction
does.  :func:`propagate` applies the generic oracle and checks that the
engine's compiled rule leaves the same state.
"""

import copy

from repro.dift.propagation import compile_rule
from repro.dift.tags import ShadowMemory, TaintRegisterFile
from repro.isa.instructions import Instruction, Opcode
from repro.machine.cpu import instruction_word, step_event
from tests.propagation_oracle import propagate as oracle


def step(instruction, address=None, syscall_number=None):
    return step_event(
        0, 0x1000, instruction_word(instruction), address, 0x1004,
        syscall_number,
    )


def propagate(event, trf, shadow):
    """The oracle's result, after checking the compiled rule agrees."""
    rule_trf, rule_shadow = copy.deepcopy(trf), copy.deepcopy(shadow)
    writes = []
    rule = compile_rule(
        event.instruction, rule_trf, rule_shadow,
        lambda address, tags: writes.append((address, tags)),
    )
    touched = rule(event)
    result = oracle(event, trf, shadow)
    assert touched == result.touched_taint
    assert writes == result.memory_tag_writes
    assert [rule_trf.get(r) for r in range(16)] == [
        trf.get(r) for r in range(16)]
    assert sorted(rule_shadow.iter_tainted_bytes()) == sorted(
        shadow.iter_tainted_bytes()
    )
    for address in shadow.iter_tainted_bytes():
        assert rule_shadow.get(address) == shadow.get(address)
    return result


class TestAluRules:
    def test_union_of_sources(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(1)
        result = propagate(
            step(Instruction(Opcode.ADD, rd=3, rs1=1, rs2=2)), trf, shadow
        )
        assert trf.is_tainted(3)
        assert result.touched_taint and result.tainted_sources

    def test_clean_sources_clear_destination(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(3)  # stale
        result = propagate(
            step(Instruction(Opcode.ADD, rd=3, rs1=1, rs2=2)), trf, shadow
        )
        assert not trf.is_tainted(3)
        assert not result.touched_taint

    def test_xor_same_register_clears(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(5)
        propagate(step(Instruction(Opcode.XOR, rd=5, rs1=5, rs2=5)), trf, shadow)
        assert not trf.is_tainted(5)

    def test_sub_same_register_clears(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(5)
        propagate(step(Instruction(Opcode.SUB, rd=6, rs1=5, rs2=5)), trf, shadow)
        assert not trf.is_tainted(6)

    def test_immediate_copies_source(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.set(1, b"\x01\x01\x00\x00")
        propagate(step(Instruction(Opcode.ADDI, rd=2, rs1=1, imm=4)), trf, shadow)
        assert trf.get(2) == b"\x01\x01\x00\x00"

    def test_lui_clears(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(4)
        propagate(step(Instruction(Opcode.LUI, rd=4, imm=1)), trf, shadow)
        assert not trf.is_tainted(4)


class TestMemoryRules:
    def test_load_pulls_shadow_tags(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        shadow.set_range(0x100, 4, 1)
        event = step(Instruction(Opcode.LW, rd=2, rs1=1, imm=0), 0x100)
        result = propagate(event, trf, shadow)
        assert trf.get(2) == b"\x01\x01\x01\x01"
        assert result.touched_taint
        assert result.register_tag_writes == [(2, b"\x01\x01\x01\x01")]

    def test_partial_load_taint(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        shadow.set(0x101, 1)  # only second byte
        event = step(Instruction(Opcode.LW, rd=2, rs1=1, imm=0), 0x100)
        propagate(event, trf, shadow)
        assert trf.get(2) == b"\x00\x01\x00\x00"

    def test_signed_byte_load_extends_taint(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        shadow.set(0x100, 1)
        event = step(Instruction(Opcode.LB, rd=2, rs1=1, imm=0), 0x100)
        propagate(event, trf, shadow)
        # Sign-extension bytes inherit the top byte's tag.
        assert trf.get(2) == b"\x01\x01\x01\x01"

    def test_unsigned_byte_load_does_not_extend(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        shadow.set(0x100, 1)
        event = step(Instruction(Opcode.LBU, rd=2, rs1=1, imm=0), 0x100)
        propagate(event, trf, shadow)
        assert trf.get(2) == b"\x01\x00\x00\x00"

    def test_clean_load_clears_destination(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(2)
        event = step(Instruction(Opcode.LW, rd=2, rs1=1, imm=0), 0x200)
        result = propagate(event, trf, shadow)
        assert not trf.is_tainted(2)
        assert not result.touched_taint

    def test_store_writes_tags(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.set(2, b"\x01\x01\x00\x00")
        event = step(Instruction(Opcode.SW, rs1=1, rs2=2, imm=0), 0x300)
        result = propagate(event, trf, shadow)
        assert shadow.get_range(0x300, 4) == b"\x01\x01\x00\x00"
        assert result.touched_taint
        assert result.memory_tag_writes == [(0x300, b"\x01\x01\x00\x00")]

    def test_clean_store_over_tainted_bytes_clears_and_counts(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        shadow.set_range(0x300, 4, 1)
        event = step(Instruction(Opcode.SW, rs1=1, rs2=2, imm=0), 0x300)
        result = propagate(event, trf, shadow)
        assert not shadow.any_tainted(0x300, 4)
        # The store touched tainted memory (it cleared it).
        assert result.touched_taint

    def test_narrow_store_only_covers_its_bytes(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(2)
        event = step(Instruction(Opcode.SB, rs1=1, rs2=2, imm=0), 0x400)
        propagate(event, trf, shadow)
        assert shadow.get(0x400) == 1
        assert shadow.get(0x401) == 0


class TestControlAndSpecialRules:
    def test_branches_do_not_propagate(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(1)
        result = propagate(
            step(Instruction(Opcode.BEQ, rs1=1, rs2=2, imm=8)), trf, shadow
        )
        assert result.touched_taint  # reading a tainted register counts
        assert result.register_tag_writes == []

    def test_jal_clears_link_register(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(1)
        propagate(step(Instruction(Opcode.JAL, rd=1, imm=8)), trf, shadow)
        assert not trf.is_tainted(1)

    def test_jalr_flags_tainted_source(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(5)
        result = propagate(
            step(Instruction(Opcode.JALR, rd=1, rs1=5, imm=0)), trf, shadow
        )
        assert result.tainted_sources

    def test_stnt_not_counted_as_application_taint(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(1)
        result = propagate(
            step(Instruction(Opcode.STNT, rs1=1, rs2=2)), trf, shadow
        )
        assert not result.touched_taint

    def test_ltnt_destination_untainted(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(3)
        propagate(step(Instruction(Opcode.LTNT, rd=3)), trf, shadow)
        assert not trf.is_tainted(3)

    def test_nop_touches_nothing(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        result = propagate(step(Instruction(Opcode.NOP)), trf, shadow)
        assert not result.touched_taint
        assert result.memory_tag_writes == []
        assert result.register_tag_writes == []

    def test_syscall_reads_its_argument_registers(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(6)
        event = step(Instruction(Opcode.SYSCALL), syscall_number=1)
        assert (event.regs_read, event.regs_written) == ((3, 4, 5, 6), (3,))
        result = propagate(event, trf, shadow)
        assert result.touched_taint
        assert result.register_tag_writes == []
        assert trf.is_tainted(6)

    def test_syscall_ignores_other_registers(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(7)
        result = propagate(
            step(Instruction(Opcode.SYSCALL), syscall_number=1), trf, shadow
        )
        assert not result.touched_taint

    def test_jal_to_r0_writes_no_register(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(1)
        event = step(Instruction(Opcode.JAL, rd=0, imm=8))
        assert (event.regs_read, event.regs_written) == ((), ())
        result = propagate(event, trf, shadow)
        assert not result.touched_taint
        assert result.register_tag_writes == []
        assert trf.is_tainted(1)

    def test_jalr_to_r0_reads_only_its_target(self):
        trf, shadow = TaintRegisterFile(), ShadowMemory()
        trf.taint(5)
        event = step(Instruction(Opcode.JALR, rd=0, rs1=5, imm=0))
        assert (event.regs_read, event.regs_written) == ((5,), ())
        result = propagate(event, trf, shadow)
        assert result.touched_taint
        assert result.register_tag_writes == []
        assert trf.is_tainted(5)
