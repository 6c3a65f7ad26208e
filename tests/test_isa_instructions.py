"""Unit tests for instruction definitions and field validation."""

import pytest

from repro.isa.instructions import (
    Format,
    Instruction,
    Opcode,
    OPCODE_FORMAT,
    REGISTER_COUNT,
    REGISTER_NAMES,
    register_number,
)


class TestRegisterNames:
    def test_register_count(self):
        assert REGISTER_COUNT == 16
        assert len(REGISTER_NAMES) == 16

    def test_numeric_names(self):
        for index in range(16):
            assert register_number(f"r{index}") == index

    def test_aliases(self):
        assert register_number("zero") == 0
        assert register_number("ra") == 1
        assert register_number("sp") == 2
        assert register_number("a0") == 3

    def test_case_insensitive(self):
        assert register_number("R7") == 7
        assert register_number("SP") == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            register_number("r16")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            register_number("rx")
        with pytest.raises(ValueError):
            register_number("")


class TestFormats:
    def test_every_opcode_has_format(self):
        for opcode in Opcode:
            assert opcode in OPCODE_FORMAT

    def test_alu_reg_is_r_format(self):
        assert Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3).format == Format.R

    def test_load_is_i_format(self):
        assert Instruction(Opcode.LW, rd=1, rs1=2).format == Format.I

    def test_store_is_s_format(self):
        assert Instruction(Opcode.SW, rs1=1, rs2=2).format == Format.S

    def test_branch_is_b_format(self):
        assert Instruction(Opcode.BEQ, rs1=1, rs2=2).format == Format.B

    def test_jal_is_j_format(self):
        assert Instruction(Opcode.JAL, rd=1).format == Format.J

    def test_latch_instructions_present(self):
        # Table 5 of the paper: strf, stnt, ltnt.
        assert Opcode.STRF in Opcode
        assert Opcode.STNT in Opcode
        assert Opcode.LTNT in Opcode


class TestInstructionProperties:
    def test_load_properties(self):
        instr = Instruction(Opcode.LW, rd=1, rs1=2, imm=8)
        assert instr.is_load and not instr.is_store
        assert instr.is_memory_access
        assert instr.memory_size == 4

    def test_store_properties(self):
        instr = Instruction(Opcode.SB, rs1=1, rs2=2)
        assert instr.is_store and not instr.is_load
        assert instr.memory_size == 1

    def test_halfword_sizes(self):
        assert Instruction(Opcode.LH, rd=1, rs1=1).memory_size == 2
        assert Instruction(Opcode.SH, rs1=1, rs2=1).memory_size == 2

    def test_alu_is_not_memory(self):
        instr = Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3)
        assert not instr.is_memory_access
        assert instr.memory_size == 0

    def test_branch_and_jump_flags(self):
        assert Instruction(Opcode.BNE, rs1=1, rs2=2).is_branch
        assert Instruction(Opcode.JAL, rd=0).is_jump
        assert Instruction(Opcode.JALR, rd=0, rs1=1).is_control_flow
        assert not Instruction(Opcode.ADD, rd=1, rs1=1, rs2=1).is_control_flow


class TestValidation:
    def test_r_format_requires_all_registers(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.ADD, rd=1, rs1=2).validate()

    def test_register_range_checked(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.ADD, rd=16, rs1=0, rs2=0).validate()

    def test_i_format_immediate_range(self):
        Instruction(Opcode.ADDI, rd=1, rs1=1, imm=32767).validate()
        with pytest.raises(ValueError):
            Instruction(Opcode.ADDI, rd=1, rs1=1, imm=32768).validate()
        with pytest.raises(ValueError):
            Instruction(Opcode.ADDI, rd=1, rs1=1, imm=-32769).validate()

    def test_u_format_immediate_unsigned(self):
        Instruction(Opcode.LUI, rd=1, imm=0xFFFF).validate()
        with pytest.raises(ValueError):
            Instruction(Opcode.LUI, rd=1, imm=-1).validate()

    def test_ltnt_needs_only_rd(self):
        Instruction(Opcode.LTNT, rd=3).validate()

    def test_strf_needs_rs1(self):
        Instruction(Opcode.STRF, rs1=4).validate()
        with pytest.raises(ValueError):
            Instruction(Opcode.STRF).validate()

    def test_str_rendering_roundtrips_through_disassembler(self):
        text = str(Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3))
        assert text == "add r1, r2, r3"
