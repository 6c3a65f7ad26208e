"""Binary encoding round-trip tests, including property-based coverage."""

import pytest
from hypothesis import given, strategies as st

from repro.isa.encoding import (
    EncodingError,
    decode,
    decode_program,
    encode,
    encode_program,
)
from repro.isa.assembler import AssemblyError, assemble
from repro.isa.instructions import (
    LOGICAL_IMM_OPCODES,
    OPCODE_FORMAT,
    Format,
    Instruction,
    Opcode,
)
from repro.workloads import attacks, programs

_REG = st.integers(min_value=0, max_value=15)


def _instruction_strategy():
    """Generate arbitrary well-formed instructions."""

    def build(opcode, rd, rs1, rs2, imm12, imm16, imm20):
        fmt = OPCODE_FORMAT[opcode]
        if fmt == Format.R:
            return Instruction(opcode, rd=rd, rs1=rs1, rs2=rs2)
        if fmt == Format.I:
            if opcode == Opcode.LTNT:
                return Instruction(opcode, rd=rd)
            if opcode in LOGICAL_IMM_OPCODES:
                return Instruction(opcode, rd=rd, rs1=rs1, imm=imm16 & 0xFFFF)
            return Instruction(opcode, rd=rd, rs1=rs1, imm=imm16)
        if fmt in (Format.S, Format.B):
            return Instruction(opcode, rs1=rs1, rs2=rs2, imm=imm12)
        if fmt == Format.J:
            return Instruction(opcode, rd=rd, imm=imm20 * 4)
        if fmt == Format.U:
            return Instruction(opcode, rd=rd, imm=imm16 & 0xFFFF)
        if opcode == Opcode.STRF:
            return Instruction(opcode, rs1=rs1)
        return Instruction(opcode)

    return st.builds(
        build,
        st.sampled_from(list(Opcode)),
        _REG,
        _REG,
        _REG,
        st.integers(min_value=-(1 << 11), max_value=(1 << 11) - 1),
        st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1),
        st.integers(min_value=-(1 << 19), max_value=(1 << 19) - 1),
    )


#: Any field values at all, valid or not, biased to the field edges.
_MAYBE_REG = st.one_of(st.none(), st.integers(min_value=-1, max_value=16))
_WILD_INSTRUCTION = st.builds(
    Instruction,
    st.sampled_from(list(Opcode)),
    rd=_MAYBE_REG,
    rs1=_MAYBE_REG,
    rs2=_MAYBE_REG,
    imm=st.one_of(
        st.integers(min_value=-(1 << 22), max_value=1 << 22),
        st.sampled_from(sorted({
            sign * edge + delta
            for edge in (0, 1 << 11, 1 << 15, 1 << 16, 1 << 21)
            for sign in (1, -1)
            for delta in (-1, 0, 1)
        })),
    ),
)


class TestValidationIsEncodability:
    """``Instruction.validate`` holds every range check: an instruction
    encodes exactly when it validates, and then round-trips exactly."""

    @given(st.one_of(_instruction_strategy(), _WILD_INSTRUCTION))
    def test_validates_iff_it_encodes_and_round_trips(self, instruction):
        try:
            instruction.validate()
        except ValueError:
            with pytest.raises(EncodingError):
                encode(instruction)
            return
        assert decode(encode(instruction)) == instruction

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_every_decodable_word_validates(self, word):
        try:
            instruction = decode(word)
        except EncodingError:
            return
        instruction.validate()
        assert decode(encode(instruction)) == instruction

    @pytest.mark.parametrize("source", [
        "sw r1, 3000(r2)",
        "beq r1, r2, 5000",
        "jal r1, 6",
        "jal r1, 4194304",
        "addi r1, r2, 100000",
    ])
    def test_assembler_rejects_what_the_encoder_rejects(self, source):
        with pytest.raises(AssemblyError, match="line 1"):
            assemble(source + "\nhalt")


class TestRoundTrip:
    @given(_instruction_strategy())
    def test_encode_decode_roundtrip(self, instruction):
        word = encode(instruction)
        assert 0 <= word < (1 << 32)
        decoded = decode(word)
        assert decoded.opcode == instruction.opcode
        fmt = instruction.format
        if fmt in (Format.R, Format.I, Format.J, Format.U):
            assert decoded.rd == instruction.rd
        if fmt in (Format.S, Format.B):
            assert decoded.rs1 == instruction.rs1
            assert decoded.rs2 == instruction.rs2
            assert decoded.imm == instruction.imm
        if fmt in (Format.I, Format.J, Format.U) and instruction.opcode not in (
            Opcode.LTNT,
        ):
            assert decoded.imm == (
                instruction.imm & 0xFFFF
                if fmt == Format.U
                else instruction.imm
            )

    def test_specific_encodings_stable(self):
        # The binary format is ABI-stable; pin a few exact words.
        assert encode(Instruction(Opcode.NOP)) == 0x00000000
        assert encode(Instruction(Opcode.HALT)) == 0x3F000000
        word = encode(Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3))
        assert word == (0x01 << 24) | (1 << 20) | (2 << 16) | (3 << 12)

    def test_negative_immediates_sign_extend(self):
        decoded = decode(encode(Instruction(Opcode.ADDI, rd=1, rs1=1, imm=-5)))
        assert decoded.imm == -5

    def test_store_negative_offset(self):
        decoded = decode(encode(Instruction(Opcode.SW, rs1=2, rs2=3, imm=-8)))
        assert decoded.imm == -8 and decoded.rs1 == 2 and decoded.rs2 == 3

    def test_jal_offset_scaling(self):
        decoded = decode(encode(Instruction(Opcode.JAL, rd=1, imm=-1024)))
        assert decoded.imm == -1024


#: One line per real mnemonic (every opcode the assembler can emit),
#: with ``{imm}``-style holes the property test fills in.
_EVERY_MNEMONIC = """
    add  r1, r2, r3
    sub  r1, r2, r3
    and  r1, r2, r3
    or   r1, r2, r3
    xor  r1, r2, r3
    sll  r1, r2, r3
    srl  r1, r2, r3
    sra  r1, r2, r3
    slt  r1, r2, r3
    sltu r1, r2, r3
    mul  r1, r2, r3
    div  r1, r2, r3
    rem  r1, r2, r3
    addi r4, r5, {simm}
    andi r4, r5, {uimm}
    ori  r4, r5, {uimm}
    xori r4, r5, {uimm}
    slli r4, r5, 3
    srli r4, r5, 3
    srai r4, r5, 3
    slti r4, r5, {simm}
    lui  r6, {uimm}
    lb   r7, {simm}(r8)
    lbu  r7, {simm}(r8)
    lh   r7, {simm}(r8)
    lhu  r7, {simm}(r8)
    lw   r7, {simm}(r8)
    sb   r7, {disp}(r8)
    sh   r7, {disp}(r8)
    sw   r7, {disp}(r8)
    jalr r1, {simm}(r2)
    stnt r9, r10
    strf r11
    ltnt r12
    nop
    syscall
    beq  r1, r2, _start
    bne  r1, r2, _start
    blt  r1, r2, _start
    bge  r1, r2, _start
    bltu r1, r2, _start
    bgeu r1, r2, _start
    jal  r1, _start
    mv   r3, r4
    halt
"""


def _roundtrips(program):
    for instruction in program.instructions:
        assert decode(encode(instruction)) == instruction, str(instruction)


class TestAssemblerRoundTrip:
    """decode(encode(i)) == i for every instruction the assembler emits."""

    @given(
        st.lists(
            st.integers(min_value=-(1 << 31), max_value=(1 << 32) - 1),
            min_size=1, max_size=8,
        ),
        st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1),
        st.integers(min_value=0, max_value=0xFFFF),
        st.integers(min_value=-(1 << 11), max_value=(1 << 11) - 1),
    )
    def test_li_over_the_full_32_bit_range(self, values, simm, uimm, disp):
        lines = ["    .data", "sym: .word 0", "    .text", "_start:"]
        lines += [f"    li   r{1 + i % 15}, {v}" for i, v in enumerate(values)]
        lines.append("    la   r2, sym")
        lines.append(_EVERY_MNEMONIC.format(simm=simm, uimm=uimm, disp=disp))
        program = assemble("\n".join(lines))
        emitted = {i.opcode for i in program.instructions}
        assert emitted == set(Opcode)
        _roundtrips(program)

    @pytest.mark.parametrize("value", [0x8000, 0xC350, 0xFFFF, 0xFFFFFFFF,
                                       4294967294, -1, -32768])
    def test_li_low_half_at_or_above_0x8000(self, value):
        _roundtrips(assemble(f"_start:\n    li r14, {value}\n    halt\n"))

    @pytest.mark.parametrize("build", [
        programs.file_filter,
        programs.checksum,
        programs.substitution_cipher,
        programs.echo_server,
        lambda: programs.phased_compute(clean_iterations=50000),
        attacks.buffer_overflow,
        attacks.data_leak,
    ], ids=["file_filter", "checksum", "cipher", "echo_server",
            "phased_50000", "overflow", "leak"])
    def test_shipped_programs(self, build):
        _roundtrips(build().program)

    def test_logical_immediates_zero_extend(self):
        for opcode in LOGICAL_IMM_OPCODES:
            word = encode(Instruction(opcode, rd=1, rs1=2, imm=0xFFFF))
            assert decode(word).imm == 0xFFFF
        assert decode(encode(
            Instruction(Opcode.ADDI, rd=1, rs1=2, imm=-1)
        )).imm == -1

    def test_negative_logical_immediate_rejected(self):
        with pytest.raises(ValueError):
            encode(Instruction(Opcode.ORI, rd=1, rs1=1, imm=-1))
        with pytest.raises(ValueError):
            encode(Instruction(Opcode.ANDI, rd=1, rs1=1, imm=0x10000))


class TestErrors:
    def test_unknown_opcode_byte(self):
        with pytest.raises(EncodingError):
            decode(0xEE000000)

    def test_unaligned_jump_offset_rejected(self):
        with pytest.raises(EncodingError):
            encode(Instruction(Opcode.JAL, rd=1, imm=6))

    def test_store_immediate_out_of_12_bits(self):
        with pytest.raises(EncodingError):
            encode(Instruction(Opcode.SW, rs1=1, rs2=2, imm=4096))

    def test_malformed_instruction_rejected(self):
        with pytest.raises(ValueError):
            encode(Instruction(Opcode.ADD, rd=1))


class TestProgramBlobs:
    def test_encode_decode_program(self):
        instructions = [
            Instruction(Opcode.ADDI, rd=1, rs1=0, imm=5),
            Instruction(Opcode.ADD, rd=2, rs1=1, rs2=1),
            Instruction(Opcode.HALT),
        ]
        blob = encode_program(instructions)
        assert len(blob) == 12
        decoded = decode_program(blob)
        assert [i.opcode for i in decoded] == [i.opcode for i in instructions]

    def test_misaligned_blob_rejected(self):
        with pytest.raises(EncodingError):
            decode_program(b"\x00\x01\x02")
