"""CPU semantics tests: ALU, control flow, memory, events, observers."""

import pytest
from hypothesis import given, strategies as st

from repro.isa.assembler import TEXT_BASE, assemble
from repro.machine.cpu import CPU, ExecutionError
from repro.machine.events import Observer

_U32 = st.integers(min_value=0, max_value=0xFFFFFFFF)


def run_fragment(body: str, max_steps: int = 10_000) -> CPU:
    cpu = CPU(assemble(body + "\nhalt\n"))
    cpu.run(max_steps)
    return cpu


def _signed(value: int) -> int:
    return value - (1 << 32) if value & 0x8000_0000 else value


class TestALU:
    def test_add_sub(self):
        cpu = run_fragment("li r1, 7\nli r2, 5\nadd r3, r1, r2\nsub r4, r1, r2")
        assert cpu.registers[3] == 12
        assert cpu.registers[4] == 2

    def test_wraparound(self):
        cpu = run_fragment("li r1, 0xFFFFFFFF\naddi r2, r1, 1")
        assert cpu.registers[2] == 0

    def test_logic_ops(self):
        cpu = run_fragment(
            "li r1, 0xF0F0\nli r2, 0x0FF0\n"
            "and r3, r1, r2\nor r4, r1, r2\nxor r5, r1, r2"
        )
        assert cpu.registers[3] == 0x00F0
        assert cpu.registers[4] == 0xFFF0
        assert cpu.registers[5] == 0xFF00

    def test_shifts(self):
        cpu = run_fragment(
            "li r1, 0x80000000\nsrli r2, r1, 4\nsrai r3, r1, 4\n"
            "li r4, 1\nslli r5, r4, 31"
        )
        assert cpu.registers[2] == 0x0800_0000
        assert cpu.registers[3] == 0xF800_0000
        assert cpu.registers[5] == 0x8000_0000

    def test_slt_signed_vs_unsigned(self):
        cpu = run_fragment(
            "li r1, 0xFFFFFFFF\nli r2, 1\n"
            "slt r3, r1, r2\nsltu r4, r1, r2"
        )
        assert cpu.registers[3] == 1  # -1 < 1 signed
        assert cpu.registers[4] == 0  # 0xFFFFFFFF > 1 unsigned

    def test_mul_div_rem(self):
        cpu = run_fragment(
            "li r1, -7\nli r2, 2\nmul r3, r1, r2\ndiv r4, r1, r2\nrem r5, r1, r2"
        )
        assert _signed(cpu.registers[3]) == -14
        assert _signed(cpu.registers[4]) == -3  # truncated toward zero
        assert _signed(cpu.registers[5]) == -1

    def test_division_by_zero_raises(self):
        with pytest.raises(ExecutionError):
            run_fragment("li r1, 1\ndiv r2, r1, r0")

    def test_r0_hardwired_zero(self):
        cpu = run_fragment("addi r0, r0, 5\nadd r1, r0, r0")
        assert cpu.registers[0] == 0
        assert cpu.registers[1] == 0

    @given(_U32, _U32)
    def test_add_matches_python(self, a, b):
        cpu = CPU(assemble("add r3, r1, r2\nhalt"))
        cpu.registers[1] = a
        cpu.registers[2] = b
        cpu.run()
        assert cpu.registers[3] == (a + b) & 0xFFFFFFFF

    @given(_U32, st.integers(min_value=0, max_value=31))
    def test_sra_matches_python(self, a, shift):
        cpu = CPU(assemble("sra r3, r1, r2\nhalt"))
        cpu.registers[1] = a
        cpu.registers[2] = shift
        cpu.run()
        assert cpu.registers[3] == (_signed(a) >> shift) & 0xFFFFFFFF


class TestControlFlow:
    def test_loop_sums_1_to_10(self):
        cpu = run_fragment(
            "li r1, 10\nli r2, 0\nloop: add r2, r2, r1\n"
            "addi r1, r1, -1\nbne r1, r0, loop"
        )
        assert cpu.registers[2] == 55

    def test_branch_signed_comparison(self):
        cpu = run_fragment(
            "li r1, -1\nli r2, 1\nli r3, 0\n"
            "bge r1, r2, skip\nli r3, 42\nskip:"
        )
        assert cpu.registers[3] == 42

    def test_bltu_unsigned(self):
        cpu = run_fragment(
            "li r1, 0xFFFFFFFF\nli r2, 1\nli r3, 0\n"
            "bltu r1, r2, skip\nli r3, 9\nskip:"
        )
        assert cpu.registers[3] == 9

    def test_jal_links_return_address(self):
        cpu = run_fragment("call f\nj end\nf: li r5, 3\nret\nend:")
        assert cpu.registers[5] == 3

    def test_jalr_target_word_aligned(self):
        cpu = CPU(assemble("li r1, 0x1009\njalr r0, 0(r1)\nnop\nhalt"))
        cpu.step()
        cpu.step()
        event = cpu.step()  # the jalr lands at 0x1008, its own address+?
        assert cpu.pc % 4 == 0

    def test_bad_pc_raises(self):
        cpu = CPU(assemble("li r1, 0x9000\njalr r0, 0(r1)"))
        cpu.run(2 + 1)
        with pytest.raises(ExecutionError):
            cpu.step()

    def test_step_after_halt_raises(self):
        cpu = run_fragment("nop")
        with pytest.raises(ExecutionError):
            cpu.step()


class TestMemoryInstructions:
    def test_store_load_word(self):
        cpu = run_fragment("li r1, 0x3000\nli r2, 0xBEEF\nsw r2, 0(r1)\nlw r3, 0(r1)")
        assert cpu.registers[3] == 0xBEEF

    def test_lb_sign_extends(self):
        cpu = run_fragment("li r1, 0x3000\nli r2, 0x80\nsb r2, 0(r1)\nlb r3, 0(r1)")
        assert cpu.registers[3] == 0xFFFF_FF80

    def test_lbu_zero_extends(self):
        cpu = run_fragment("li r1, 0x3000\nli r2, 0x80\nsb r2, 0(r1)\nlbu r3, 0(r1)")
        assert cpu.registers[3] == 0x80

    def test_lh_sign_extends(self):
        cpu = run_fragment(
            "li r1, 0x3000\nli r2, 0x8001\nsh r2, 0(r1)\nlh r3, 0(r1)"
        )
        assert cpu.registers[3] == 0xFFFF_8001

    def test_data_section_loaded(self):
        cpu = CPU(assemble(".data\nv: .word 77\n.text\n_start:\nla r1, v\nlw r2, 0(r1)\nhalt"))
        cpu.run()
        assert cpu.registers[2] == 77


class TestEventsAndObservers:
    def test_step_event_fields(self):
        cpu = CPU(assemble("li r1, 0x3000\nsw r2, 4(r1)\nhalt"))
        cpu.step()  # lui
        cpu.step()  # ori
        event = cpu.step()  # sw
        assert event.writes[0].address == 0x3004
        assert event.writes[0].size == 4
        assert event.writes[0].is_write
        assert set(event.regs_read) == {1, 2}
        assert event.next_pc == event.pc + 4

    def test_register_use_per_opcode(self):
        # regs_read / regs_written are fixed by the encoding: a link
        # register is reported only when it is not r0, and SYSCALL
        # reports its fixed argument/result registers.
        program = assemble(
            "add r3, r1, r2\naddi r3, r1, 5\nlui r3, 1\n"
            "lw r3, 0(r2)\nsw r4, 0(r2)\nbeq r1, r2, next\n"
            "next: jal r0, j1\nj1: jal ra, j2\nj2: lui r6, 0\n"
            "jalr r0, 0(r6)\n"
        )
        expected = [
            ((1, 2), (3,)), ((1,), (3,)), ((), (3,)), ((2,), (3,)),
            ((2, 4), ()), ((1, 2), ()), ((), ()), ((), (1,)), ((), (6,)),
            ((6,), ()),
        ]
        cpu = CPU(program)
        cpu.registers[2] = 0x3000
        events = [cpu.step() for _ in expected]
        assert [(e.regs_read, e.regs_written) for e in events] == expected
        assert [len(e.reads) for e in events][3] == 1
        assert [len(e.writes) for e in events][4] == 1
        assert all(e.syscall_number is None for e in events)

        cpu = CPU(assemble(
            "strf r1\nstnt r1, r2\nltnt r3\njalr ra, 0(r1)\n"
            "addi r3, r0, 9\nsyscall\nnop\nhalt"
        ))
        cpu.registers[1] = cpu.pc + 16
        events = [cpu.step() for _ in range(8)]
        assert [(e.regs_read, e.regs_written) for e in events] == [
            ((1,), ()), ((1, 2), ()), ((), (3,)), ((1,), (1,)),
            ((0,), (3,)), ((3, 4, 5, 6), (3,)), ((), ()), ((), ()),
        ]
        assert events[5].syscall_number == 9
        assert cpu.halted

    def test_branch_event_next_pc(self):
        cpu = CPU(assemble("beq r0, r0, target\nnop\ntarget: halt"))
        event = cpu.step()
        assert event.next_pc == TEXT_BASE + 8

    def test_observer_sees_every_step_and_halt(self):
        seen = {"steps": 0, "halts": 0}

        class Counter(Observer):
            def on_step(self, event):
                seen["steps"] += 1

            def on_halt(self, step_index):
                seen["halts"] += 1

        cpu = CPU(assemble("nop\nnop\nhalt"))
        cpu.attach(Counter())
        cpu.run()
        assert seen == {"steps": 3, "halts": 1}

    def test_detach(self):
        class Boom(Observer):
            def on_step(self, event):
                raise AssertionError("should not run")

        cpu = CPU(assemble("nop\nhalt"))
        observer = Boom()
        cpu.attach(observer)
        cpu.detach(observer)
        cpu.run()

    def test_run_respects_max_steps(self):
        cpu = CPU(assemble("loop: j loop"))
        executed = cpu.run(max_steps=25)
        assert executed == 25
        assert not cpu.halted
