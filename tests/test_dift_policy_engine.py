"""Policy and engine tests: sources, sinks, alerts, end-to-end flows."""

import pytest

from repro.dift.engine import DIFTEngine
from repro.dift.events import AlertKind, SecurityException
from repro.dift.policy import TaintPolicy, leak_detection_policy
from repro.isa.assembler import assemble
from repro.machine.cpu import CPU
from repro.machine.devices import DeviceTable, VirtualFile
from repro.machine.events import InputEvent
from repro.machine.syscalls import Syscall


def make_input(kind="file", name="f", tainted_hint=True, data=b"xy", address=0x100):
    return InputEvent(
        step_index=0,
        address=address,
        data=data,
        source_kind=kind,
        source_name=name,
        tainted_hint=tainted_hint,
    )


class TestPolicyDecisions:
    def test_default_taints_files_and_sockets(self):
        policy = TaintPolicy()
        assert policy.should_taint(make_input("file"))
        assert policy.should_taint(make_input("socket"))

    def test_device_hint_respected(self):
        assert not TaintPolicy().should_taint(make_input(tainted_hint=False))

    def test_source_kind_toggles(self):
        policy = TaintPolicy(taint_files=False)
        assert not policy.should_taint(make_input("file"))
        assert policy.should_taint(make_input("socket"))

    def test_allowlist(self):
        policy = TaintPolicy(source_name_allowlist=frozenset({"evil.bin"}))
        assert policy.should_taint(make_input(name="evil.bin"))
        assert not policy.should_taint(make_input(name="good.bin"))

    def test_zero_tag_rejected(self):
        with pytest.raises(ValueError):
            TaintPolicy(taint_tag=0)


class TestEngineInitialisation:
    def test_tainted_input_sets_shadow(self):
        engine = DIFTEngine()
        engine.on_input(make_input(data=b"abcd", address=0x2000))
        assert engine.shadow.all_tainted(0x2000, 4)
        assert engine.stats.taint_source_bytes == 4

    def test_trusted_input_clears_previous_taint(self):
        engine = DIFTEngine()
        engine.on_input(make_input(data=b"abcd", address=0x2000))
        engine.on_input(make_input(data=b"wxyz", address=0x2000, tainted_hint=False))
        assert not engine.shadow.any_tainted(0x2000, 4)

    def test_tag_listener_sees_inputs_and_clears(self):
        engine = DIFTEngine()
        writes = []
        engine.add_tag_listener(lambda addr, tags: writes.append((addr, tags)))
        engine.on_input(make_input(data=b"ab", address=0x10))
        engine.on_input(make_input(data=b"ab", address=0x10, tainted_hint=False))
        assert writes == [(0x10, b"\x01\x01"), (0x10, b"\x00\x00")]

    def test_manual_taint_region(self):
        engine = DIFTEngine()
        engine.taint_region(0x500, 3)
        assert engine.shadow.all_tainted(0x500, 3)
        engine.clear_region(0x500, 3)
        assert not engine.shadow.any_tainted(0x500, 3)


class TestEndToEndDetection:
    def _run_attack(self, policy=None):
        source = """
        .data
path: .asciiz "in"
buf:  .space 8
        .text
_start:
    li r3, 3
    li r4, path
    syscall
    mv r10, r3
    li r3, 1
    mv r4, r10
    li r5, buf
    li r6, 4
    syscall
    li r8, buf
    lw r9, 0(r8)
    jalr r1, 0(r9)
    halt
"""
        devices = DeviceTable()
        # Hijack target outside the text section: execution faults right
        # after the (detected) tainted jump.
        devices.register_file(VirtualFile("in", (0x2000).to_bytes(4, "little")))
        cpu = CPU(assemble(source), devices=devices)
        engine = DIFTEngine(policy)
        cpu.attach(engine)
        try:
            cpu.run(1000)
        except Exception:
            pass
        return engine

    def test_tainted_jump_detected(self):
        engine = self._run_attack()
        assert [a.kind for a in engine.alerts] == [AlertKind.TAINTED_JUMP]
        assert engine.stats.alert_count == 1

    def test_tainted_return_classified_separately(self):
        engine = DIFTEngine()
        from repro.isa.instructions import Instruction, Opcode
        from repro.machine.events import StepEvent

        engine.trf.taint(1)  # ra
        engine.on_step(
            StepEvent(
                index=0,
                pc=0,
                instruction=Instruction(Opcode.JALR, rd=0, rs1=1, imm=0),
                regs_read=(1,),
                next_pc=0,
            )
        )
        assert engine.alerts[0].kind == AlertKind.TAINTED_RETURN

    def test_jump_check_can_be_disabled(self):
        engine = self._run_attack(TaintPolicy(check_jump_targets=False))
        assert engine.alerts == []

    def test_stop_on_alert_raises(self):
        policy = TaintPolicy(stop_on_alert=True)
        with pytest.raises(SecurityException):
            source = """
            .data
p: .asciiz "in"
b: .space 4
            .text
_start:
    li r3, 3
    li r4, p
    syscall
    mv r10, r3
    li r3, 1
    mv r4, r10
    li r5, b
    li r6, 4
    syscall
    li r8, b
    lw r9, 0(r8)
    jalr r1, 0(r9)
    halt
"""
            devices = DeviceTable()
            devices.register_file(VirtualFile("in", b"\x00\x10\x00\x00"))
            cpu = CPU(assemble(source), devices=devices)
            cpu.attach(DIFTEngine(policy))
            cpu.run(1000)

    def test_protected_syscall_arg(self):
        # Tainted bytes used to build an OPEN path argument.
        source = """
        .data
p: .asciiz "in"
b: .space 8
        .text
_start:
    li r3, 3
    li r4, p
    syscall
    mv r10, r3
    li r3, 1
    mv r4, r10
    li r5, b
    li r6, 4
    syscall
    li r8, b
    lw r9, 0(r8)
    li r3, 3
    mv r4, r9        # tainted argument to OPEN
    syscall
    halt
"""
        devices = DeviceTable()
        devices.register_file(VirtualFile("in", b"\x01\x02\x03\x04"))
        cpu = CPU(assemble(source), devices=devices)
        engine = DIFTEngine(TaintPolicy(
            check_syscall_args=True,
            protected_syscalls=frozenset({int(Syscall.OPEN)}),
        ))
        cpu.attach(engine)
        try:
            cpu.run(1000)
        except Exception:
            pass
        assert AlertKind.TAINTED_SYSCALL_ARG in [a.kind for a in engine.alerts]

    def test_leak_policy_flags_tainted_output(self):
        source = """
        .data
p: .asciiz "in"
b: .space 8
        .text
_start:
    li r3, 3
    li r4, p
    syscall
    mv r10, r3
    li r3, 1
    mv r4, r10
    li r5, b
    li r6, 4
    syscall
    li r3, 2          # WRITE to console
    li r4, 0
    li r5, b
    li r6, 4
    syscall
    halt
"""
        devices = DeviceTable()
        devices.register_file(VirtualFile("in", b"ssshh"))
        cpu = CPU(assemble(source), devices=devices)
        engine = DIFTEngine(leak_detection_policy())
        cpu.attach(engine)
        cpu.run(1000)
        assert [a.kind for a in engine.alerts] == [AlertKind.TAINTED_OUTPUT]

    def test_stats_fraction(self):
        engine = self._run_attack()
        assert 0 < engine.stats.tainted_fraction < 1
