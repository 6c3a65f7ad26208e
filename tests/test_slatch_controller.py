"""Functional S-LATCH tests: mode switching, screening, ISA hooks."""

import dataclasses

from repro.isa.assembler import assemble
from repro.machine.cpu import CPU
from repro.slatch.controller import Mode, SLatchSystem
from repro.slatch.costs import SLatchCostModel
from repro.workloads.programs import file_filter, phased_compute


def make_system(scenario, timeout=1000):
    cpu = scenario.make_cpu()
    costs = dataclasses.replace(SLatchCostModel(), timeout_instructions=timeout)
    system = SLatchSystem(cpu, costs=costs)
    return cpu, system


class TestModeSwitching:
    def test_starts_in_hardware_mode(self):
        cpu, system = make_system(phased_compute())
        assert system.mode == Mode.HARDWARE

    def test_clean_program_never_traps(self):
        cpu = CPU(assemble("li r1, 5\nli r2, 6\nadd r3, r1, r2\nhalt"))
        system = SLatchSystem(cpu)
        cpu.run()
        assert system.counters.traps == 0
        assert system.counters.sw_instructions == 0
        assert system.counters.hw_instructions == 4 + 2  # li expands to 2

    def test_taint_trap_and_timeout_return(self):
        cpu, system = make_system(phased_compute(), timeout=300)
        cpu.run()
        counters = system.counters
        assert counters.traps == 1
        assert counters.returns == 1
        assert counters.hw_instructions > 0
        assert counters.sw_instructions > 0
        assert system.mode == Mode.HARDWARE

    def test_phases_mostly_hardware(self):
        cpu, system = make_system(phased_compute(clean_iterations=2000), timeout=200)
        cpu.run()
        assert system.counters.sw_fraction < 0.25

    def test_no_timeout_keeps_software_mode(self):
        # Huge timeout: once trapped, execution stays in software.
        cpu, system = make_system(phased_compute(), timeout=10**9)
        cpu.run()
        assert system.counters.returns == 0
        assert system.mode == Mode.SOFTWARE

    def test_total_instruction_conservation(self):
        cpu, system = make_system(phased_compute())
        cpu.run()
        counters = system.counters
        assert counters.total_instructions == cpu.step_count


class TestPrecisionMaintenance:
    def test_reconcile_clears_on_return(self):
        # phased_compute clears its buffer before phase 3, so the return
        # to hardware must reconcile those domains.
        cpu, system = make_system(phased_compute(), timeout=300)
        cpu.run()
        assert system.counters.reconciled_domains >= 1
        assert system.engine.shadow.tainted_byte_count == 0

    def test_false_positive_screening(self):
        # Touch a clean byte inside a tainted domain from hardware mode.
        source = """
        .data
path: .asciiz "f"
buf:  .space 128
        .text
_start:
    li   r3, 3
    li   r4, path
    syscall
    mv   r10, r3
    li   r3, 1
    mv   r4, r10
    li   r5, buf
    li   r6, 4          # taints buf[0..4)
    syscall
    li   r7, 0
wait:                   # burn instructions so the timeout elapses in SW
    addi r7, r7, 1
    slti r8, r7, 600
    bne  r8, r0, wait
    li   r8, buf
    lbu  r9, 32(r8)     # clean byte, same 64-byte domain: FP in HW mode
    halt
"""
        from repro.machine.devices import DeviceTable, VirtualFile

        devices = DeviceTable()
        devices.register_file(VirtualFile("f", b"XXXX"))
        cpu = CPU(assemble(source), devices=devices)
        costs = dataclasses.replace(SLatchCostModel(), timeout_instructions=100)
        system = SLatchSystem(cpu, costs=costs)
        cpu.run()
        assert system.counters.false_positives >= 1
        # The FP did not flip the system into software mode.
        assert system.mode == Mode.HARDWARE

    def test_hardware_mode_clears_stale_register_taint(self):
        cpu, system = make_system(file_filter(), timeout=50)
        cpu.run()
        # After the run, registers written by clean instructions in
        # hardware mode are clean in both TRFs.
        for register in range(16):
            if system.latch.trf.is_tainted(register):
                assert system.engine.trf.is_tainted(register)

    def test_final_taint_matches_reference(self):
        scenario = file_filter()
        cpu, system = make_system(scenario, timeout=100)
        cpu.run()

        from repro.dift.engine import DIFTEngine

        reference_scenario = file_filter()
        reference_cpu = reference_scenario.make_cpu()
        reference = DIFTEngine()
        reference_cpu.attach(reference)
        reference_cpu.run()

        assert (
            list(system.engine.shadow.iter_tainted_bytes())
            == list(reference.shadow.iter_tainted_bytes())
        )


class TestIsaHooks:
    def test_stnt_updates_both_layers(self):
        cpu = CPU(assemble("li r1, 0x3000\nli r2, 1\nstnt r1, r2\nhalt"))
        system = SLatchSystem(cpu)
        cpu.run()
        assert system.engine.shadow.get(0x3000) == 1
        assert system.latch.ctt.is_domain_tainted(0x3000)

    def test_strf_loads_trf(self):
        cpu = CPU(assemble("li r1, 0x30\nstrf r1\nhalt"))
        system = SLatchSystem(cpu)
        cpu.run()
        assert system.latch.trf.is_tainted(4)
        assert system.latch.trf.is_tainted(5)

    def test_ltnt_returns_exception_address(self):
        cpu = CPU(assemble("li r1, 0x3000\nli r2, 1\nstnt r1, r2\n"
                           "lw r3, 0(r1)\nltnt r4\nhalt"))
        system = SLatchSystem(cpu)
        cpu.run()
        assert cpu.registers[4] == 0x3000
