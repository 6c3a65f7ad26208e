"""Quiet stretches in ``CPU.run`` against the per-step path.

A pipeline alone on its CPU lets ``CPU.run`` commit gate-suppressed
instructions in quiet stretches, without events.  Attaching a second,
passive observer forces every instruction through ``CPU.step`` and
``StreamingPipeline.on_step``, so running each program both ways
compares the two paths with no knob in the product.  Everything the
pipeline and the machine expose must agree exactly: signatures,
per-reason gate counts, pipeline counts, the stall model's floats,
registers, memory and the raised error.
"""

import copy
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.corpus import load_corpus
from repro.check.generator import generate_program
from repro.check.workloads import image_program, kv_program, parse_program
from repro.isa import assemble
from repro.machine.cpu import CPU, ExecutionError
from repro.machine.events import Observer
from repro.pipeline import PipelineConfig, StreamingPipeline
from repro.pipeline.model import StallModel
from repro.serve.protocol import canonical_signature

ROOT = Path(__file__).resolve().parent.parent

#: Queue shapes: the default, two small queues (stall-heavy), and a
#: drain batch of 1 (the queue drains on suppressed steps too).
SHAPES = [
    pytest.param({"queue_capacity": 256}, id="q256"),
    pytest.param({"queue_capacity": 8}, id="q8"),
    pytest.param({"queue_capacity": 4}, id="q4"),
    pytest.param({"queue_capacity": 8, "drain_batch": 1}, id="q8-drain1"),
]


class Passive(Observer):
    """Sees every step and does nothing: forces the per-step path."""


def _check_programs():
    programs = load_corpus(ROOT / "tests" / "corpus")
    programs += [kv_program(0), parse_program(0), image_program(0)]
    programs += [generate_program(seed) for seed in range(100)]
    return programs


CHECK_PROGRAMS = _check_programs()


def machine_state(cpu):
    return {
        "registers": list(cpu.registers),
        "pc": cpu.pc,
        "halted": cpu.halted,
        "exit_code": cpu.exit_code,
        "step_count": cpu.step_count,
        "syscall_count": cpu.syscall_count,
        "console": bytes(cpu.console),
        "pages": {number: bytes(page)
                  for number, page in cpu.memory._pages.items()},
        "accessed_pages": cpu.memory.accessed_pages,
    }


def monitored(make_cpu, latch_config, shape, per_step, budgets=(200_000,)):
    """Run under a pipeline; the state after each budget and at the end."""
    cpu = make_cpu()
    pipeline = StreamingPipeline(
        cpu, latch_config=latch_config, config=PipelineConfig(**shape)
    )
    if per_step:
        cpu.attach(Passive())
    states = []
    for budget in budgets:
        error = None
        try:
            executed = cpu.run(budget)
        except ExecutionError as exc:
            executed, error = None, str(exc)
        states.append({
            "executed": executed,
            "error": error,
            "gate": asdict(pipeline.gate.stats),
            "pipeline": asdict(pipeline.stats),
            "stall_cycles": pipeline.model.stall_cycles,
            "backlog": pipeline.model.backlog,
            "queue": len(pipeline.queue),
            "pending": len(pipeline.pending),
            "high_water": pipeline.queue.high_water,
            "machine": machine_state(cpu),
        })
        if error is not None or cpu.halted:
            break
    pipeline.finish()
    states.append({
        "signature": canonical_signature(pipeline.engine),
        "stall_cycles": pipeline.model.stall_cycles,
        "backlog": pipeline.model.backlog,
        "pipeline": asdict(pipeline.stats),
    })
    return states


def assert_paths_agree(make_cpu, latch_config, shape, **kwargs):
    quiet = monitored(make_cpu, latch_config, shape, False, **kwargs)
    per_step = monitored(make_cpu, latch_config, shape, True, **kwargs)
    assert quiet == per_step
    return quiet


@pytest.mark.parametrize("shape", SHAPES)
def test_check_programs_agree(shape):
    """Corpus, check workloads and 100 generated programs."""
    for check_program in CHECK_PROGRAMS:
        assert_paths_agree(check_program.make_cpu, check_program.config,
                           shape)


@pytest.mark.parametrize("shape", SHAPES)
def test_budgets_ending_inside_stretches_agree(shape):
    """``run(max_steps)`` stops mid-stretch and resumes identically."""
    for check_program in CHECK_PROGRAMS[:20]:
        assert_paths_agree(check_program.make_cpu, check_program.config,
                           shape, budgets=(1, 7, 50, 333, 200_000))


def test_quiet_stretches_actually_run():
    """The comparison is not vacuous: most of the program is quiet."""
    from repro.workloads import programs

    cpu = programs.phased_compute(clean_iterations=200).make_cpu()
    pipeline = StreamingPipeline(cpu)
    steps = []
    original = cpu.step

    def counting_step():
        steps.append(cpu.pc)
        return original()

    cpu.step = counting_step
    cpu.run()
    assert cpu.halted
    assert pipeline.stats.instructions == cpu.step_count
    assert len(steps) < cpu.step_count // 10


DIVIDE_BY_ZERO = """
    .data
path:   .asciiz "in.txt"
buf:    .space 16
    .text
_start:
    li   r3, 3
    li   r4, path
    syscall
    mv   r4, r3
    li   r3, 1
    li   r5, buf
    li   r6, 16
    syscall
    li   r8, buf
    lbu  r9, 0(r8)
    li   r7, 0
    li   r10, 40
loop:
    addi r7, r7, 1
    bne  r7, r10, loop
    li   r11, 9
fault:
    div  r12, r11, r0
    halt
"""


@pytest.mark.parametrize("shape", SHAPES)
def test_fault_inside_a_stretch_agrees(shape):
    """A DIV by zero mid-stretch: same error, pc on the faulting
    instruction, and the accounting covers the instructions before it."""
    from repro.machine.devices import DeviceTable, VirtualFile

    program = assemble(DIVIDE_BY_ZERO)

    def make_cpu():
        devices = DeviceTable()
        devices.register_file(VirtualFile("in.txt", b"tainted bytes!!!"))
        return CPU(program, devices=devices)

    states = assert_paths_agree(make_cpu, None, shape)
    faulted = states[0]
    assert faulted["error"] == "division by zero"
    machine = faulted["machine"]
    assert machine["pc"] == program.symbols["fault"]
    assert faulted["pipeline"]["instructions"] == machine["step_count"]
    assert faulted["gate"]["steps"] == machine["step_count"]


#: A READ whose length register is tainted is admitted together with
#: its INPUT record, so under ``drain_batch=1`` one event is still
#: queued after the syscall's drain: the next suppressed step drains it.
ADMITTED_READ = """
    .data
path:   .asciiz "in.txt"
buf:    .space 32
    .text
_start:
    li   r3, 3
    li   r4, path
    syscall
    mv   r13, r3
    li   r3, 1
    mv   r4, r13
    li   r5, buf
    li   r6, 4
    syscall
    li   r8, buf
    lbu  r6, 0(r8)
    andi r6, r6, 7
    addi r6, r6, 1
    li   r3, 1
    mv   r4, r13
    li   r5, buf
    syscall
    li   r7, 0
    li   r10, 30
loop:
    addi r7, r7, 1
    bne  r7, r10, loop
    halt
"""


def _admitted_read_cpu():
    from repro.machine.devices import DeviceTable, VirtualFile

    devices = DeviceTable()
    devices.register_file(VirtualFile("in.txt", bytes(range(1, 33))))
    return CPU(assemble(ADMITTED_READ), devices=devices)


@pytest.mark.parametrize("shape", SHAPES)
def test_queue_at_the_drain_threshold_agrees(shape):
    """No stretch starts while a suppressed step would still drain."""
    states = assert_paths_agree(
        _admitted_read_cpu, None, shape,
        budgets=tuple(range(1, 40)) + (200_000,),
    )
    assert states[-2]["machine"]["halted"]


def test_control_event_awaiting_its_step_agrees():
    """An INPUT fed before the first step is charged with that step's
    commit, so no stretch starts while it waits."""
    from repro.machine.events import InputEvent

    def outcome(per_step):
        cpu = _admitted_read_cpu()
        pipeline = StreamingPipeline(cpu)
        if per_step:
            cpu.attach(Passive())
        pipeline.on_input(InputEvent(0, 0x9000, b"xyz", "file", "side"))
        cpu.run(3)
        return pipeline.model.backlog, asdict(pipeline.stats)

    assert outcome(False) == outcome(True)


def test_unobserved_run_matches_stepping():
    """``run()`` with no observer equals stepping one event at a time."""
    for check_program in CHECK_PROGRAMS:
        quiet = check_program.make_cpu()
        quiet.run(200_000)
        stepped = check_program.make_cpu()
        while not stepped.halted and stepped.step_count < 200_000:
            stepped.step()
        assert machine_state(quiet) == machine_state(stepped)


def test_unobserved_budget_and_fault_match_stepping():
    program = assemble(DIVIDE_BY_ZERO)
    cpu = CPU(program)
    assert cpu.run(5) == 5
    with pytest.raises(ExecutionError, match="division by zero"):
        cpu.run()
    assert cpu.pc == program.symbols["fault"]
    stepped = CPU(program)
    with pytest.raises(ExecutionError, match="division by zero"):
        while True:
            stepped.step()
    assert machine_state(cpu) == machine_state(stepped)


def test_bad_pc_ends_a_stretch_with_the_step_error():
    program = assemble("li r1, 0x40\njalr r0, 0(r1)")
    cpu = CPU(program)
    with pytest.raises(ExecutionError, match="bad instruction address"):
        cpu.run()
    assert cpu.step_count == len(program.instructions)
    assert cpu.pc == 0x40


@settings(max_examples=300, deadline=None)
@given(
    analysis=st.sampled_from([4.38, 1.0, 2.5, 0.3, 17.0]),
    entries=st.integers(min_value=1, max_value=300),
    history=st.lists(
        st.tuples(st.integers(min_value=0, max_value=6),
                  st.sampled_from([0.0, 1.0])),
        max_size=400,
    ),
    idle=st.integers(min_value=0, max_value=5_000),
)
def test_bulk_idle_commit_is_bit_identical(analysis, entries, history, idle):
    """``commit(0, n)`` equals n x ``commit(0, 1)`` from any backlog."""
    model = StallModel(analysis, entries)
    for events, cycles in history:
        model.commit(events, cycles)
    bulk = copy.copy(model)
    bulk.commit(0, idle)
    for _ in range(idle):
        model.commit(0)
    assert bulk.backlog == model.backlog
    assert bulk.stall_cycles == model.stall_cycles
