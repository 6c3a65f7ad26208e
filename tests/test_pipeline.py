"""Streaming pipeline differential tests: decoupled but lossless.

The acceptance bar for ``repro.pipeline``: the streaming path must end
with a final taint state *byte-identical* to an always-on DIFT tracker,
for every scenario, gate, and adversarial queue shape.

Tests parametrised over ``GATES`` run two gates: ``vector`` is the
product CTT probe, and ``scalar`` is :class:`CheckStepGate` — the
retired live ``check_step`` gate, kept here as a test oracle.  Both
decide each instruction as it commits.
"""

import random
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.check.corpus import load_corpus
from repro.check.generator import generate_program
from repro.core.latch import LatchConfig, LatchModule
from repro.dift.engine import DIFTEngine
from repro.dift.policy import leak_detection_policy
from repro.isa.instructions import Instruction, Opcode
from repro.kernels.classify import CttIndex, as_index_array, effective_sizes
from repro.machine.events import MemoryAccess, Observer, StepEvent
from repro.pipeline import PipelineConfig, StreamingPipeline
from repro.pipeline.gate import LatchGate
from repro.workloads import attacks, programs
from tests.kernel_oracles import coarse_flags_window

SCENARIOS = [
    ("file-filter", lambda: programs.file_filter(), None),
    ("checksum", lambda: programs.checksum(), None),
    ("cipher", lambda: programs.substitution_cipher(), None),
    ("echo", lambda: programs.echo_server(), None),
    ("phased", lambda: programs.phased_compute(), None),
    ("overflow", lambda: attacks.buffer_overflow(hijack=True), None),
    ("overflow-benign", lambda: attacks.buffer_overflow(hijack=False), None),
    ("leak", lambda: attacks.data_leak(leak=True), leak_detection_policy),
]

GATES = ["scalar", "vector"]

ROOT = Path(__file__).resolve().parent.parent

#: Queue capacities that stress distinct regimes: the default deep
#: queue, a shallow one, and one small enough to stall constantly.
QUEUE_SHAPES = [256, 8, 4]


def run_reference(build, policy_factory):
    scenario = build()
    cpu = scenario.make_cpu()
    engine = DIFTEngine(policy_factory() if policy_factory else None)
    cpu.attach(engine)
    try:
        cpu.run(300_000)
    except Exception:
        pass
    return engine


class CheckStepGate(LatchGate):
    """The retired scalar gate, kept as a test oracle.

    The memory verdict comes from
    :meth:`repro.core.latch.LatchModule.check_step`, which walks the TLB
    taint bits and the CTC exactly as the hardware would.
    """

    def memory_flags(self, event):
        check = self.latch.check_step(event)
        return any(result.coarse_tainted for result in check.memory_results)

    def quiet_snapshot(self):
        return None  # an oracle sees every event


def attach_pipeline(cpu, policy_factory=None, gate="vector",
                    latch_config=None, **config_kwargs):
    """A pipeline on ``cpu`` gated by ``gate`` (one of ``GATES``)."""
    pipeline = StreamingPipeline(
        cpu,
        policy=policy_factory() if policy_factory else None,
        latch_config=latch_config,
        config=PipelineConfig(**config_kwargs),
    )
    if gate == "scalar":
        pipeline.gate = CheckStepGate(pipeline.latch, pipeline.pending)
    return pipeline


def run_pipeline(build, policy_factory=None, gate="vector", **config_kwargs):
    scenario = build()
    cpu = scenario.make_cpu()
    pipeline = attach_pipeline(cpu, policy_factory, gate, **config_kwargs)
    try:
        cpu.run(300_000)
    except Exception:
        pass
    pipeline.finish()
    return pipeline


def signature(engine):
    return (
        [(alert.kind, alert.pc) for alert in engine.alerts],
        list(engine.shadow.iter_tainted_bytes()),
    )


@pytest.mark.parametrize(
    "name,build,policy", SCENARIOS, ids=[s[0] for s in SCENARIOS]
)
@pytest.mark.parametrize("gate", GATES)
def test_streaming_matches_always_on_reference(name, build, policy, gate):
    reference = run_reference(build, policy)
    pipeline = run_pipeline(build, policy, gate)
    assert signature(pipeline.engine) == signature(reference)


@pytest.mark.parametrize(
    "name,build,policy",
    [SCENARIOS[0], SCENARIOS[3], SCENARIOS[5]],
    ids=["file-filter", "echo", "overflow"],
)
@pytest.mark.parametrize("gate", GATES)
@pytest.mark.parametrize(
    "queue_capacity", QUEUE_SHAPES, ids=[f"q{q}" for q in QUEUE_SHAPES],
)
def test_queue_shapes_stay_lossless(
    name, build, policy, gate, queue_capacity
):
    reference = run_reference(build, policy)
    pipeline = run_pipeline(
        build, policy, gate, queue_capacity=queue_capacity
    )
    assert signature(pipeline.engine) == signature(reference)


def assert_identical_runs(oracle, probe):
    """Per-reason gate stats, pipeline stats, stalls and final state."""
    assert asdict(oracle.gate.stats) == asdict(probe.gate.stats)
    assert asdict(oracle.stats) == asdict(probe.stats)
    assert oracle.model.stall_cycles == probe.model.stall_cycles
    assert signature(oracle.engine) == signature(probe.engine)


@pytest.mark.parametrize(
    "name,build,policy", SCENARIOS, ids=[s[0] for s in SCENARIOS]
)
def test_backends_make_identical_admission_decisions(name, build, policy):
    """The check_step oracle gate and the CTT probe agree event-for-event."""
    oracle = run_pipeline(build, policy, "scalar")
    probe = run_pipeline(build, policy, "vector")
    assert_identical_runs(oracle, probe)


def _check_program_runs(check_program):
    runs = []
    for gate in GATES:
        cpu = check_program.make_cpu()
        pipeline = attach_pipeline(
            cpu, gate=gate, latch_config=check_program.config
        )
        cpu.run(200_000)
        pipeline.finish()
        runs.append(pipeline)
    return runs


def test_check_step_gate_matches_probe_on_corpus_and_generated_programs():
    """Per-reason agreement on the regression corpus (wrap straddles,
    CTC eviction) and on 100 generated programs."""
    check_programs = load_corpus(ROOT / "tests" / "corpus")
    check_programs += [generate_program(seed) for seed in range(100)]
    for check_program in check_programs:
        oracle, probe = _check_program_runs(check_program)
        assert_identical_runs(oracle, probe)


def test_gate_suppresses_the_clean_majority():
    pipeline = run_pipeline(
        lambda: programs.phased_compute(clean_iterations=1500), None
    )
    assert pipeline.stats.enqueue_fraction < 0.4
    assert pipeline.stats.drained == pipeline.stats.enqueued


# ------------------------------------------------ vector gate vs numpy oracle


def oracle_memory_flag(ctt, domain_size, event):
    """One event's coarse verdict through the numpy replay kernels.

    Ragged domain expansion, a ``CttIndex`` gather of the CTT as it
    stands now, and an OR over the operands: an independent route to the
    verdict the gate's CTT probe must produce.
    """
    accesses = event.memory_accesses
    if not accesses:
        return False
    flags = coarse_flags_window(
        as_index_array([access.address for access in accesses]),
        effective_sizes([access.size for access in accesses]),
        domain_size,
        CttIndex(ctt),
    )
    return bool(flags.any())


class OracleGate(LatchGate):
    """A CTT-probe gate whose verdicts come from the numpy oracle."""

    def memory_flags(self, event):
        return oracle_memory_flag(
            self.latch.ctt, self.latch.config.domain_size, event
        )

    def quiet_snapshot(self):
        return None  # an oracle sees every event


class _Collector(Observer):
    def __init__(self):
        self.steps = []

    def on_step(self, event):
        self.steps.append(event)


def _corpus_steps():
    """Committed steps of every regression-corpus program.

    The corpus holds the fuzzer's wrap-around reproducers, so these
    include accesses that straddle the top of the 32-bit space.
    """
    runs = []
    for check_program in load_corpus(ROOT / "tests" / "corpus"):
        cpu = check_program.make_cpu()
        collector = _Collector()
        cpu.attach(collector)
        cpu.run(10_000)
        runs.append((check_program.config, collector.steps))
    return runs


def _random_steps(rng, domain_size, count):
    """Synthetic steps: multi-domain, zero-size, and wrapping accesses."""
    word_span = domain_size * 32
    steps = []
    for index in range(count):
        accesses = []
        for _ in range(rng.choice((0, 1, 1, 1, 2, 3))):
            address = rng.choice((
                rng.randrange(0, 4 * word_span),
                (1 << 32) - rng.randrange(1, 2 * word_span),
                rng.randrange(1 << 32),
            ))
            size = rng.choice((
                0, 1, 2, 4, domain_size, rng.randrange(-2, 3 * word_span),
            ))
            accesses.append(MemoryAccess(address, size, rng.random() < 0.5))
        steps.append(StepEvent(
            index, 0, Instruction(Opcode.NOP),
            reads=tuple(a for a in accesses if not a.is_write),
            writes=tuple(a for a in accesses if a.is_write),
        ))
    return steps


def _randomise_ctt(rng, ctt, steps):
    """Seed CTT words around the accessed addresses (or leave it empty)."""
    ctt.clear_all()
    if rng.random() < 0.2:
        return
    geometry = ctt.geometry
    words = set()
    for step in steps:
        for access in step.memory_accesses:
            words.update(geometry.words_in_range(
                access.address, max(access.size, 1)
            ))
    words.update((0, geometry.total_words - 1))
    for word_index in words:
        if rng.random() < 0.5:
            ctt.set_word(word_index, rng.getrandbits(32) & rng.getrandbits(32))


@pytest.mark.parametrize("seed", range(6))
def test_vector_gate_flags_match_numpy_oracle(seed):
    """The CTT probe agrees with the numpy kernels on every event."""
    rng = random.Random(seed)
    runs = _corpus_steps() + [
        (LatchConfig(domain_size=size), _random_steps(rng, size, 200))
        for size in (8, 64)
    ]
    for config, steps in runs:
        latch = LatchModule(config)
        gate = LatchGate(latch, pending=None)
        for start in range(0, len(steps), 16):
            batch = steps[start:start + 16]
            _randomise_ctt(rng, latch.ctt, batch)
            for step in batch:
                assert gate.memory_flags(step) == oracle_memory_flag(
                    latch.ctt, config.domain_size, step
                )


@pytest.mark.parametrize(
    "name,build,policy", SCENARIOS, ids=[s[0] for s in SCENARIOS]
)
def test_oracle_gate_runs_identically(name, build, policy):
    """Swapping in the numpy oracle gate changes no count anywhere."""
    probe = run_pipeline(build, policy)

    scenario = build()
    cpu = scenario.make_cpu()
    oracle = attach_pipeline(cpu, policy)
    oracle.gate = OracleGate(oracle.latch, oracle.pending)
    try:
        cpu.run(300_000)
    except Exception:
        pass
    oracle.finish()

    assert asdict(probe.gate.stats) == asdict(oracle.gate.stats)
    assert asdict(probe.stats) == asdict(oracle.stats)
    assert signature(probe.engine) == signature(oracle.engine)


def test_wrapper_is_bit_identical_to_raw_pipeline():
    """Wire-configured pipelines equal raw StreamingPipelines exactly."""
    from repro.serve.session import pipeline_config_from_wire

    build = lambda: programs.echo_server()
    wired_cpu = build().make_cpu()
    wired = StreamingPipeline(wired_cpu, config=pipeline_config_from_wire(
        {"queue_capacity": 32, "drain_batch": 8}
    ))
    wired_cpu.run(300_000)
    wired.drain_all()

    pipeline = run_pipeline(
        build, None,
        queue_capacity=32, drain_batch=8,
    )
    assert_identical_runs(wired, pipeline)


def test_served_default_is_the_local_default():
    """No wire overrides give ``PipelineConfig()``: one default, local
    and served."""
    from repro.serve.session import pipeline_config_from_wire

    runs = []
    for config in (PipelineConfig(), pipeline_config_from_wire(None)):
        cpu = programs.echo_server().make_cpu()
        pipeline = StreamingPipeline(cpu, config=config)
        cpu.run(300_000)
        pipeline.finish()
        runs.append(pipeline)
    assert_identical_runs(*runs)


@pytest.mark.parametrize(
    "knob", ["backend", "model_epoch", "hist_mode", "gate_batch"]
)
def test_retired_knobs_are_not_config_fields(knob):
    with pytest.raises(TypeError):
        PipelineConfig(**{knob: 1})


def test_publish_metrics_exposes_pipeline_series():
    pipeline = run_pipeline(lambda: programs.file_filter(), None)
    snapshot = pipeline.snapshot()
    assert snapshot.get("pipeline.instructions") == pipeline.stats.instructions
    assert snapshot.get("pipeline.events.enqueued") == pipeline.stats.enqueued
    assert snapshot.get("pipeline.queue.stalls") == (
        pipeline.stats.queue_full_stalls
    )
    assert snapshot.get("pipeline.enqueue_frac") == pytest.approx(
        pipeline.stats.enqueue_fraction
    )
    # The downstream stages publish into the same registry.
    assert snapshot.get("dift.instructions") == pipeline.stats.drained
    assert "ctc.hit_rate" in snapshot


@pytest.mark.parametrize("variable,value", [
    ("REPRO_PIPELINE_QUEUE_CAPACITY", "8k"),
    ("REPRO_PIPELINE_SAMPLE_RATE", "half"),
])
def test_env_parse_errors_name_the_variable(variable, value):
    with pytest.raises(ValueError, match=f"{variable} must be .*{value!r}"):
        PipelineConfig.from_env({variable: value})


def test_env_values_parse():
    config = PipelineConfig.from_env({
        "REPRO_PIPELINE_QUEUE_CAPACITY": "8",
        "REPRO_PIPELINE_SAMPLE_RATE": "0.5",
    })
    assert config.queue_capacity == 8
    assert config.sampling.rate == 0.5
