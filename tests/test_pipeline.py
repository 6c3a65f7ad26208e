"""Streaming pipeline differential tests: decoupled but lossless.

The acceptance bar for ``repro.pipeline``: the streaming path must end
with a final taint state *byte-identical* to an always-on DIFT tracker,
for every scenario, both gating backends, and adversarial queue shapes.
"""

import random
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.check.corpus import load_corpus
from repro.core.latch import LatchConfig, LatchModule
from repro.dift.engine import DIFTEngine
from repro.dift.policy import leak_detection_policy
from repro.isa.instructions import Instruction, Opcode
from repro.kernels.classify import (
    CttIndex,
    as_index_array,
    coarse_flags_window,
    effective_sizes,
)
from repro.machine.events import MemoryAccess, Observer, StepEvent
from repro.pipeline import PipelineConfig, StreamingPipeline
from repro.pipeline.gate import LatchGate
from repro.platch.functional import PLatchSystem
from repro.workloads import attacks, programs

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

BACKENDS = ["scalar", "vector"]

ROOT = Path(__file__).resolve().parent.parent

#: (queue_capacity, gate_batch) shapes that stress distinct regimes:
#: deep queue + backend-default batching, shallow queue + small batches,
#: and a queue *smaller* than the gate batch (mid-batch drains).
QUEUE_SHAPES = [(256, None), (8, 4), (4, 32)]


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


def run_pipeline(build, policy_factory=None, **config_kwargs):
    scenario = build()
    cpu = scenario.make_cpu()
    pipeline = StreamingPipeline(
        cpu,
        policy=policy_factory() if policy_factory else None,
        config=PipelineConfig(**config_kwargs),
    )
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
@pytest.mark.parametrize("backend", BACKENDS)
def test_streaming_matches_always_on_reference(name, build, policy, backend):
    reference = run_reference(build, policy)
    pipeline = run_pipeline(build, policy, backend=backend)
    assert signature(pipeline.engine) == signature(reference)


@pytest.mark.parametrize(
    "name,build,policy",
    [SCENARIOS[0], SCENARIOS[3], SCENARIOS[5]],
    ids=["file-filter", "echo", "overflow"],
)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "queue_capacity,gate_batch", QUEUE_SHAPES,
    ids=[f"q{q}b{b}" for q, b in QUEUE_SHAPES],
)
def test_queue_shapes_stay_lossless(
    name, build, policy, backend, queue_capacity, gate_batch
):
    reference = run_reference(build, policy)
    pipeline = run_pipeline(
        build, policy,
        backend=backend,
        queue_capacity=queue_capacity,
        gate_batch=gate_batch,
    )
    assert signature(pipeline.engine) == signature(reference)


@pytest.mark.parametrize(
    "name,build,policy", SCENARIOS, ids=[s[0] for s in SCENARIOS]
)
def test_backends_make_identical_admission_decisions(name, build, policy):
    """Scalar and vector gating agree event-for-event, not just finally."""
    scalar = run_pipeline(build, policy, backend="scalar")
    vector = run_pipeline(build, policy, backend="vector")
    assert scalar.stats.enqueued == vector.stats.enqueued
    assert scalar.stats.suppressed == vector.stats.suppressed
    assert scalar.stats.control_events == vector.stats.control_events
    assert signature(scalar.engine) == signature(vector.engine)


def test_gate_suppresses_the_clean_majority():
    pipeline = run_pipeline(
        lambda: programs.phased_compute(clean_iterations=1500), None
    )
    assert pipeline.stats.enqueue_fraction < 0.4
    assert pipeline.stats.drained == pipeline.stats.enqueued


# ------------------------------------------------ vector gate vs numpy oracle


def oracle_memory_flags(ctt, domain_size, events):
    """Per-event coarse verdicts through the numpy replay kernels.

    Ragged domain expansion, a ``CttIndex`` gather of the CTT as it
    stands now, and a per-event OR: an independent route to the verdicts
    the vector gate's CTT probe must produce.
    """
    addresses, sizes, counts = [], [], []
    for event in events:
        accesses = event.memory_accesses
        counts.append(len(accesses))
        for access in accesses:
            addresses.append(access.address)
            sizes.append(access.size)
    if not addresses:
        return [False] * len(events)
    flags = coarse_flags_window(
        as_index_array(addresses), effective_sizes(sizes), domain_size,
        CttIndex(ctt),
    )
    out, cursor = [], 0
    for count in counts:
        out.append(bool(flags[cursor:cursor + count].any()))
        cursor += count
    return out


class OracleGate(LatchGate):
    """A vector gate whose verdicts come from the numpy oracle."""

    def memory_flags(self, events):
        return oracle_memory_flags(
            self.latch.ctt, self.latch.config.domain_size, events
        )


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
    """The CTT probe agrees with the numpy kernels on every verdict."""
    rng = random.Random(seed)
    runs = _corpus_steps() + [
        (LatchConfig(domain_size=size), _random_steps(rng, size, 200))
        for size in (8, 64)
    ]
    for config, steps in runs:
        latch = LatchModule(config)
        gate = LatchGate(latch, pending=None, backend="vector")
        for start in range(0, len(steps), 16):
            batch = steps[start:start + 16]
            _randomise_ctt(rng, latch.ctt, batch)
            assert gate.memory_flags(batch) == oracle_memory_flags(
                latch.ctt, config.domain_size, batch
            )


@pytest.mark.parametrize(
    "name,build,policy", SCENARIOS, ids=[s[0] for s in SCENARIOS]
)
def test_oracle_gate_runs_identically(name, build, policy):
    """Swapping in the numpy oracle gate changes no count anywhere."""
    probe = run_pipeline(build, policy, backend="vector")

    scenario = build()
    cpu = scenario.make_cpu()
    oracle = StreamingPipeline(
        cpu, policy=policy() if policy else None,
        config=PipelineConfig(backend="vector"),
    )
    oracle.gate = OracleGate(oracle.latch, oracle.pending, "vector")
    try:
        cpu.run(300_000)
    except Exception:
        pass
    oracle.finish()

    assert asdict(probe.gate.stats) == asdict(oracle.gate.stats)
    assert asdict(probe.stats) == asdict(oracle.stats)
    assert signature(probe.engine) == signature(oracle.engine)


def test_backend_and_cadence_resolved_once(monkeypatch):
    """A mid-run REPRO_KERNEL_BACKEND change does not reach the pipeline."""
    monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
    build = lambda: programs.file_filter()
    reference = run_pipeline(build, None, backend="vector", gate_batch=16)

    cpu = build().make_cpu()
    pipeline = StreamingPipeline(cpu, config=PipelineConfig(backend=None))
    assert pipeline.gate.backend == "vector"
    cpu.run(500)
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "scalar")
    cpu.run(300_000)
    pipeline.finish()

    assert pipeline.gate.backend == "vector"
    assert pipeline.stats.batches == reference.stats.batches
    assert asdict(pipeline.stats) == asdict(reference.stats)


def test_wrapper_is_bit_identical_to_raw_pipeline():
    """PLatchSystem == StreamingPipeline(scalar, gate_batch=1) exactly."""
    build = lambda: programs.echo_server()
    wrapped_cpu = build().make_cpu()
    wrapped = PLatchSystem(wrapped_cpu, queue_capacity=32, drain_batch=8)
    wrapped_cpu.run(300_000)
    wrapped.drain_all()

    pipeline = run_pipeline(
        build, None,
        queue_capacity=32, drain_batch=8, gate_batch=1, backend="scalar",
    )
    assert signature(wrapped.engine) == signature(pipeline.engine)
    assert wrapped.stats.enqueued == pipeline.stats.enqueued
    assert wrapped.stats.queue_full_stalls == pipeline.stats.queue_full_stalls
    counters = wrapped.counters
    assert counters.enqueued == pipeline.stats.enqueued
    assert counters.drained == pipeline.stats.drained


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
