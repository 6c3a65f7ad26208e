"""Functional P-LATCH differential tests: delayed but lossless detection."""

import pytest

from repro.dift.engine import DIFTEngine
from repro.dift.policy import leak_detection_policy
from repro.pipeline import PipelineConfig, StreamingPipeline
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


def run_platch(build, policy_factory, **kwargs):
    scenario = build()
    cpu = scenario.make_cpu()
    system = StreamingPipeline(
        cpu,
        policy=policy_factory() if policy_factory else None,
        config=PipelineConfig(**kwargs),
    )
    try:
        cpu.run(300_000)
    except Exception:
        pass
    system.drain_all()
    return system


def signature(engine):
    return (
        [(alert.kind, alert.pc) for alert in engine.alerts],
        list(engine.shadow.iter_tainted_bytes()),
    )


@pytest.mark.parametrize(
    "name,build,policy", SCENARIOS, ids=[s[0] for s in SCENARIOS]
)
@pytest.mark.parametrize("drain_batch", [1, 8, 64])
def test_two_core_monitoring_is_lossless(name, build, policy, drain_batch):
    reference = run_reference(build, policy)
    system = run_platch(build, policy, drain_batch=drain_batch)
    assert signature(system.engine) == signature(reference)


def test_queue_filters_most_instructions():
    system = run_platch(lambda: programs.phased_compute(clean_iterations=1500), None)
    stats = system.stats
    assert stats.enqueue_fraction < 0.4
    assert stats.drained == stats.enqueued


def test_pending_tracker_catches_back_to_back_dependences():
    # A store of tainted data immediately read back: the read commits
    # while the store may still sit in the queue; the pending tracker
    # must force it to be monitored.
    system = run_platch(lambda: programs.file_filter(), None, drain_batch=10_000)
    # With an effectively infinite drain batch threshold, events only
    # drain at halt — the pending guard carried all intermediate reads.
    reference = run_reference(lambda: programs.file_filter(), None)
    assert signature(system.engine) == signature(reference)


def test_tiny_queue_forces_stalls_but_stays_correct():
    system = run_platch(
        lambda: programs.file_filter(), None,
        queue_capacity=4, drain_batch=2,
    )
    reference = run_reference(lambda: programs.file_filter(), None)
    assert signature(system.engine) == signature(reference)


def test_enqueue_fraction_tracks_taint_activity():
    clean = run_platch(
        lambda: programs.file_filter(tainted=False), None
    ).stats.enqueue_fraction
    tainted = run_platch(
        lambda: programs.file_filter(tainted=True), None
    ).stats.enqueue_fraction
    assert clean == 0.0
    assert tainted > 0.0
