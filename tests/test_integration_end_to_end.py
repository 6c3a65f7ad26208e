"""End-to-end integration: every layer in one flow.

One service scenario — mixed-trust requests, a colourised policy, an
attempted hijack — pushed through all three LATCH integrations, the
trace recorder, the analyses and persistence.  This is
the "does the whole product hang together" test.
"""

import dataclasses

import pytest

from repro.analysis import epoch_duration_profile, page_taint_distribution
from repro.dift.engine import DIFTEngine
from repro.dift.events import AlertKind
from repro.dift.policy import TaintPolicy
from repro.hlatch import HLatchMonitor, run_baseline, run_hlatch
from repro.machine.tracing import TraceRecorder
from repro.pipeline import PipelineConfig, StreamingPipeline
from repro.slatch.controller import SLatchSystem
from repro.slatch.costs import SLatchCostModel
from repro.trace.convert import load_columnar_trace, save_columnar_trace
from repro.workloads.attacks import buffer_overflow
from repro.workloads.programs import echo_server

POLICY = TaintPolicy(color_by_source=True)


def mixed_trust_server():
    requests = [f"REQ-{i:03d}-{'x' * 20}".encode() for i in range(12)]
    trusted = [i % 3 == 0 for i in range(12)]
    return echo_server(requests=requests, trusted_flags=trusted)


def run_reference(scenario_factory, policy=None):
    cpu = scenario_factory().make_cpu()
    engine = DIFTEngine(policy)
    cpu.attach(engine)
    try:
        cpu.run(500_000)
    except Exception:
        pass
    return engine


class TestServiceUnderAllIntegrations:
    def test_three_integrations_agree_with_reference(self):
        reference = run_reference(mixed_trust_server, POLICY)
        reference_taint = list(reference.shadow.iter_tainted_bytes())

        # S-LATCH.
        cpu = mixed_trust_server().make_cpu()
        costs = dataclasses.replace(SLatchCostModel(), timeout_instructions=60)
        slatch = SLatchSystem(cpu, policy=POLICY, costs=costs)
        cpu.run(500_000)
        assert list(slatch.engine.shadow.iter_tainted_bytes()) == reference_taint
        assert slatch.counters.hw_instructions > 0  # gating actually engaged

        # P-LATCH (two-core).
        cpu = mixed_trust_server().make_cpu()
        platch = StreamingPipeline(cpu, policy=POLICY, config=PipelineConfig(
            drain_batch=16,
        ))
        cpu.run(500_000)
        platch.drain_all()
        assert list(platch.engine.shadow.iter_tainted_bytes()) == reference_taint
        assert 0 < platch.stats.enqueue_fraction < 1

        # H-LATCH (hardware DIFT + filtered caches).
        cpu = mixed_trust_server().make_cpu()
        hlatch = HLatchMonitor(cpu, policy=POLICY)
        cpu.run(500_000)
        assert list(hlatch.engine.shadow.iter_tainted_bytes()) == reference_taint
        report = hlatch.report("service")
        assert report.accesses > 0

    def test_colourised_hijack_detected_identically_everywhere(self):
        reference = run_reference(lambda: buffer_overflow(True), POLICY)
        expected = [(a.kind, a.pc) for a in reference.alerts]
        assert AlertKind.TAINTED_JUMP in [a.kind for a in reference.alerts]
        assert "request.bin" in reference.alerts[0].detail  # provenance

        for build_system in (
            lambda cpu: SLatchSystem(cpu, policy=POLICY),
            lambda cpu: StreamingPipeline(cpu, policy=POLICY),
            lambda cpu: HLatchMonitor(cpu, policy=POLICY),
        ):
            cpu = buffer_overflow(True).make_cpu()
            system = build_system(cpu)
            try:
                cpu.run(500_000)
            except Exception:
                pass
            if isinstance(system, StreamingPipeline):
                system.drain_all()
            assert [(a.kind, a.pc) for a in system.engine.alerts] == expected


class TestRecordAnalyzePersistRestore:
    def test_full_pipeline(self, tmp_path):
        # 1. Record a monitored run.
        cpu = mixed_trust_server().make_cpu()
        engine = DIFTEngine(POLICY)
        recorder = TraceRecorder(engine, name="service")
        cpu.attach(engine)
        cpu.attach(recorder)
        cpu.run(500_000)

        # 2. Analyse it.
        stream = recorder.epoch_stream()
        trace = recorder.access_trace()
        assert stream.tainted_fraction > 0
        assert page_taint_distribution(trace.layout).pages_tainted >= 1
        profile = epoch_duration_profile(stream, thresholds=(10, 100))
        assert profile[10] >= profile[100]

        # 3. Persist the trace, reload it, and replay through the caches.
        path = tmp_path / "service.ltrace"
        save_columnar_trace(trace, path)
        with load_columnar_trace(path) as view:
            reloaded = view.to_access_trace()
        hlatch = run_hlatch(reloaded)
        baseline = run_baseline(reloaded)
        assert hlatch.accesses == trace.access_count
        assert baseline.accesses >= trace.access_count
