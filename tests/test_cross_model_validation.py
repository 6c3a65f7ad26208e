"""Cross-model validation: independent models must agree.

These tests tie different layers of the reproduction together — if a
refactor breaks one model silently, its disagreement with an
independent model of the same quantity surfaces here.
"""

import numpy as np
import pytest

from tests.reuse_oracle import lru_hit_rate, reuse_distances
from repro.core.latch import LatchConfig
from repro.hlatch import run_hlatch
from repro.workloads import WorkloadGenerator, get_profile


class TestCtcReusePrediction:
    """Stack-distance analysis predicts the measured CTC hit rate.

    The CTC is fully associative LRU, so over the stream of accesses
    that actually reach it (those in hot page-level domains), the
    reuse-distance histogram at CTT-word granularity must predict its
    hit rate.  Small deviations come from accesses that straddle two
    words (checked twice) — hence the tolerance.
    """

    @pytest.mark.parametrize("name", ["astar", "sphinx", "apache"])
    def test_prediction_matches_simulation(self, name):
        config = LatchConfig()
        geometry = config.geometry()
        trace = WorkloadGenerator(get_profile(name)).access_trace(120_000)

        report = run_hlatch(trace, latch_config=config)
        ctc_accesses = report.accesses - report.resolved_by_tlb
        if ctc_accesses < 500:
            pytest.skip("not enough CTC traffic to compare")
        measured_hit = 1.0 - report.ctc_misses / ctc_accesses

        # Reconstruct the CTC-visible stream: accesses whose page-level
        # domain contains taint (the TLB screen is static here because
        # the trace carries no taint updates).
        span = geometry.word_span
        hot_words = set(
            (np.asarray(trace.layout.tainted_domains(geometry.domain_size))
             * geometry.domain_size // span).tolist()
        )
        access_words = trace.addresses // span
        visible = np.isin(access_words, np.fromiter(
            sorted(hot_words), dtype=np.int64, count=len(hot_words)
        ))
        stream = trace.addresses[visible]
        distances = reuse_distances(stream, granularity=span)
        predicted_hit = lru_hit_rate(distances, config.ctc_entries)

        assert predicted_hit == pytest.approx(measured_hit, abs=0.05)


class TestFunctionalVsAnalyticSLatch:
    """The functional controller and the performance model agree on the
    hardware/software split for a workload both can express."""

    def test_trap_counts_consistent_on_phased_program(self):
        import dataclasses

        from repro.dift.engine import DIFTEngine
        from repro.machine.tracing import TraceRecorder
        from repro.slatch import (
            FixedTimeout,
            SLatchCostModel,
            SLatchSystem,
            simulate_slatch_with_policy,
        )
        from repro.workloads.programs import phased_compute

        # Run functionally and record the epoch structure.
        scenario = phased_compute(clean_iterations=600)
        cpu = scenario.make_cpu()
        engine = DIFTEngine()
        recorder = TraceRecorder(engine)
        cpu.attach(engine)
        cpu.attach(recorder)
        cpu.run(200_000)
        stream = recorder.epoch_stream()

        # Functional S-LATCH on a fresh copy of the same program.
        scenario2 = phased_compute(clean_iterations=600)
        cpu2 = scenario2.make_cpu()
        costs = dataclasses.replace(
            SLatchCostModel(), timeout_instructions=200
        )
        functional = SLatchSystem(cpu2, costs=costs)
        cpu2.run(200_000)

        # Analytic model over the recorded stream with the same timeout.
        profile = get_profile("gcc")  # slowdown irrelevant to the split
        analytic = simulate_slatch_with_policy(
            profile, stream, FixedTimeout(200), costs=costs
        )

        assert analytic.traps == functional.counters.traps
        assert analytic.returns == functional.counters.returns
        # Instruction-split agreement within the replayed-instruction
        # bookkeeping differences (the trap instruction itself).
        assert analytic.sw_instructions == pytest.approx(
            functional.counters.sw_instructions, abs=5
        )
