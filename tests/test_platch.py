"""P-LATCH model tests: window localisation and the queue mechanism."""

import numpy as np
import pytest

from repro.platch.lba import LBA_OPTIMIZED, LBA_SIMPLE, LbaParameters
from repro.platch.model import analytic_platch
from repro.platch.queue_sim import TwoCoreQueueSimulator
from repro.workloads import all_profiles
from repro.workloads.profiles import get_profile
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.trace import Epoch, EpochStream


def stream(*epochs, name="crafted"):
    return EpochStream.from_epochs(
        name, [Epoch(length=l, tainted_instructions=t) for l, t in epochs]
    )


class TestLbaParameters:
    def test_reported_overheads(self):
        assert LBA_SIMPLE.mean_overhead == pytest.approx(3.38)
        assert LBA_OPTIMIZED.mean_overhead == pytest.approx(0.36)

    def test_analysis_cost_derivation(self):
        assert LBA_SIMPLE.analysis_cycles_per_event == pytest.approx(4.38)


class TestAnalyticModel:
    def test_taint_free_stream_no_overhead(self):
        report = analytic_platch(stream((100_000, 0)))
        assert report.monitored_fraction == 0.0
        assert report.overhead == 0.0
        assert report.speedup_vs_baseline == pytest.approx(1.0 + 3.38)

    def test_single_window_for_small_epoch(self):
        # One 100-instruction taint epoch inside one 1000-instr window.
        report = analytic_platch(stream((500, 0), (100, 50), (10_000, 0)))
        assert report.monitored_instructions == 1000

    def test_epoch_spanning_window_boundary(self):
        # Active epoch crosses a window boundary → two windows monitored.
        report = analytic_platch(stream((900, 0), (200, 100), (10_000, 0)))
        assert report.monitored_instructions == 2000

    def test_adjacent_epochs_share_windows(self):
        # Two active epochs falling in the same window count it once.
        report = analytic_platch(
            stream((100, 0), (50, 25), (100, 0), (50, 25), (10_000, 0))
        )
        assert report.monitored_instructions == 1000

    def test_fully_tainted_capped_at_total(self):
        report = analytic_platch(stream((600, 300)))
        assert report.monitored_instructions == 600
        assert report.monitored_fraction == 1.0
        assert report.overhead == pytest.approx(3.38)

    def test_overhead_scales_with_baseline(self):
        epochs = stream((500, 0), (100, 50), (10_000, 0))
        simple = analytic_platch(epochs, LBA_SIMPLE)
        optimized = analytic_platch(epochs, LBA_OPTIMIZED)
        assert simple.monitored_fraction == optimized.monitored_fraction
        ratio = simple.overhead / optimized.overhead
        assert ratio == pytest.approx(3.38 / 0.36)


class TestQueueSimulation:
    def test_unfiltered_saturates_to_lba_overhead(self):
        # Long uniform stream: every instruction enqueued, monitor slower
        # than producer → steady-state overhead equals the rate deficit.
        epochs = stream(*[(10_000, 0)] * 100)
        report = TwoCoreQueueSimulator(LBA_SIMPLE, filtered=False).run(epochs)
        assert report.overhead == pytest.approx(3.38, rel=0.01)

    def test_filtered_clean_stream_never_stalls(self):
        epochs = stream(*[(10_000, 0)] * 50)
        report = TwoCoreQueueSimulator(LBA_SIMPLE, filtered=True).run(epochs)
        assert report.stall_cycles == 0
        assert report.events_enqueued == 0

    def test_filtered_overhead_below_baseline(self):
        epochs = stream(
            *([(5_000, 0), (500, 250)] * 50),
        )
        filtered = TwoCoreQueueSimulator(LBA_SIMPLE, filtered=True).run(epochs)
        unfiltered = TwoCoreQueueSimulator(LBA_SIMPLE, filtered=False).run(epochs)
        assert filtered.overhead < unfiltered.overhead

    def test_queue_capacity_absorbs_short_bursts(self):
        # A burst smaller than the queue does not stall the producer.
        epochs = stream((100, 100), (100_000, 0))
        report = TwoCoreQueueSimulator(
            LbaParameters(name="x", mean_overhead=3.38, queue_entries=1024),
            filtered=True,
        ).run(epochs)
        assert report.stall_cycles == 0

    def test_fp_rate_adds_events(self):
        epochs = stream((100_000, 0))
        report = TwoCoreQueueSimulator(
            LBA_SIMPLE, filtered=True, fp_rate=0.01
        ).run(epochs)
        assert report.events_enqueued == pytest.approx(1000, rel=0.05)


class TestFigure15Shape:
    def test_platch_beats_baseline_on_all_workloads(self):
        for name in ("astar", "bzip2", "apache", "curl", "mySQL"):
            generator = WorkloadGenerator(get_profile(name))
            report = analytic_platch(generator.epoch_stream(5_000_000))
            assert report.overhead < 3.38, name

    def test_taint_fraction_orders_monitored_fraction(self):
        def monitored(name):
            generator = WorkloadGenerator(get_profile(name))
            return analytic_platch(
                generator.epoch_stream(5_000_000)
            ).monitored_fraction

        assert monitored("astar") > monitored("gcc") > monitored("gobmk")


def per_epoch_lindley(simulator, stream):
    """Test oracle: a standalone per-epoch Lindley loop.

    Returns ``(events_enqueued, stall_cycles)`` computed by its own
    vectorised work array and loop, independent of
    :class:`repro.pipeline.model.StallModel`.
    """
    baseline = simulator.baseline
    analysis = baseline.analysis_cycles_per_event
    capacity_cycles = baseline.queue_entries * analysis
    lengths = stream.lengths.astype(np.float64)
    marks = stream.tainted_counts.astype(np.float64)
    if simulator.filtered:
        events = marks + (lengths - marks) * simulator.fp_rate
    else:
        events = lengths * baseline.events_per_instruction
    work = events * analysis
    backlog = 0.0
    stall = 0.0
    for index in range(len(lengths)):
        backlog = backlog + work[index] - lengths[index]
        if backlog < 0.0:
            backlog = 0.0
        elif backlog > capacity_cycles:
            stall += backlog - capacity_cycles
            backlog = capacity_cycles
    return int(float(events.sum())), int(stall)


#: Figure 15's workloads: every SPEC and network profile.
FIG15_PROFILES = [
    profile.name for profile in all_profiles()
    if profile.kind in ("spec", "network")
]

ORACLE_BASELINES = (
    LBA_SIMPLE,
    LBA_OPTIMIZED,
    LbaParameters(name="q4", mean_overhead=3.38, queue_entries=4),
)


class TestQueueSimulatorOracle:
    @pytest.mark.parametrize("name", FIG15_PROFILES)
    def test_matches_per_epoch_oracle_exactly(self, name):
        """StallModel stepped per epoch == the standalone loop, for
        every baseline, filtered and unfiltered, at fp_rate 0.01."""
        epochs = WorkloadGenerator(get_profile(name)).epoch_stream(500_000)
        for baseline in ORACLE_BASELINES:
            for filtered in (True, False):
                simulator = TwoCoreQueueSimulator(
                    baseline, filtered=filtered, fp_rate=0.01
                )
                report = simulator.run(epochs)
                assert (report.events_enqueued, report.stall_cycles) == (
                    per_epoch_lindley(simulator, epochs)
                ), (baseline.name, filtered)

    def test_matrix_covers_figure15(self):
        assert len(FIG15_PROFILES) * len(ORACLE_BASELINES) * 2 == 162
