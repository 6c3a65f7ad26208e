"""Per-instruction vs per-epoch stepping of the one P-LATCH queue model.

The streaming pipeline steps :class:`repro.pipeline.model.StallModel`
once per committed instruction; Figure 15's
:class:`repro.platch.queue_sim.TwoCoreQueueSimulator` steps the same
recursion once per epoch.  These tests record the pipeline's
per-instruction contributions by wrapping ``StallModel.commit``,
aggregate them into epochs of 1, 10, 100 and 1000 instructions, and
replay the result through the simulator.  That pins the aggregation
error: none at epoch 1, and within 10% plus one epoch's worth of
monitor work at coarser epochs.
"""

import numpy as np

from repro.pipeline import PipelineConfig, StreamingPipeline
from repro.platch.lba import LbaParameters
from repro.platch.queue_sim import TwoCoreQueueSimulator
from repro.workloads import programs
from repro.workloads.trace import EpochStream

#: Aggregation error budget at coarse epochs: relative part.
RELATIVE_TOLERANCE = 0.10

SATURATED = dict(queue_capacity=4, drain_batch=64)


def run_recorded(build, **config_kwargs):
    """Run ``build`` under a pipeline; return it and its commit log.

    The log holds one ``(events, cycles)`` pair per ``commit`` call.
    """
    scenario = build()
    cpu = scenario.make_cpu()
    pipeline = StreamingPipeline(cpu, config=PipelineConfig(**config_kwargs))
    commits = []
    commit = pipeline.model.commit

    def recording_commit(events, cycles=1.0):
        commits.append((events, cycles))
        commit(events, cycles)

    pipeline.model.commit = recording_commit
    cpu.run(300_000)
    pipeline.finish()
    return pipeline, commits


def aggregate(commits, epoch):
    """Fold the commit log into an epoch stream of ``epoch`` instructions.

    Events committed with no producer cycle (``cycles == 0``) join the
    open epoch; a trailing partial epoch is kept.
    """
    lengths, events = [], []
    length = count = 0
    for contributed, cycles in commits:
        length += int(cycles)
        count += contributed
        if length >= epoch:
            lengths.append(length)
            events.append(count)
            length = count = 0
    if length or count:
        lengths.append(length)
        events.append(count)
    return EpochStream(
        name="pipeline",
        lengths=np.array(lengths, dtype=np.int64),
        tainted_counts=np.array(events, dtype=np.int64),
    )


def replay(pipeline, stream):
    """Per-epoch stepping of the pipeline's queue model."""
    config = pipeline.config
    baseline = LbaParameters(
        name=f"pipeline-q{config.queue_capacity}",
        mean_overhead=config.analysis_cycles_per_event - 1.0,
        queue_entries=config.queue_capacity,
    )
    return TwoCoreQueueSimulator(baseline, filtered=True).run(stream)


def aggregation_error(pipeline, commits, epoch):
    """``(absolute error, error budget)`` of replaying at ``epoch``."""
    measured = int(pipeline.model.stall_cycles)
    predicted = replay(pipeline, aggregate(commits, epoch)).stall_cycles
    budget = (
        RELATIVE_TOLERANCE * measured
        + epoch * pipeline.config.analysis_cycles_per_event
    )
    return abs(predicted - measured), budget


class TestExactReplay:
    def test_epoch_one_is_exact_on_saturated_queue(self):
        pipeline, commits = run_recorded(
            lambda: programs.echo_server(), **SATURATED
        )
        assert pipeline.model.stall_cycles > 0, "need real backpressure"
        report = replay(pipeline, aggregate(commits, 1))
        assert report.stall_cycles == int(pipeline.model.stall_cycles)

    def test_epoch_one_exact_across_queue_depths(self):
        for queue_capacity in (4, 8, 16):
            pipeline, commits = run_recorded(
                lambda: programs.echo_server(),
                queue_capacity=queue_capacity, drain_batch=64,
            )
            predicted = replay(pipeline, aggregate(commits, 1)).stall_cycles
            measured = int(pipeline.model.stall_cycles)
            assert predicted == measured, (
                f"q={queue_capacity}: predicted {predicted} != "
                f"measured {measured}"
            )

    def test_clean_run_is_trivially_exact(self):
        pipeline, commits = run_recorded(
            lambda: programs.file_filter(tainted=False)
        )
        assert pipeline.model.stall_cycles == 0
        assert replay(pipeline, aggregate(commits, 1)).stall_cycles == 0


class TestEventAccounting:
    def test_model_sees_every_queued_event(self):
        pipeline, commits = run_recorded(
            lambda: programs.echo_server(), **SATURATED
        )
        queued = pipeline.stats.enqueued + pipeline.stats.control_events
        assert sum(events for events, _ in commits) == queued
        assert sum(cycles for _, cycles in commits) == (
            pipeline.stats.instructions
        )
        report = replay(pipeline, aggregate(commits, 1))
        assert report.events_enqueued == queued
        assert report.total_instructions == pipeline.stats.instructions

    def test_measured_stream_shape(self):
        pipeline, commits = run_recorded(
            lambda: programs.echo_server(), **SATURATED
        )
        stream = aggregate(commits, 100)
        assert stream.total_instructions == pipeline.stats.instructions
        assert int(sum(stream.tainted_counts)) == (
            pipeline.stats.enqueued + pipeline.stats.control_events
        )


class TestCoarseEpochTolerance:
    def test_coarse_epoch_within_documented_tolerance(self):
        pipeline, commits = run_recorded(
            lambda: programs.echo_server(), **SATURATED
        )
        for epoch in (10, 100, 1000):
            error, budget = aggregation_error(pipeline, commits, epoch)
            assert error <= budget, (
                f"epoch {epoch}: error {error} exceeds budget {budget}"
            )

    def test_tolerance_tightens_with_epoch(self):
        pipeline, commits = run_recorded(
            lambda: programs.echo_server(), **SATURATED
        )
        fine_error, fine_budget = aggregation_error(pipeline, commits, 10)
        _, coarse_budget = aggregation_error(pipeline, commits, 1000)
        assert fine_budget < coarse_budget
        assert fine_error <= fine_budget

    def test_snapshot_publishes_measured_stall_only(self):
        pipeline, _ = run_recorded(
            lambda: programs.echo_server(), **SATURATED
        )
        snapshot = pipeline.snapshot()
        assert snapshot.get("pipeline.queue.stall_cycles") == (
            int(pipeline.model.stall_cycles)
        )
        assert not [
            name for name in snapshot.names()
            if name.startswith("pipeline.model.")
        ]
