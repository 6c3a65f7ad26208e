"""Discrete 2-core queue simulation for P-LATCH (Figure 11).

The analytic model reproduces the paper's numbers; this simulator
exposes the *mechanism*: a producer (the monitored core) appends one
event per selected instruction to a bounded FIFO, a consumer (the
monitor core) drains events at a fixed analysis cost, and the producer
stalls whenever the FIFO is full.

The simulation advances epoch by epoch through the pipeline's
:class:`repro.pipeline.model.StallModel` — the one Lindley backlog
recursion in the tree — so streams with millions of epochs complete in
seconds while remaining cycle-faithful in steady state:

* backlog grows by ``events × analysis_cycles`` per epoch and drains by
  the epoch's wall-clock duration;
* whenever the backlog exceeds the queue's cycle capacity, the producer
  stalls for the difference (that time is pure overhead).

The streaming pipeline steps the same recursion once per committed
instruction; ``tests/test_pipeline_validate.py`` pins the error of
aggregating those steps into epochs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.pipeline.model import StallModel
from repro.platch.lba import LbaParameters, LBA_SIMPLE
from repro.workloads.trace import EpochStream


@dataclass
class QueueReport:
    """Result of one 2-core queue simulation."""

    name: str
    baseline: str
    total_instructions: int
    events_enqueued: int
    stall_cycles: int
    filtered: bool

    @property
    def overhead(self) -> float:
        """Producer overhead over native execution."""
        if self.total_instructions == 0:
            return 0.0
        return self.stall_cycles / self.total_instructions

    @property
    def enqueue_fraction(self) -> float:
        """Fraction of instructions that produced a monitored event."""
        if self.total_instructions == 0:
            return 0.0
        return self.events_enqueued / self.total_instructions

    def publish_metrics(self, registry) -> None:
        """Publish the queue accounting into an obs registry."""
        registry.counter(
            "platch.queue.events_enqueued", unit="events",
            description="Events handed to the monitor core",
        ).set(self.events_enqueued)
        registry.counter(
            "platch.queue.stall_cycles", unit="cycles",
            description="Producer cycles lost to a full queue",
        ).set(self.stall_cycles)
        registry.counter(
            "platch.instructions", unit="instructions",
            description="Monitored-core instructions simulated",
        ).set(self.total_instructions)
        registry.gauge(
            "platch.queue.enqueue_frac", unit="fraction",
            description="Instructions producing a monitored event (§5.2)",
        ).set(self.enqueue_fraction)
        registry.gauge(
            "platch.overhead", unit="fraction",
            description="Producer stall overhead over native (Figure 15)",
        ).set(self.overhead)


class TwoCoreQueueSimulator:
    """Producer/consumer FIFO between monitored and monitor cores.

    Args:
        baseline: LBA configuration (queue size, analysis cost).
        filtered: if True, LATCH screening is active and only the
            coarse-positive instructions are enqueued; if False, every
            instruction is enqueued (the LBA baseline).
        fp_rate: coarse false positives per *taint-free* instruction
            (enqueued despite carrying no taint), from
            :func:`repro.slatch.simulator.measure_hw_rates`.
    """

    def __init__(
        self,
        baseline: Optional[LbaParameters] = None,
        filtered: bool = True,
        fp_rate: float = 0.0,
    ) -> None:
        self.baseline = baseline if baseline is not None else LBA_SIMPLE
        self.filtered = filtered
        self.fp_rate = fp_rate

    def run(self, stream: EpochStream, obs=None) -> QueueReport:
        """Simulate the stream; returns the stall accounting.

        With an ``obs`` :class:`repro.obs.MetricsRegistry`, the
        simulator additionally records the ``platch.queue.occupancy``
        histogram (end-of-epoch queue entries in use) and publishes the
        stall/enqueue counters; without one, the loop is untouched.
        """
        from repro.obs.queues import QueueInstruments

        model = StallModel(
            self.baseline.analysis_cycles_per_event,
            self.baseline.queue_entries,
        )
        instruments = (
            QueueInstruments(
                obs, "platch.queue",
                occupancy_description=(
                    "Monitor-queue entries in use at epoch ends"
                ),
            )
            if obs is not None
            else None
        )

        lengths = stream.lengths.astype(np.float64)
        marks = stream.tainted_counts.astype(np.float64)
        if self.filtered:
            # Taint-active epochs enqueue their taint-touching
            # instructions; taint-free instructions contribute only
            # coarse false positives.
            events = marks + (lengths - marks) * self.fp_rate
        else:
            events = lengths * self.baseline.events_per_instruction

        for epoch_events, duration in zip(events.tolist(), lengths.tolist()):
            model.commit(epoch_events, duration)
            if instruments is not None:
                instruments.record_occupancy(model.occupancy_entries)
        # Whatever backlog remains delays completion of monitoring, but
        # not the producer; the paper charges producer-visible overhead
        # only, so it is not added to the stall count.

        report = QueueReport(
            name=stream.name,
            baseline=self.baseline.name,
            total_instructions=stream.total_instructions,
            events_enqueued=int(events.sum()),
            stall_cycles=int(model.stall_cycles),
            filtered=self.filtered,
        )
        if obs is not None:
            report.publish_metrics(obs)
        return report
