"""Shared queue instrumentation.

Both queues in the tree — the *measured* FIFO inside
:class:`repro.pipeline.StreamingPipeline` and the *modelled* backlog of
:class:`repro.platch.queue_sim.TwoCoreQueueSimulator` — expose the same
observable surface: an occupancy histogram plus depth/stall counters
published under one name prefix.  :class:`QueueInstruments` packages
that surface so the two stay in lockstep.
"""

from __future__ import annotations

from typing import Optional


class QueueInstruments:
    """Occupancy histogram + depth/stall publication under one prefix.

    Args:
        registry: the :class:`~repro.obs.metrics.MetricsRegistry` to
            publish into.
        prefix: metric-name prefix, e.g. ``"pipeline.queue"``.
        occupancy_description: catalog description for the occupancy
            histogram (the one metric recorded *during* the run rather
            than published afterwards).  It is a ``bounded`` histogram:
            O(1) memory however long the queue runs (see
            docs/OBSERVABILITY.md).
    """

    def __init__(
        self,
        registry,
        prefix: str,
        occupancy_description: str = "Queue entries in use",
    ) -> None:
        self.registry = registry
        self.prefix = prefix
        self.occupancy = registry.histogram(
            f"{prefix}.occupancy", unit="entries",
            description=occupancy_description,
            mode="bounded",
        )

    def record_occupancy(self, entries: float) -> None:
        """Record one occupancy sample (entries currently in use)."""
        self.occupancy.record(entries)

    def publish(
        self,
        *,
        depth: Optional[int] = None,
        high_water: Optional[int] = None,
        stalls: Optional[int] = None,
        stall_cycles: Optional[int] = None,
        registry=None,
    ) -> None:
        """Publish the point-in-time counters under the prefix.

        Only the keywords actually passed are published, so callers
        with no notion of (say) stall cycles do not mint empty metrics.
        ``registry`` redirects the publication (and a copy of the
        occupancy histogram) somewhere other than the recording registry.
        """
        registry = self.registry if registry is None else registry
        if registry is not self.registry:
            target = registry.histogram(
                f"{self.prefix}.occupancy", unit="entries",
                description=self.occupancy.description,
                mode="bounded",
            )
            target.reset()  # copy, don't accumulate: stays idempotent
            target.merge_from(self.occupancy)
        if depth is not None:
            registry.gauge(
                f"{self.prefix}.depth", unit="entries",
                description="Entries in the queue right now",
            ).set(depth)
        if high_water is not None:
            registry.gauge(
                f"{self.prefix}.high_water", unit="entries",
                description="Deepest the queue has been this run",
            ).set(high_water)
        if stalls is not None:
            registry.counter(
                f"{self.prefix}.stalls", unit="events",
                description="Producer stalls forced by a full queue",
            ).set(stalls)
        if stall_cycles is not None:
            registry.counter(
                f"{self.prefix}.stall_cycles", unit="cycles",
                description="Producer cycles lost to a full queue",
            ).set(stall_cycles)
