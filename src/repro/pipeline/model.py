"""The P-LATCH queue model: one Lindley backlog recursion.

A producer (the monitored core) hands events to a bounded FIFO; the
consumer (the monitor core) spends ``analysis_cycles`` on each one.
Every call to :meth:`StallModel.commit` advances the recursion by one
step of ``cycles`` producer cycles carrying ``events`` events:

* the step adds ``events x analysis_cycles`` of monitor work to the
  backlog and drains ``cycles`` of it;
* backlog is clamped at zero (idle monitor) and at the queue's cycle
  capacity — the excess above capacity is producer stall time.

This is the only copy of the recursion in the tree.  The streaming
pipeline steps it once per committed instruction (``cycles=1``) or
once per quiet stretch of n suppressed instructions (``commit(0, n)``,
bit-identical to n single steps), and
:class:`repro.platch.queue_sim.TwoCoreQueueSimulator` (Figure 15)
steps it once per epoch (``cycles`` = epoch length).
"""

from __future__ import annotations


class StallModel:
    """Lindley recursion over a bounded monitor queue."""

    def __init__(
        self, analysis_cycles_per_event: float, queue_entries: int
    ) -> None:
        self.analysis = float(analysis_cycles_per_event)
        self.queue_entries = queue_entries
        self.capacity_cycles = queue_entries * self.analysis
        self.backlog = 0.0
        self.stall_cycles = 0.0

    def commit(self, events: float, cycles: float = 1.0) -> None:
        """Advance ``cycles`` producer cycles that enqueue ``events``.

        ``cycles=0`` adds monitor work without draining a producer
        cycle (trailing control events with no committed instruction).
        """
        backlog = self.backlog + events * self.analysis - cycles
        if backlog < 0.0:
            backlog = 0.0
        elif backlog > self.capacity_cycles:
            # Producer stalls until the backlog fits the queue again.
            self.stall_cycles += backlog - self.capacity_cycles
            backlog = self.capacity_cycles
        self.backlog = backlog

    @property
    def occupancy_entries(self) -> float:
        """Current backlog expressed in queue entries."""
        return self.backlog / self.analysis
