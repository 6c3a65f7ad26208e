"""The LATCH gating stage: admit or suppress each committed instruction.

An instruction must reach the precise monitor iff any of:

* a source register is tainted in the (conservative) TRF;
* a memory operand hits a coarsely tainted domain;
* a memory operand is covered by a queued-but-unanalysed write (the
  pending-update FIFO guard against false negatives from queue lag);
* a written register is currently marked tainted (the instruction
  changes taint state by overwriting it).

Two backends compute the memory-operand verdict:

* ``scalar`` — :meth:`repro.core.latch.LatchModule.check_step` per
  event, driving the CTC/TLB cost model exactly as the hardware would;
* ``vector`` — a batched pure-CTT probe: one
  :meth:`~repro.core.ctt.CoarseTaintTable.any_domain_tainted` lookup per
  memory operand, taken for the whole micro-batch at batch entry.

Under the pipeline's immediate-clear discipline the CTC always resolves
to the CTT bit and the TLB screen is a conservative refinement of it,
so both backends produce the *same admission decisions*; only the cache
cost counters differ (the vector path models a wider classification
unit and leaves the CTC/TLB untouched).  The pipeline keeps the
batch-entry verdicts sound across mid-batch drains by deferring pending
retires, or by falling back to live checks when it cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.machine.events import StepEvent


@dataclass
class GateStats:
    """Per-reason admission accounting."""

    steps: int = 0
    register_hits: int = 0
    memory_hits: int = 0
    pending_hits: int = 0
    writeback_hits: int = 0
    suppressed: int = 0

    @property
    def admitted(self) -> int:
        return self.steps - self.suppressed


class LatchGate:
    """Stage 2 of the pipeline: coarse classification of step events."""

    def __init__(self, latch, pending, backend: str) -> None:
        self.latch = latch
        self.pending = pending
        self.backend = backend
        self.stats = GateStats()

    # -------------------------------------------------------------- flags

    def memory_flags(
        self, events: Sequence[StepEvent]
    ) -> List[Optional[bool]]:
        """Precomputed memory verdict per event (vector backend only).

        The scalar backend returns ``None`` placeholders — its verdicts
        are computed live in :meth:`admit` via ``check_step`` so the
        CTC/TLB cost model sees each access at admission time.
        """
        if self.backend != "vector":
            return [None] * len(events)
        tainted = self.latch.ctt.any_domain_tainted
        return [
            any(tainted(access.address, access.size)
                for access in event.memory_accesses)
            if event.reads or event.writes else False
            for event in events
        ]

    # -------------------------------------------------------------- admit

    def admit(
        self, event: StepEvent, memory_flag: Optional[bool] = None
    ) -> bool:
        """Decide one step event; updates the per-reason accounting."""
        self.stats.steps += 1
        if memory_flag is None:
            check = self.latch.check_step(event)
            register_hit = check.register_tainted
            memory_hit = any(
                result.coarse_tainted for result in check.memory_results
            )
        else:
            register_hit = bool(event.regs_read) and self.latch.trf.any_tainted(
                event.regs_read
            )
            memory_hit = memory_flag
        if register_hit:
            self.stats.register_hits += 1
            return True
        if memory_hit:
            self.stats.memory_hits += 1
            return True
        for access in event.memory_accesses:
            if self.pending.covers(access.address, access.size):
                self.stats.pending_hits += 1
                return True
        for register in event.regs_written:
            if self.latch.trf.is_tainted(register):
                self.stats.writeback_hits += 1
                return True
        self.stats.suppressed += 1
        return False
