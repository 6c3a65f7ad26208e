"""The LATCH gating stage: admit or suppress each committed instruction.

An instruction must reach the precise monitor iff any of:

* a source register is tainted in the (conservative) TRF;
* a memory operand hits a coarsely tainted domain;
* a memory operand is covered by a queued-but-unanalysed write (the
  pending-update FIFO guard against false negatives from queue lag);
* a written register is currently marked tainted (the instruction
  changes taint state by overwriting it).

The memory-operand verdict is the CTT bit itself: one
:meth:`~repro.core.ctt.CoarseTaintTable.any_domain_tainted` probe per
memory operand.  The CTC and the TLB taint bits only cache that bit —
under the pipeline's immediate-clear discipline the CTC always resolves
to it and the TLB screen is a conservative refinement of it — so the
gate skips them and leaves their cost counters untouched; S-LATCH and
H-LATCH replay (``measure_hw_rates``, ``run_hlatch``) measure those
structures.  The P-LATCH stall model charges only analysis cycles per
queued event.

Each instruction is decided at commit against the coarse state as it
stands then (§5.2, Fig. 11-b); the CTT is probed only when the register
check misses and the instruction has a memory operand.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def __init__(self, latch, pending) -> None:
        self.latch = latch
        self.pending = pending
        self.stats = GateStats()

    # -------------------------------------------------------------- flags

    def memory_flags(self, event: StepEvent) -> bool:
        """The CTT verdict for ``event``'s memory operands, probed now."""
        tainted = self.latch.ctt.any_domain_tainted
        return any(
            tainted(access.address, access.size)
            for access in event.memory_accesses
        )

    # -------------------------------------------------------------- admit

    def admit(self, event: StepEvent) -> bool:
        """Decide one step event; updates the per-reason accounting."""
        self.stats.steps += 1
        if bool(event.regs_read) and self.latch.trf.any_tainted(
            event.regs_read
        ):
            self.stats.register_hits += 1
            return True
        if (event.reads or event.writes) and self.memory_flags(event):
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

    # -------------------------------------------------------------- quiet

    def quiet_snapshot(self):
        """The gate's inputs, frozen, for a quiet stretch.

        Returns ``(register_mask, memory_probe)`` in the sense of
        :meth:`repro.machine.events.Observer.quiet_snapshot`.  An
        instruction that uses no register in the TRF mask and whose
        memory operand the probe clears is one :meth:`admit` would
        suppress.  Gates that must see every event (test oracles
        overriding :meth:`memory_flags`) return ``None`` instead.
        """
        tainted = self.latch.ctt.any_domain_tainted
        probe = tainted
        if len(self.pending):
            covers = self.pending.covers

            def probe(address: int, size: int) -> bool:
                return tainted(address, size) or covers(address, size)
        return self.latch.trf.register_mask(), probe

    def suppress(self, count: int) -> None:
        """Account ``count`` instructions suppressed in a quiet stretch."""
        self.stats.steps += count
        self.stats.suppressed += count
