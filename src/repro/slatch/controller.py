"""The functional S-LATCH system: hardware/software mode switching.

:class:`SLatchSystem` reproduces Figure 9's operation on the toy
machine:

1. In **hardware mode**, every committed instruction's register operands
   are checked against the TRF and its memory operands against the
   coarse taint state (TLB bits → CTC).  Nothing else runs: execution
   proceeds at native speed.
2. A coarse positive raises an exception.  The handler validates it
   against the **precise** taint state: a false positive is dismissed
   (counted, costed, no switch); a true positive transfers control to
   the instrumented image — **software mode**.
3. In software mode, the libdft-equivalent engine propagates byte-precise
   taint for every instruction; its tag writes are mirrored into the CTT
   through the ``stnt`` path (keeping the coarse state a superset of the
   precise state).
4. After ``timeout`` consecutive instructions without touching taint,
   the software layer reconciles the taint-clear bits, reloads the TRF
   (``strf``), and returns to hardware mode.

Precision guarantee: because hardware mode traps on *any* coarse
positive and clears the destination taint of the clean instructions it
commits, the system observes exactly the taint flows a pure software
tracker observes.  ``tests/test_differential.py`` verifies alert-for-alert
equivalence against a reference :class:`repro.dift.DIFTEngine`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.latch import LatchConfig, LatchModule
from repro.dift.engine import DIFTEngine
from repro.dift.policy import TaintPolicy
from repro.machine.cpu import CPU, LatchPort
from repro.machine.events import InputEvent, Observer, OutputEvent, StepEvent
from repro.obs import MetricsRegistry, StatsSnapshot, Tracer
from repro.slatch.costs import SLatchCostModel


class Mode(enum.Enum):
    """Current execution mode of the monitored program."""

    HARDWARE = "hardware"
    SOFTWARE = "software"


@dataclass
class SLatchCounters:
    """Event counts accumulated by the functional system."""

    hw_instructions: int = 0
    sw_instructions: int = 0
    traps: int = 0
    returns: int = 0
    false_positives: int = 0
    reconciled_domains: int = 0

    @property
    def total_instructions(self) -> int:
        """All committed instructions."""
        return self.hw_instructions + self.sw_instructions

    @property
    def sw_fraction(self) -> float:
        """Fraction of instructions run under software monitoring."""
        total = self.total_instructions
        return self.sw_instructions / total if total else 0.0


class SLatchSystem(Observer, LatchPort):
    """LATCH-gated software DIFT attached to one CPU.

    Args:
        cpu: the machine running the monitored program.
        policy: DIFT source/sink policy.
        latch_config: LATCH structural parameters (paper defaults).
        costs: cycle cost model (drives the cycle estimate only; the
            functional behaviour depends only on ``timeout_instructions``).
        obs: metrics registry to record into (a private one is created
            when omitted); epoch-duration histograms live here and the
            counters are published on :meth:`snapshot`.
        tracer: optional :class:`repro.obs.Tracer` receiving a
            ``slatch.trap`` / ``slatch.return`` event per mode switch.
    """

    def __init__(
        self,
        cpu: CPU,
        policy: Optional[TaintPolicy] = None,
        latch_config: Optional[LatchConfig] = None,
        costs: Optional[SLatchCostModel] = None,
        timeout_policy=None,
        obs: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        from repro.slatch.timeout import FixedTimeout

        self.cpu = cpu
        self.engine = DIFTEngine(policy)
        self.latch = LatchModule(latch_config)
        self.costs = costs if costs is not None else SLatchCostModel()
        self.timeout_policy = (
            timeout_policy
            if timeout_policy is not None
            else FixedTimeout(self.costs.timeout_instructions)
        )
        self.mode = Mode.HARDWARE
        self.counters = SLatchCounters()
        self.extra_cycles = 0
        self._quiet_streak = 0
        self._hw_span = 0
        self._sw_span = 0
        self.obs = obs if obs is not None else MetricsRegistry()
        self.tracer = tracer
        self._hw_epochs = self.obs.histogram(
            "slatch.epoch.hw_duration", unit="instructions",
            description="Completed hardware-mode epoch lengths (Figure 5)",
        )
        self._sw_epochs = self.obs.histogram(
            "slatch.epoch.sw_duration", unit="instructions",
            description="Completed software-mode epoch lengths",
        )
        self.engine.add_tag_listener(self._on_tag_write)
        cpu.attach(self)
        cpu.latch_port = self

    # ------------------------------------------------------ LatchPort ISA

    def set_trf(self, mask: int) -> None:
        """``strf``: reload the hardware TRF from a register mask."""
        self.latch.set_trf_mask(mask)

    def set_taint(self, address: int, value: int) -> None:
        """``stnt``: update precise + coarse taint for one byte."""
        tag = value & 0xFF
        self.engine.shadow.set(address, tag)
        self.latch.update_memory_tags(address, bytes([tag]))

    def last_exception_address(self) -> int:
        """``ltnt``: address of the most recent coarse exception."""
        return self.latch.last_exception_address

    # ------------------------------------------------------------ observer

    def on_input(self, event: InputEvent) -> None:
        """Taint initialisation: precise via the engine, coarse mirrored."""
        self.engine.on_input(event)
        # Taint arriving while in hardware mode is an asynchronous update
        # (the kernel driver performs stnt stores); the engine's tag
        # listener already mirrored it into the CTT.

    def on_output(self, event: OutputEvent) -> None:
        """Sink checks always run (they are syscall-level, not per-insn)."""
        self.engine.on_output(event)

    def on_step(self, event: StepEvent) -> None:
        """Per-instruction hardware check or software propagation."""
        if self.mode == Mode.SOFTWARE:
            self._software_step(event)
            return
        self._hardware_step(event)

    # ------------------------------------------------------------- modes

    def _hardware_step(self, event: StepEvent) -> None:
        self._hw_span += 1
        check = self.latch.check_step(event)
        if not check.coarse_tainted:
            self.counters.hw_instructions += 1
            # Clean instruction: its destinations are clean by
            # construction; keep both TRFs coherent so stale register
            # taint cannot linger.
            for register in event.regs_written:
                self.latch.trf.clear(register)
                self.engine.trf.clear(register)
            return
        # Coarse exception: screen against the precise state.
        if self._is_false_positive(event):
            self.counters.false_positives += 1
            self.counters.hw_instructions += 1
            self.extra_cycles += self.costs.fp_check_cycles
            for register in event.regs_written:
                self.latch.trf.clear(register)
                self.engine.trf.clear(register)
            return
        # True positive: transfer control to the instrumented image and
        # replay this instruction under software monitoring.
        self.counters.traps += 1
        self.extra_cycles += self.costs.trap_cycles
        self.timeout_policy.on_retrap(self._hw_span)
        self._hw_epochs.record(self._hw_span)
        if self.tracer is not None:
            self.tracer.event(
                "slatch.trap", pc=event.pc, step=event.index,
                hw_span=self._hw_span,
            )
        self._hw_span = 0
        self._sw_span = 0
        self.mode = Mode.SOFTWARE
        self._quiet_streak = 0
        self._software_step(event)

    def _is_false_positive(self, event: StepEvent) -> bool:
        if self.engine.trf.any_tainted(event.regs_read):
            return False
        for access in event.memory_accesses:
            if self.engine.shadow.any_tainted(access.address, access.size):
                return False
        return True

    def _software_step(self, event: StepEvent) -> None:
        self.counters.sw_instructions += 1
        self._sw_span += 1
        self.engine.on_step(event)
        if self.engine.last_touched:
            self._quiet_streak = 0
        else:
            self._quiet_streak += 1
            if self._quiet_streak >= self.timeout_policy.threshold():
                self._return_to_hardware()

    def _return_to_hardware(self) -> None:
        self.counters.returns += 1
        self.extra_cycles += self.costs.return_cycles
        reconciled = self.latch.reconcile_clears(self.engine.shadow.region_clean)
        self.counters.reconciled_domains += reconciled
        self._sw_epochs.record(self._sw_span)
        if self.tracer is not None:
            self.tracer.event(
                "slatch.return", sw_span=self._sw_span,
                reconciled_domains=reconciled,
            )
        # strf: reload the hardware TRF from the precise register taint.
        self.latch.set_trf_mask(self.engine.trf.register_mask())
        self.timeout_policy.on_return()
        self.mode = Mode.HARDWARE
        self._quiet_streak = 0
        self._hw_span = 0
        self._sw_span = 0

    def _on_tag_write(self, address: int, tags: bytes) -> None:
        self.latch.update_memory_tags(address, tags)

    # ------------------------------------------------------------ metrics

    def publish_metrics(self, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
        """Publish the system's counters into ``registry``.

        Defaults to the system's own :attr:`obs` registry (where the
        epoch-duration histograms already live).  Also publishes the
        LATCH module beneath and the CPU's execution counters, so one
        snapshot covers the whole stack.
        """
        registry = registry if registry is not None else self.obs
        counters = self.counters
        registry.counter(
            "slatch.hw_instructions", unit="instructions",
            description="Instructions committed in hardware mode",
        ).set(counters.hw_instructions)
        registry.counter(
            "slatch.sw_instructions", unit="instructions",
            description="Instructions committed under software DIFT",
        ).set(counters.sw_instructions)
        registry.counter(
            "slatch.traps", unit="events",
            description="HW→SW control transfers (coarse true positives)",
        ).set(counters.traps)
        registry.counter(
            "slatch.timeout_fires", unit="events",
            description="SW→HW returns after the quiet-streak timeout",
        ).set(counters.returns)
        registry.counter(
            "slatch.false_positives", unit="events",
            description="Coarse exceptions dismissed against precise state",
        ).set(counters.false_positives)
        registry.counter(
            "slatch.reconciled_domains", unit="domains",
            description="Domains cleared by clear-bit reconciles (§5.1.4)",
        ).set(counters.reconciled_domains)
        registry.gauge(
            "slatch.sw_fraction", unit="fraction",
            description="Instructions under software monitoring (Fig. 13)",
            callback=lambda: self.counters.sw_fraction,
        )
        self.latch.publish_metrics(registry)
        self.cpu.publish_metrics(registry)
        return registry

    def snapshot(self) -> StatsSnapshot:
        """Publish all counters and freeze :attr:`obs` into a snapshot."""
        return self.publish_metrics().snapshot()

    # ------------------------------------------------------------ reports

    @property
    def alerts(self) -> List:
        """Security alerts raised so far."""
        return self.engine.alerts
