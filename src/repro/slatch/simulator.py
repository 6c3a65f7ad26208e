"""S-LATCH performance model over workload epoch streams (Section 6.1).

The paper's evaluation framework records the proportion of instructions
executed under hardware and software monitoring and assigns overheads
accordingly.  :func:`simulate_slatch` does the same over a generated
:class:`~repro.workloads.trace.EpochStream`:

* taint-active epochs run under software monitoring (libdft slowdown);
* after each active period, software mode persists for the timeout
  (1000 instructions) before a software→hardware switch;
* taint-free instructions beyond the timeout run in hardware mode at
  native speed plus the measured false-positive and CTC-miss rates;
* every confirmed transfer pays the context-switch and code-cache costs.

Hardware-mode event rates (false positives per instruction, CTC misses
per instruction) are measured by :func:`measure_hw_rates`, which replays
the taint-free portion of the workload's access trace through a real
:class:`~repro.core.LatchModule` — mirroring how the paper's Pin-based
simulator measured them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.latch import LatchConfig, LatchModule
from repro.kernels import shadow_domain_ids
from repro.kernels.replay import merge_latch_partials, shard_partial
from repro.obs.spans import maybe_span
from repro.slatch.costs import SLatchCostModel
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.trace import AccessTrace, EpochStream


@dataclass(frozen=True)
class HwRates:
    """Hardware-mode event rates per taint-free instruction."""

    fp_per_instruction: float
    ctc_miss_per_instruction: float


@dataclass
class SLatchReport:
    """Performance estimate for one benchmark (Figures 13/14)."""

    name: str
    total_instructions: int
    sw_instructions: int
    hw_instructions: int
    traps: int
    returns: int
    libdft_slowdown: float
    # Extra-cycle components (Figure 14's breakdown).
    libdft_cycles: float
    control_transfer_cycles: float
    fp_check_cycles: float
    ctc_miss_cycles: float

    @property
    def extra_cycles(self) -> float:
        """All overhead cycles."""
        return (
            self.libdft_cycles
            + self.control_transfer_cycles
            + self.fp_check_cycles
            + self.ctc_miss_cycles
        )

    @property
    def overhead(self) -> float:
        """Execution overhead over native (1.0 = +100%)."""
        if self.total_instructions == 0:
            return 0.0
        return self.extra_cycles / self.total_instructions

    @property
    def libdft_only_overhead(self) -> float:
        """Overhead of always-on software DIFT (the Figure 13 baseline)."""
        return self.libdft_slowdown - 1.0

    @property
    def speedup_vs_libdft(self) -> float:
        """How much faster S-LATCH is than always-on software DIFT."""
        return (1.0 + self.libdft_only_overhead) / (1.0 + self.overhead)

    @property
    def sw_fraction(self) -> float:
        """Fraction of instructions under software monitoring."""
        if self.total_instructions == 0:
            return 0.0
        return self.sw_instructions / self.total_instructions

    def publish_metrics(self, registry) -> None:
        """Publish the model's estimates into an obs registry.

        Names live under ``slatch.model.*`` so a functional
        :class:`~repro.slatch.controller.SLatchSystem` run and the
        Section 6.1 analytical model can share one registry.
        """
        registry.counter(
            "slatch.model.instructions", unit="instructions",
            description="Instructions covered by the performance model",
        ).set(self.total_instructions)
        registry.counter(
            "slatch.model.sw_instructions", unit="instructions",
            description="Modelled instructions under software monitoring",
        ).set(self.sw_instructions)
        registry.counter(
            "slatch.model.traps", unit="events",
            description="Modelled HW→SW transfers",
        ).set(self.traps)
        registry.counter(
            "slatch.model.timeout_fires", unit="events",
            description="Modelled SW→HW returns (timeout expiries)",
        ).set(self.returns)
        registry.gauge(
            "slatch.model.sw_fraction", unit="fraction",
            description="Modelled software-mode share (Figure 13)",
        ).set(self.sw_fraction)
        registry.gauge(
            "slatch.model.overhead", unit="fraction",
            description="Modelled overhead over native (Figure 13)",
        ).set(self.overhead)
        registry.gauge(
            "slatch.model.speedup_vs_libdft", unit="ratio",
            description="Modelled speedup over always-on DIFT (Figure 13)",
        ).set(self.speedup_vs_libdft)
        for source, share in self.breakdown().items():
            registry.gauge(
                f"slatch.model.breakdown.{source}", unit="fraction",
                description="Share of extra cycles by source (Figure 14)",
            ).set(share)

    def breakdown(self) -> Dict[str, float]:
        """Figure 14: overhead share per source (fractions of extra cycles)."""
        extra = self.extra_cycles
        if extra == 0:
            return {"libdft": 0.0, "control_xfer": 0.0, "fp_checks": 0.0,
                    "ctc_misses": 0.0}
        return {
            "libdft": self.libdft_cycles / extra,
            "control_xfer": self.control_transfer_cycles / extra,
            "fp_checks": self.fp_check_cycles / extra,
            "ctc_misses": self.ctc_miss_cycles / extra,
        }


def measure_hw_rates(
    trace: AccessTrace,
    latch_config: Optional[LatchConfig] = None,
    latch: Optional[LatchModule] = None,
) -> HwRates:
    """Measure hardware-mode FP and CTC-miss rates from an access trace.

    Only the accesses of taint-free epochs are replayed (taint-active
    epochs run in software mode, where the CTC is written through but
    its check path is idle).

    A caller that wants the measurement module's counters afterwards
    (e.g. ``repro-stats`` publishing ``ctc.hit_rate``) can pass its own
    ``latch``; it is bulk-loaded and replayed exactly as the internally
    constructed one would be.
    """
    if latch is None:
        latch = LatchModule(latch_config)
    latch.bulk_load_domains(
        shadow_domain_ids(trace.layout.extents, latch.geometry.domain_size)
    )

    hw_mask = ~trace.active_epoch
    addresses = trace.addresses[hw_mask]
    sizes = trace.sizes[hw_mask]
    hw_instructions = int(hw_mask.sum() + trace.gap_before[hw_mask].sum())
    if hw_instructions == 0:
        return HwRates(0.0, 0.0)

    with maybe_span("slatch.hw_replay", workload=trace.name,
                    accesses=int(len(addresses))):
        merge_latch_partials(
            [shard_partial(addresses, sizes, None, latch)], latch
        )
    fp = latch.stats.sent_to_precise
    misses = latch.ctc.stats.misses
    return HwRates(
        fp_per_instruction=fp / hw_instructions,
        ctc_miss_per_instruction=misses / hw_instructions,
    )


def simulate_slatch(
    profile: WorkloadProfile,
    stream: EpochStream,
    rates: Optional[HwRates] = None,
    costs: Optional[SLatchCostModel] = None,
) -> SLatchReport:
    """Run the mode-switching performance model over an epoch stream."""
    with maybe_span("slatch.epoch_model", workload=stream.name,
                    epochs=int(stream.epoch_count)):
        return _simulate_slatch(profile, stream, rates, costs)


def _simulate_slatch(
    profile: WorkloadProfile,
    stream: EpochStream,
    rates: Optional[HwRates] = None,
    costs: Optional[SLatchCostModel] = None,
) -> SLatchReport:
    costs = costs if costs is not None else SLatchCostModel()
    rates = rates if rates is not None else HwRates(0.0, 0.0)
    timeout = costs.timeout_instructions

    lengths = stream.lengths
    tainted = stream.tainted_counts > 0
    total = int(lengths.sum())
    if total == 0 or not tainted.any():
        # Never leaves hardware mode.
        hw = total
        fp = rates.fp_per_instruction * hw
        ctc = rates.ctc_miss_per_instruction * hw
        return SLatchReport(
            name=stream.name,
            total_instructions=total,
            sw_instructions=0,
            hw_instructions=hw,
            traps=0,
            returns=0,
            libdft_slowdown=profile.libdft_slowdown,
            libdft_cycles=0.0,
            control_transfer_cycles=0.0,
            fp_check_cycles=fp * costs.fp_check_cycles,
            ctc_miss_cycles=ctc * costs.ctc_miss_penalty_cycles,
        )

    taint_positions = np.flatnonzero(tainted)
    first_taint = int(taint_positions[0])
    last_taint = int(taint_positions[-1])

    # Instructions in taint-active epochs: always software.
    sw = int(lengths[tainted].sum())

    # Leading taint-free epochs (before any taint): hardware.
    hw = int(lengths[:first_taint].sum())

    # Taint-free *runs* between consecutive taint-active epochs: the run's
    # first `timeout` instructions stay in software; a run longer than the
    # timeout causes one SW→HW switch and one HW→SW trap at its end.
    cumulative = np.concatenate(([0], np.cumsum(lengths)))
    run_totals = (
        cumulative[taint_positions[1:]] - cumulative[taint_positions[:-1] + 1]
    )
    inner_sw = np.minimum(run_totals, timeout)
    sw += int(inner_sw.sum())
    hw += int((run_totals - inner_sw).sum())
    round_trips = int((run_totals > timeout).sum())

    # Trailing taint-free epochs after the last taint: software until the
    # timeout, then one final return to hardware.
    tail_total = int(cumulative[-1] - cumulative[last_taint + 1])
    tail_sw = min(tail_total, timeout)
    sw += tail_sw
    hw += tail_total - tail_sw

    traps = 1 + round_trips  # initial trap + one per long taint-free run
    returns = round_trips + (1 if tail_total > timeout else 0)

    fp_events = rates.fp_per_instruction * hw
    ctc_misses = rates.ctc_miss_per_instruction * hw

    return SLatchReport(
        name=stream.name,
        total_instructions=total,
        sw_instructions=sw,
        hw_instructions=hw,
        traps=traps,
        returns=returns,
        libdft_slowdown=profile.libdft_slowdown,
        libdft_cycles=sw * (profile.libdft_slowdown - 1.0),
        control_transfer_cycles=(
            traps * costs.trap_cycles + returns * costs.return_cycles
        ),
        fp_check_cycles=fp_events * costs.fp_check_cycles,
        ctc_miss_cycles=ctc_misses * costs.ctc_miss_penalty_cycles,
    )


def simulate_slatch_with_policy(
    profile: WorkloadProfile,
    stream: EpochStream,
    timeout_policy,
    rates: Optional[HwRates] = None,
    costs: Optional[SLatchCostModel] = None,
) -> SLatchReport:
    """Run the performance model with a stateful timeout policy.

    Unlike :func:`simulate_slatch` (vectorised, fixed threshold), this
    variant walks the taint-free runs sequentially so an adaptive policy
    (:class:`repro.slatch.timeout.AdaptiveTimeout`) can react to each
    return/re-trap — the design-space exploration Section 5.1.3 leaves
    open.
    """
    costs = costs if costs is not None else SLatchCostModel()
    rates = rates if rates is not None else HwRates(0.0, 0.0)

    lengths = stream.lengths
    tainted = stream.tainted_counts > 0
    total = int(lengths.sum())
    if total == 0 or not tainted.any():
        return simulate_slatch(profile, stream, rates, costs)

    taint_positions = np.flatnonzero(tainted)
    first_taint = int(taint_positions[0])
    cumulative = np.concatenate(([0], np.cumsum(lengths)))
    run_totals = (
        cumulative[taint_positions[1:]] - cumulative[taint_positions[:-1] + 1]
    )
    tail_total = int(cumulative[-1] - cumulative[taint_positions[-1] + 1])

    timeout_policy.reset()
    sw = int(lengths[tainted].sum())
    hw = int(lengths[:first_taint].sum())
    traps = 1
    returns = 0
    # The leading hardware span ends in the first trap.
    timeout_policy.on_retrap(hw)
    for run_total in run_totals.tolist():
        threshold = timeout_policy.threshold()
        run_sw = min(run_total, threshold)
        run_hw = run_total - run_sw
        sw += run_sw
        hw += run_hw
        if run_hw > 0:
            returns += 1
            timeout_policy.on_return()
            traps += 1
            timeout_policy.on_retrap(run_hw)
    threshold = timeout_policy.threshold()
    tail_sw = min(tail_total, threshold)
    sw += tail_sw
    hw += tail_total - tail_sw
    if tail_total > threshold:
        returns += 1
        timeout_policy.on_return()

    fp_events = rates.fp_per_instruction * hw
    ctc_misses = rates.ctc_miss_per_instruction * hw
    return SLatchReport(
        name=stream.name,
        total_instructions=total,
        sw_instructions=sw,
        hw_instructions=hw,
        traps=traps,
        returns=returns,
        libdft_slowdown=profile.libdft_slowdown,
        libdft_cycles=sw * (profile.libdft_slowdown - 1.0),
        control_transfer_cycles=(
            traps * costs.trap_cycles + returns * costs.return_cycles
        ),
        fp_check_cycles=fp_events * costs.fp_check_cycles,
        ctc_miss_cycles=ctc_misses * costs.ctc_miss_penalty_cycles,
    )
