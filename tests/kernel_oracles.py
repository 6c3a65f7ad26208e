"""Per-access reference loops for the :mod:`repro.kernels` batch kernels.

The product replays every window through numpy batch kernels.  The
loops here are the executable specification those kernels must match
bit for bit: one ``system.access`` / ``check_memory`` call per access,
run-length epoch segmentation one access at a time, one masked sum per
Figure 5 threshold, and a Python set per taint extent.  Each oracle
takes the same arguments as the product entry point it shadows, so a
test can compare the two directly or swap the oracle in with
:func:`install_oracle_kernels`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set

import numpy as np

from repro.analysis.temporal import FIG5_THRESHOLDS
from repro.core.latch import LatchConfig, LatchModule
from repro.hlatch.baseline import BaselineReport, ConventionalTaintCache
from repro.hlatch.system import HLATCH_LATCH_CONFIG, HLatchSystem
from repro.hlatch.taint_cache import (
    CONVENTIONAL_TAINT_CACHE,
    HLATCH_TAINT_CACHE,
)
from repro.kernels.classify import (
    CttIndex,
    any_per_row,
    domain_tainted_flags,
    expand_domain_ids,
)
from repro.slatch.simulator import HwRates
from repro.workloads.trace import PAGE_SIZE, EpochStream

# ----------------------------------------------------------- window loops


def check_memory_loop(latch, addresses, sizes) -> np.ndarray:
    """``latch.check_memory`` per access; the coarse flags as an array."""
    return np.array(
        [latch.check_memory(int(address), int(size)).coarse_tainted
         for address, size in zip(addresses, sizes)],
        dtype=bool,
    )


def coarse_flags_window(
    addresses: np.ndarray,
    sizes: np.ndarray,
    domain_size: int,
    ctt_index: CttIndex,
) -> np.ndarray:
    """Per-access coarse verdicts for one window of memory accesses.

    Composes the classify primitives — ragged domain expansion, CTT-word
    gather, per-row OR — into a windowed pure-CTT classification (the
    streaming pipeline's CTT-probe gate is tested against it, verdict
    for verdict, over random CTT states).  ``sizes`` should have the
    scalar ``max(size, 1)`` floor already applied (use
    :func:`repro.kernels.classify.effective_sizes`); the result matches
    the scalar CTC walk of ``check_memory`` verdict-for-verdict whenever
    the CTT is the ground truth (the immediate-clear discipline).
    """
    flat, offsets = expand_domain_ids(addresses, sizes, domain_size)
    flags = domain_tainted_flags(flat, ctt_index)
    return any_per_row(flags, offsets)


def access_loop(system, addresses, sizes, writes) -> None:
    """``system.access`` per access (an H-LATCH stack or a taint cache)."""
    for index in range(len(addresses)):
        system.access(
            int(addresses[index]), int(sizes[index]), bool(writes[index])
        )


# ------------------------------------------------------ entry-point twins


def run_hlatch(trace, latch_config=HLATCH_LATCH_CONFIG,
               tcache_config=HLATCH_TAINT_CACHE):
    """Oracle for :func:`repro.hlatch.run_hlatch`."""
    system = HLatchSystem(latch_config, tcache_config)
    system.load_taint(trace.layout)
    access_loop(system, trace.addresses, trace.sizes, trace.is_write)
    return system.report(trace.name)


def hlatch_snapshot(trace, latch_config=HLATCH_LATCH_CONFIG,
                    tcache_config=HLATCH_TAINT_CACHE):
    """The H-LATCH stack's snapshot after the per-access loop."""
    system = HLatchSystem(latch_config, tcache_config)
    system.load_taint(trace.layout)
    access_loop(system, trace.addresses, trace.sizes, trace.is_write)
    return system.snapshot()


def run_baseline(trace, config=CONVENTIONAL_TAINT_CACHE) -> BaselineReport:
    """Oracle for :func:`repro.hlatch.run_baseline`."""
    system = ConventionalTaintCache(config)
    access_loop(system, trace.addresses, trace.sizes, trace.is_write)
    stats = system.stats
    return BaselineReport(
        name=trace.name, accesses=stats.accesses, misses=stats.misses
    )


def measure_hw_rates(trace, latch_config: Optional[LatchConfig] = None):
    """Oracle for :func:`repro.slatch.simulator.measure_hw_rates`."""
    latch = LatchModule(latch_config)
    latch.bulk_load_from_shadow(trace.layout.to_shadow())
    hw_mask = ~trace.active_epoch
    hw_instructions = int(hw_mask.sum() + trace.gap_before[hw_mask].sum())
    if hw_instructions == 0:
        return HwRates(0.0, 0.0)
    check_memory_loop(latch, trace.addresses[hw_mask], trace.sizes[hw_mask])
    return HwRates(
        fp_per_instruction=latch.stats.sent_to_precise / hw_instructions,
        ctc_miss_per_instruction=latch.ctc.stats.misses / hw_instructions,
    )


def segment_epochs(active_flags, gap_before, tainted_flags):
    """Oracle for :func:`repro.kernels.segment_epochs`."""
    lengths = []
    tainted_counts = []
    previous: Optional[bool] = None
    for index in range(len(active_flags)):
        flag = bool(active_flags[index])
        if flag != previous:
            lengths.append(0)
            tainted_counts.append(0)
            previous = flag
        lengths[-1] += 1 + int(gap_before[index])
        tainted_counts[-1] += int(bool(tainted_flags[index]))
    return (
        np.array(lengths, dtype=np.int64),
        np.array(tainted_counts, dtype=np.int64),
    )


def epoch_stream_from_trace(trace) -> EpochStream:
    """Oracle for :func:`repro.kernels.epoch_stream_from_trace`."""
    lengths, tainted_counts = segment_epochs(
        trace.active_epoch, trace.gap_before, trace.tainted
    )
    return EpochStream(
        name=trace.name, lengths=lengths, tainted_counts=tainted_counts
    )


def duration_profile(
    free_lengths, total_instructions: int, thresholds: Sequence[int]
) -> Dict[int, float]:
    """Oracle for :func:`repro.kernels.duration_profile`."""
    free_lengths = np.asarray(free_lengths, dtype=np.int64)
    return {
        threshold: float(
            free_lengths[free_lengths >= threshold].sum()
            / total_instructions * 100.0
        )
        for threshold in thresholds
    }


def epoch_duration_profile(stream, thresholds=FIG5_THRESHOLDS):
    """Oracle for :func:`repro.analysis.temporal.epoch_duration_profile`."""
    total = stream.total_instructions
    if total == 0:
        return {threshold: 0.0 for threshold in thresholds}
    return duration_profile(stream.taint_free_lengths(), total, thresholds)


def domains_from_extents(extents, domain_size: int) -> np.ndarray:
    """Oracle for :func:`repro.kernels.domains_from_extents`."""
    indices: Set[int] = set()
    for start, length in extents:
        first = start // domain_size
        last = (start + length - 1) // domain_size
        indices.update(range(first, last + 1))
    return np.fromiter(sorted(indices), dtype=np.int64, count=len(indices))


def tainted_pages(layout) -> Set[int]:
    """Oracle for :meth:`repro.workloads.trace.TaintLayout.tainted_pages`."""
    return set(domains_from_extents(layout.extents, PAGE_SIZE).tolist())


# ------------------------------------------------------------ swapping in


def install_oracle_kernels(monkeypatch) -> None:
    """Route every product replay entry point through the loops above.

    Patches each batch kernel where its consumer looks it up, so the
    runner's suites execute end to end on the reference semantics.
    """
    monkeypatch.setattr(
        "repro.hlatch.system.replay_hlatch_window", access_loop
    )
    monkeypatch.setattr(
        "repro.hlatch.baseline.replay_taint_cache", access_loop
    )
    monkeypatch.setattr(
        "repro.slatch.simulator.replay_check_memory", check_memory_loop
    )
    monkeypatch.setattr(
        "repro.analysis.temporal.duration_profile", duration_profile
    )
    monkeypatch.setattr(
        "repro.kernels.domains_from_extents", domains_from_extents
    )
