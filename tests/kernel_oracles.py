"""Per-access reference loops for the :mod:`repro.kernels` batch kernels.

The product replays every window through numpy batch kernels.  The
loops here are the executable specification those kernels must match
bit for bit: one ``system.access`` / ``check_memory`` call per access,
run-length epoch segmentation one access at a time, one masked sum per
Figure 5 threshold, and a Python set per taint extent.  The workload
side has the same split: layouts are drawn one extent (and one jitter)
at a time, installed with one ``ShadowMemory.set_range`` per extent and
a shadow scan, and clustered epoch streams count events per cluster
with a masked sum.  Each oracle
takes the same arguments as the product entry point it shadows, so a
test can compare the two directly or swap the oracle in with
:func:`install_oracle_kernels`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set

import numpy as np

from repro.analysis.temporal import FIG5_THRESHOLDS
from repro.core.latch import LatchConfig, LatchModule
from repro.dift.tags import ShadowMemory
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
from repro.workloads.trace import PAGE_SIZE, EpochStream, TaintLayout

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


def fill_extents(shadow, extents, tag: int = 1) -> None:
    """Oracle for :meth:`repro.dift.tags.ShadowMemory.fill_extents`."""
    for start, length in extents:
        shadow.set_range(int(start), int(length), tag)


def to_shadow(layout) -> ShadowMemory:
    """Oracle for :meth:`repro.workloads.trace.TaintLayout.to_shadow`."""
    shadow = ShadowMemory()
    fill_extents(shadow, layout.extents)
    return shadow


def load_taint(system, layout) -> None:
    """Oracle for :meth:`repro.hlatch.system.HLatchSystem.load_taint`:
    fill the shadow per extent, then scan it into the CTT."""
    fill_extents(system.shadow, layout.extents)
    system.latch.bulk_load_from_shadow(system.shadow)


def shadow_domain_ids(extents, domain_size: int) -> np.ndarray:
    """Oracle for :func:`repro.kernels.shadow_domain_ids`: the domains
    a per-extent filled shadow has tainted, by scanning it."""
    shadow = ShadowMemory()
    fill_extents(shadow, extents)
    scan_size = min(domain_size, PAGE_SIZE)
    return shadow.tainted_domain_bases(scan_size) // domain_size


def run_hlatch(trace, latch_config=HLATCH_LATCH_CONFIG,
               tcache_config=HLATCH_TAINT_CACHE):
    """Oracle for :func:`repro.hlatch.run_hlatch`."""
    system = HLatchSystem(latch_config, tcache_config)
    load_taint(system, trace.layout)
    access_loop(system, trace.addresses, trace.sizes, trace.is_write)
    return system.report(trace.name)


def hlatch_snapshot(trace, latch_config=HLATCH_LATCH_CONFIG,
                    tcache_config=HLATCH_TAINT_CACHE):
    """The H-LATCH stack's snapshot after the per-access loop."""
    system = HLatchSystem(latch_config, tcache_config)
    load_taint(system, trace.layout)
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
    latch.bulk_load_from_shadow(to_shadow(trace.layout))
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


# ------------------------------------------------------- workload synthesis


def build_layout(generator) -> TaintLayout:
    """Oracle for ``WorkloadGenerator._build_layout``: one extent and
    one scalar jitter draw at a time."""
    from repro.workloads.generator import _seed_for

    profile = generator.profile
    rng = np.random.default_rng(_seed_for(profile.name + ":layout", generator.seed))
    pages = generator._place_pages(profile.pages_accessed)
    tainted_pages = generator._pick_tainted_pages(pages, profile.pages_tainted, rng)
    extents = []
    run = profile.taint_run_bytes
    gap = profile.taint_gap_bytes
    for page in tainted_pages:
        base = int(page) * PAGE_SIZE
        if run >= PAGE_SIZE or gap == 0:
            extents.append((base, PAGE_SIZE))
            continue
        offset = int(rng.integers(0, gap + 1))
        while offset < PAGE_SIZE:
            length = min(run, PAGE_SIZE - offset)
            extents.append((base + offset, length))
            jitter = float(rng.lognormal(mean=-0.6, sigma=1.1))
            offset += run + max(1, int(round(gap * jitter)))
    extents.sort()
    return TaintLayout(extents=extents, accessed_pages=set(pages.tolist()))


def clustered_stream(generator, free_lengths, tainted_lengths, tainted_marks, rng):
    """Oracle for ``WorkloadGenerator._clustered_stream``: one masked
    sum over every event per cluster."""
    n_tainted = len(tainted_lengths)
    order = np.argsort(free_lengths)
    separators = free_lengths[order[: max(0, n_tainted - 1)]]
    background = free_lengths[order[max(0, n_tainted - 1):]]
    rng.shuffle(background)

    per_cluster = max(1, generator.profile.cluster_size)
    n_clusters = max(1, min(len(background) - 1, n_tainted // per_cluster))
    cluster_of_event = np.sort(rng.integers(0, n_clusters, size=n_tainted))

    lengths_parts = []
    tainted_parts = []
    background_splits = np.array_split(background, n_clusters + 1)
    separator_cursor = 0
    event_cursor = 0
    for cluster_index in range(n_clusters):
        bg = background_splits[cluster_index]
        lengths_parts.append(bg)
        tainted_parts.append(np.zeros(len(bg), dtype=np.int64))
        count = int((cluster_of_event == cluster_index).sum())
        if count == 0:
            continue
        t_lengths = tainted_lengths[event_cursor : event_cursor + count]
        t_marks = tainted_marks[event_cursor : event_cursor + count]
        seps = separators[separator_cursor : separator_cursor + count - 1]
        event_cursor += count
        separator_cursor += count - 1
        size = 2 * count - 1
        chunk = np.empty(size, dtype=np.int64)
        marks = np.zeros(size, dtype=np.int64)
        chunk[0::2] = t_lengths
        chunk[1::2] = seps
        marks[0::2] = t_marks
        lengths_parts.append(chunk)
        tainted_parts.append(marks)
    tail = background_splits[n_clusters]
    lengths_parts.append(tail)
    tainted_parts.append(np.zeros(len(tail), dtype=np.int64))
    if separator_cursor < len(separators):
        rest = separators[separator_cursor:]
        lengths_parts.append(rest)
        tainted_parts.append(np.zeros(len(rest), dtype=np.int64))

    lengths = np.concatenate(lengths_parts)
    tainted_counts = np.concatenate(tainted_parts)
    keep = lengths > 0
    return EpochStream(
        name=generator.profile.name,
        lengths=lengths[keep],
        tainted_counts=tainted_counts[keep],
    )


# ------------------------------------------------------------ swapping in


def install_oracle_kernels(monkeypatch) -> None:
    """Route every product replay entry point through the loops above.

    Patches each batch kernel — and each replay entry point, whose
    product body is one :func:`~repro.kernels.replay.shard_partial`
    merged back — where its consumer looks it up, so the runner's
    suites execute end to end on the reference semantics.
    """
    monkeypatch.setattr("repro.runner.worker.run_hlatch", run_hlatch)
    monkeypatch.setattr("repro.runner.worker.run_baseline", run_baseline)
    monkeypatch.setattr(
        "repro.runner.worker.measure_hw_rates", measure_hw_rates
    )
    monkeypatch.setattr(
        "repro.analysis.temporal.duration_profile", duration_profile
    )
    monkeypatch.setattr(
        "repro.kernels.domains_from_extents", domains_from_extents
    )
    monkeypatch.setattr(
        "repro.hlatch.system.HLatchSystem.load_taint", load_taint
    )
    monkeypatch.setattr(
        "repro.workloads.generator.WorkloadGenerator._build_layout",
        build_layout,
    )
    monkeypatch.setattr(
        "repro.workloads.generator.WorkloadGenerator._clustered_stream",
        clustered_stream,
    )
