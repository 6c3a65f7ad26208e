"""Whole-window replay orchestration over the real model objects.

The per-access loops that drive a :class:`~repro.core.latch.LatchModule` /
:class:`~repro.hlatch.taint_cache.PreciseTaintCache` one access at a
time are test oracles (``tests/kernel_oracles.py``).  The functions here
compute the *identical* counter outcomes with the batch kernels and
write them back into the very same stats objects
(:class:`~repro.core.latch.LatchStats`,
:class:`~repro.mem.cache.CacheStats`, …), so metric publication — and
therefore the :class:`~repro.obs.StatsSnapshot` the runner caches — is
shared verbatim with the oracles.

Precondition shared by every function: the coarse state is *frozen* for
the duration of the window (no tag writes interleave with checks) and
the simulated structures start cold — exactly the state
``LatchModule.bulk_load_domains`` (which ``bulk_load_from_shadow`` and
``HLatchSystem.load_taint`` go through) or a fresh system leaves
behind, and exactly what the oracle loops rely on as well.  The cache *contents* are
not reconstructed, only their statistics; a replayed system is a
measurement artefact, not a warm simulator to keep driving access by
access afterwards.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.kernels import classify, ctc as ctc_kernel, tcache as tcache_kernel
from repro.kernels import tlb as tlb_kernel
from repro.kernels.backend import observe_batch
from repro.kernels.lru import LruStats


def _apply_cache_stats(stats, kernel_stats: LruStats) -> None:
    """Accumulate kernel LRU counters into a live ``CacheStats``."""
    stats.accesses += kernel_stats.accesses
    stats.hits += kernel_stats.hits
    stats.misses += kernel_stats.misses
    stats.evictions += kernel_stats.evictions
    stats.writebacks += kernel_stats.writebacks


def replay_check_memory(
    latch, addresses, sizes
) -> np.ndarray:
    """Batch equivalent of ``latch.check_memory`` per access.

    Mutates ``latch``'s counters (its own :class:`LatchStats`, the CTC
    stats, the TLB taint-bit stats) exactly as the scalar loop would,
    and returns the per-access coarse-tainted flags.  The ``latch`` must
    be freshly (bulk-)loaded: cold CTC/TLB, static CTT.
    """
    addresses = classify.as_index_array(addresses) & 0xFFFFFFFF
    n = len(addresses)
    observe_batch("classify", n)
    effective = classify.effective_sizes(sizes)
    latch.stats.memory_checks += n
    if n == 0:
        return np.zeros(0, dtype=bool)

    geometry = latch.geometry
    ctt_index = classify.CttIndex(latch.ctt)

    if latch.tlb_bits is not None:
        screen = tlb_kernel.screen_window(
            addresses, effective, geometry, ctt_index,
            latch.tlb_bits.tlb.entries,
        )
        latch.tlb_bits.checks += screen.checks
        latch.tlb_bits.hot_checks += screen.hot_checks
        tlb_stats = latch.tlb_bits.tlb.stats
        tlb_stats.accesses += screen.accesses
        tlb_stats.hits += screen.hits
        tlb_stats.misses += screen.misses
        tlb_stats.evictions += screen.evictions
        page_hot = screen.page_hot
        latch.stats.resolved_by_tlb += n - int(page_hot.sum())
    else:
        page_hot = np.ones(n, dtype=bool)

    hot_addresses = addresses[page_hot]
    probe = ctc_kernel.probe_window(
        hot_addresses, effective[page_hot], geometry, ctt_index,
        latch.ctc.entries,
    )
    _apply_cache_stats(
        latch.ctc.stats,
        LruStats(probe.accesses, probe.hits, probe.misses,
                 probe.evictions, 0),
    )
    positives = int(probe.tainted.sum())
    latch.stats.sent_to_precise += positives
    latch.stats.resolved_by_ctc += len(hot_addresses) - positives
    if positives:
        latch.last_exception_address = int(hot_addresses[probe.tainted][-1])

    coarse = np.zeros(n, dtype=bool)
    coarse[page_hot] = probe.tainted
    return coarse


def replay_taint_cache(tcache, addresses, sizes, writes) -> None:
    """Batch equivalent of ``tcache.access`` per access (cold cache).

    ``tcache`` is a :class:`~repro.hlatch.taint_cache.PreciseTaintCache`
    whose stats are accumulated in place.
    """
    addresses = classify.as_index_array(addresses)
    effective = classify.effective_sizes(sizes)
    stats = tcache_kernel.simulate_window(
        addresses, effective, writes, tcache.config
    )
    _apply_cache_stats(tcache.stats, stats)


def replay_hlatch_window(system, addresses, sizes, writes) -> None:
    """Batch equivalent of ``HLatchSystem.access`` over a whole window.

    Coarse-positive accesses proceed to the precise taint cache, as in
    the scalar stack; the system must have just completed
    ``load_taint``.
    """
    addresses = classify.as_index_array(addresses)
    sizes = classify.as_index_array(sizes)
    writes = np.asarray(writes, dtype=bool)
    coarse = replay_check_memory(system.latch, addresses, sizes)
    if coarse.any():
        replay_taint_cache(
            system.tcache,
            addresses[coarse], sizes[coarse], writes[coarse],
        )
