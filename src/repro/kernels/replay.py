"""Window replay: stateless shard summaries and their exact merge.

Every offline replay goes through the two halves here — ``run_hlatch``,
``run_baseline`` and ``measure_hw_rates`` as one shard over the whole
window, :mod:`repro.trace.replay` as many:

* :func:`shard_partial` — the **stateless** work over one access slice:
  the pure-CTT kernels (TLB screen flags, CTC probe flags, taint-cache
  line flattening), with every LRU lookup sequence run-compressed to
  its boundary runs.  Shards can run anywhere, in any order.
* :func:`merge_partials` / :func:`merge_latch_partials` /
  :func:`merge_baseline_partials` — the **stateful** merge: each
  structure's runs go through one resumable
  :class:`~repro.kernels.lru.LruState` in shard order, and the counters
  land in the stats objects the per-access models mutate, so metric
  publication (and the snapshots the runner caches) is shared verbatim
  with the per-access path.

The merge is *exact* for **any** shard plan (see
:class:`~repro.kernels.lru.LruState`): the counters are bit-identical
to one ``check_memory`` / ``access`` call per access, the oracles in
``tests/kernel_oracles.py``.  Precondition: a frozen CTT (no tag writes
interleave with checks) and cold structures — what
``LatchModule.bulk_load_domains`` or a fresh system leaves behind.
Only statistics are reconstructed, not cache contents: a replayed
system is a measurement artefact, not a warm simulator.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.kernels import classify
from repro.kernels import ctc as ctc_kernel
from repro.kernels import tcache as tcache_kernel
from repro.kernels import tlb as tlb_kernel
from repro.kernels.backend import observe_batch
from repro.kernels.lru import LruState, run_boundaries

_MASK32 = 0xFFFFFFFF


def _empty_ids() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


def _empty_flags() -> np.ndarray:
    return np.empty(0, dtype=bool)


@dataclass
class ShardPartial:
    """The order-independent summary one shard contributes to the merge.

    Array fields are run-compressed boundary sequences; everything else
    is an additive counter (except ``last_positive_address``, where the
    *last* shard carrying one wins, matching the scalar path's
    last-write semantics).  A half :func:`shard_partial` skipped keeps
    its zero defaults.  ``coarse`` holds the per-access coarse verdicts
    for in-process callers; it never travels on the wire.
    """

    count: int
    tlb_checks: int = 0
    tlb_hot_checks: int = 0
    tlb_count: int = 0
    tlb_runs: np.ndarray = field(default_factory=_empty_ids)
    hot_count: int = 0
    ctc_count: int = 0
    ctc_runs: np.ndarray = field(default_factory=_empty_ids)
    positives: int = 0
    last_positive_address: Optional[int] = None
    tcache_count: int = 0
    tcache_runs: np.ndarray = field(default_factory=_empty_ids)
    tcache_run_writes: np.ndarray = field(default_factory=_empty_flags)
    baseline_count: int = 0
    baseline_runs: Optional[np.ndarray] = None
    baseline_run_writes: Optional[np.ndarray] = None
    coarse: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )

    # --------------------------------------------------------------- wire

    def to_wire(self) -> Dict[str, object]:
        """JSON-safe form (base64 arrays) for pool-worker transport."""
        payload: Dict[str, object] = {
            name: getattr(self, name) for name in _WIRE_COUNTERS
        }
        for name in _WIRE_ARRAYS:
            payload[name] = _encode_array(getattr(self, name))
        return payload

    @classmethod
    def from_wire(cls, payload: Dict[str, object]) -> "ShardPartial":
        """Inverse of :meth:`to_wire`."""
        values = {
            name: None if payload[name] is None else int(payload[name])
            for name in _WIRE_COUNTERS
        }
        for name in _WIRE_ARRAYS:
            values[name] = _decode_array(payload[name])
        return cls(**values)


#: :class:`ShardPartial` fields on the wire, in payload order.
_WIRE_COUNTERS = (
    "count", "tlb_checks", "tlb_hot_checks", "tlb_count", "hot_count",
    "ctc_count", "positives", "last_positive_address", "tcache_count",
    "baseline_count",
)
_WIRE_ARRAYS = (
    "tlb_runs", "ctc_runs", "tcache_runs", "tcache_run_writes",
    "baseline_runs", "baseline_run_writes",
)


def _encode_array(array: Optional[np.ndarray]) -> Optional[Dict[str, str]]:
    if array is None:
        return None
    array = np.ascontiguousarray(array)
    return {
        "dtype": array.dtype.str,
        "b64": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def _decode_array(payload) -> Optional[np.ndarray]:
    if payload is None:
        return None
    return np.frombuffer(
        base64.b64decode(payload["b64"]), dtype=np.dtype(payload["dtype"])
    )


# ------------------------------------------------------------ shard work


def shard_partial(
    addresses: np.ndarray,
    sizes: np.ndarray,
    writes: Optional[np.ndarray],
    latch,
    tcache_config=None,
    baseline_config=None,
) -> ShardPartial:
    """Stateless replay work over one access slice.

    ``latch`` is a freshly bulk-loaded
    :class:`~repro.core.latch.LatchModule` used read-only (its frozen
    CTT and geometry); counters are **not** touched — everything flows
    into the returned :class:`ShardPartial`.  Each half is optional:
    ``latch=None`` skips the coarse check (and with it the precise
    cache it filters), ``tcache_config=None`` skips the precise
    :class:`~repro.hlatch.taint_cache.TaintCacheConfig` cache, and
    ``baseline_config`` adds the conventional-cache replay of the same
    slice.  ``writes`` may be None when neither cache half runs.
    """
    raw_addresses = classify.as_index_array(addresses)
    effective = classify.effective_sizes(sizes)
    if writes is not None:
        writes = np.asarray(writes, dtype=bool)
    partial = ShardPartial(count=len(raw_addresses))

    if latch is not None:
        _coarse_half(partial, raw_addresses, effective, latch)
        coarse = partial.coarse
        if tcache_config is not None:
            # The precise cache sees the *unmasked* addresses, as in the
            # scalar stack (check_memory masks internally;
            # tcache.access does not).
            (partial.tcache_count, partial.tcache_runs,
             partial.tcache_run_writes) = _cache_runs(
                raw_addresses[coarse], effective[coarse],
                None if writes is None else writes[coarse], tcache_config,
            )

    if baseline_config is not None:
        (partial.baseline_count, partial.baseline_runs,
         partial.baseline_run_writes) = _cache_runs(
            raw_addresses, effective, writes, baseline_config
        )
    return partial


def _coarse_half(partial, raw_addresses, effective, latch) -> None:
    """Fill the TLB/CTC fields and coarse verdicts of ``partial``."""
    n = partial.count
    observe_batch("classify", n)
    masked = raw_addresses & _MASK32
    geometry = latch.geometry
    ctt_index = classify.CttIndex(latch.ctt)

    if latch.tlb_bits is not None:
        screen = tlb_kernel.screen_flags(masked, effective, geometry, ctt_index)
        partial.tlb_runs, _ = run_boundaries(screen.checked_pages)
        partial.tlb_checks = screen.checks
        partial.tlb_hot_checks = screen.hot_checks
        partial.tlb_count = len(screen.checked_pages)
        page_hot = screen.page_hot
    else:
        page_hot = np.ones(n, dtype=bool)

    hot_addresses = masked[page_hot]
    probe = ctc_kernel.probe_flags(
        hot_addresses, effective[page_hot], geometry, ctt_index
    )
    partial.ctc_runs, _ = run_boundaries(probe.word_sequence)
    partial.ctc_count = len(probe.word_sequence)
    partial.hot_count = len(hot_addresses)
    partial.positives = int(probe.tainted.sum())
    if partial.positives:
        partial.last_positive_address = int(hot_addresses[probe.tainted][-1])

    partial.coarse = np.zeros(n, dtype=bool)
    partial.coarse[page_hot] = probe.tainted


def _cache_runs(addresses, sizes, writes, config):
    """``(lookups, run_ids, run_writes)`` of one taint-cache slice."""
    sequence, sequence_writes = tcache_kernel.line_sequence(
        addresses, sizes, writes, config
    )
    runs, run_writes = run_boundaries(sequence, sequence_writes)
    return len(sequence), runs, run_writes


# ----------------------------------------------------------------- merge


def _merge_structure(
    state: LruState,
    stats,
    counts: Sequence[int],
    run_lists: Sequence[np.ndarray],
    write_lists: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> None:
    """Feed per-shard boundary runs through one carry-over LRU state.

    Accumulates into a live ``CacheStats``-shaped object: per shard,
    the within-run hits the compression dropped (``count - len(runs)``)
    plus the boundary decisions of the shared state.  Read-only runs
    (no ``write_lists``) never write back.
    """
    for index, runs in enumerate(run_lists):
        run_writes = None
        if write_lists is not None:
            writes = write_lists[index]
            run_writes = None if writes is None else writes.tolist()
        boundary = state.apply_runs(runs.tolist(), run_writes)
        stats.accesses += counts[index]
        stats.hits += (counts[index] - len(runs)) + boundary.hits
        stats.misses += boundary.misses
        stats.evictions += boundary.evictions
        stats.writebacks += boundary.writebacks


def merge_latch_partials(
    partials: Sequence[ShardPartial],
    latch,
) -> None:
    """Merge the coarse-check half of shard summaries into a live
    :class:`~repro.core.latch.LatchModule`, in shard order."""
    latch.stats.memory_checks += sum(p.count for p in partials)

    if latch.tlb_bits is not None:
        latch.tlb_bits.checks += sum(p.tlb_checks for p in partials)
        latch.tlb_bits.hot_checks += sum(p.tlb_hot_checks for p in partials)
        _merge_structure(
            LruState(ways=latch.tlb_bits.tlb.entries),
            latch.tlb_bits.tlb.stats,
            [p.tlb_count for p in partials],
            [p.tlb_runs for p in partials],
        )
    latch.stats.resolved_by_tlb += sum(
        p.count - p.hot_count for p in partials
    )

    _merge_structure(
        LruState(ways=latch.ctc.entries),
        latch.ctc.stats,
        [p.ctc_count for p in partials],
        [p.ctc_runs for p in partials],
    )
    latch.stats.sent_to_precise += sum(p.positives for p in partials)
    latch.stats.resolved_by_ctc += sum(
        p.hot_count - p.positives for p in partials
    )
    for partial in partials:
        if partial.positives:
            latch.last_exception_address = partial.last_positive_address


def merge_partials(
    partials: Sequence[ShardPartial],
    system,
) -> None:
    """Merge shard summaries into a live
    :class:`~repro.hlatch.HLatchSystem`, in shard order.

    After the merge, ``system``'s counters (and therefore its snapshot
    and report) are bit-identical to driving ``system.access`` once per
    access of the whole window.
    """
    merge_latch_partials(partials, system.latch)
    config = system.tcache.config
    _merge_structure(
        LruState(ways=config.ways, num_sets=config.sets),
        system.tcache.stats,
        [p.tcache_count for p in partials],
        [p.tcache_runs for p in partials],
        [p.tcache_run_writes for p in partials],
    )


def merge_baseline_partials(
    partials: Sequence[ShardPartial],
    cache,
) -> None:
    """Merge the conventional-cache half of shard summaries into a
    :class:`~repro.hlatch.taint_cache.PreciseTaintCache`."""
    for partial in partials:
        if partial.baseline_runs is None:
            raise ValueError(
                "shard partial carries no baseline summary "
                "(shard_partial ran without baseline_config)"
            )
    config = cache.config
    _merge_structure(
        LruState(ways=config.ways, num_sets=config.sets),
        cache.stats,
        [p.baseline_count for p in partials],
        [p.baseline_runs for p in partials],
        [p.baseline_run_writes for p in partials],
    )
