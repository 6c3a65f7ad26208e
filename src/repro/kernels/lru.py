"""Exact LRU cache simulation over precomputed id sequences.

The one part of a trace replay that numpy cannot express directly is
the cache state: whether access *i* hits depends on every access before
it.  What *can* be hoisted out of the sequential core is everything
else — which accesses reach the structure at all, which line each one
maps to, and (the big one) *run compression*: consecutive accesses to
the same line always hit and leave the LRU order unchanged, so only run
boundaries need simulating.  The paper's traces are exactly the
high-locality kind where this collapses tens of thousands of accesses
into a few hundred boundary decisions (the CTC's whole premise,
Section 4.3).

The boundary loop itself is a plain dict used as an ordered LRU list
(Python dicts preserve insertion order: re-inserting moves a key to the
MRU end, ``next(iter(...))`` is the LRU victim) — O(1) per boundary,
against the O(ways) victim scan of the reference
:class:`repro.mem.cache.SetAssociativeCache` model.

Semantics replicated exactly, validated by the equivalence harness:

* hit ⇔ resident; a miss fills the line, evicting the set's LRU line
  once the set holds ``ways`` lines;
* dirtiness: a write (hit or fill) marks the line dirty; evicting a
  dirty line counts a writeback;
* nothing is invalidated mid-sequence (true of every replay consumer),
  so residency only grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class LruStats:
    """Counters of one simulated access sequence."""

    accesses: int
    hits: int
    misses: int
    evictions: int
    writebacks: int


class LruState:
    """Resumable LRU residency state for run-boundary simulation.

    Holds the per-set ordered dicts the boundary loop mutates, so a
    single logical access sequence can be fed in several consecutive
    chunks (shards) and accumulate exactly the counters one chunk
    holding the whole sequence would.  Duplicating the id at a chunk
    boundary is harmless: the second occurrence is a guaranteed hit on
    the MRU-resident line, which exactly compensates the within-run hit
    the run compression loses by splitting the run in two, and the
    pop-reinsert of the MRU key leaves the eviction order unchanged.
    """

    __slots__ = ("ways", "num_sets", "buckets")

    def __init__(self, ways: int, num_sets: int = 1) -> None:
        self.ways = ways
        self.num_sets = num_sets
        self.buckets: List[dict] = [dict() for _ in range(num_sets)]

    def apply_runs(self, run_ids, run_writes=None) -> LruStats:
        """Feed one chunk of run-compressed boundaries through the state.

        ``run_ids`` are the line ids at run starts (one entry per run);
        ``run_writes`` the per-run dirty flags (None = read-only).  The
        returned :class:`LruStats` counts only the boundary decisions of
        this chunk — the caller adds the within-run hits it compressed
        away (``chunk_length - len(run_ids)``) and the chunk length.
        """
        if run_writes is None:
            run_writes = [False] * len(run_ids)
        hits = 0
        misses = 0
        evictions = 0
        writebacks = 0
        ways = self.ways
        buckets = self.buckets
        single = self.num_sets == 1
        bucket = buckets[0]
        for line, write in zip(run_ids, run_writes):
            if not single:
                bucket = buckets[line % self.num_sets]
            dirty = bucket.pop(line, None)
            if dirty is not None:
                hits += 1
                bucket[line] = dirty or write
                continue
            misses += 1
            if len(bucket) >= ways:
                victim = next(iter(bucket))
                if bucket.pop(victim):
                    writebacks += 1
                evictions += 1
            bucket[line] = write
        return LruStats(
            accesses=len(run_ids),
            hits=hits,
            misses=misses,
            evictions=evictions,
            writebacks=writebacks,
        )


def run_boundaries(
    ids: np.ndarray, writes: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Run-compress an id sequence to ``(run_ids, run_writes)``.

    ``run_writes`` ORs the write flags across each run (None in, None
    out) — the shard workers ship exactly this pair to the merge loop.
    """
    if len(ids) == 0:
        return np.empty(0, dtype=np.int64), (
            None if writes is None else np.empty(0, dtype=bool)
        )
    starts, _ = compress_runs(ids)
    run_ids = ids[starts]
    if writes is None:
        return run_ids, None
    writes = np.asarray(writes, dtype=bool)
    return run_ids, np.logical_or.reduceat(writes, starts)


def compress_runs(ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Run-length encode a line-id sequence.

    Returns ``(starts, run_lengths)``: indices where a new run begins
    and each run's length.  Empty input yields empty arrays.
    """
    n = len(ids)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.not_equal(ids[1:], ids[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    run_lengths = np.diff(np.append(starts, n))
    return starts, run_lengths
