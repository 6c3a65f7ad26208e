"""Conventional hardware-DIFT taint caching (the Tables 6/7 baseline).

Without LATCH, *every* memory operand consults the precise taint cache —
a 4 KB structure in the FlexiTaint-style design the paper compares
against.  :func:`run_baseline` replays an access trace through such a
cache and reports its miss rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernels import merge_baseline_partials, shard_partial
from repro.obs.spans import maybe_span
from repro.hlatch.taint_cache import (
    CONVENTIONAL_TAINT_CACHE,
    PreciseTaintCache,
    TaintCacheConfig,
)
from repro.workloads.trace import AccessTrace


@dataclass
class BaselineReport:
    """Result of a conventional taint-cache run."""

    name: str
    accesses: int
    misses: int

    @property
    def miss_percent(self) -> float:
        """Misses as a percentage of all memory accesses."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses * 100.0


class ConventionalTaintCache:
    """A precise taint cache consulted on every access (no filtering)."""

    def __init__(self, config: TaintCacheConfig = CONVENTIONAL_TAINT_CACHE) -> None:
        self.cache = PreciseTaintCache(config)

    def access(self, address: int, size: int = 1, write: bool = False) -> bool:
        """Consult the taint cache for one memory operand."""
        return self.cache.access(address, size=size, write=write)

    @property
    def stats(self):
        """Underlying cache statistics."""
        return self.cache.stats


def run_baseline(
    trace: AccessTrace,
    config: TaintCacheConfig = CONVENTIONAL_TAINT_CACHE,
) -> BaselineReport:
    """Replay ``trace`` through a conventional taint cache (batch kernel,
    the whole window as one shard)."""
    addresses = trace.addresses
    with maybe_span("hlatch.baseline_replay", workload=trace.name,
                    accesses=int(len(addresses))):
        partial = shard_partial(
            addresses, trace.sizes, trace.is_write, None,
            baseline_config=config,
        )
        return merged_baseline([partial], config, trace.name)


def merged_baseline(partials, config: TaintCacheConfig, name: str):
    """The :class:`BaselineReport` of shard summaries merged in order
    into a cold conventional cache."""
    cache = PreciseTaintCache(config)
    merge_baseline_partials(partials, cache)
    return BaselineReport(
        name=name, accesses=cache.stats.accesses, misses=cache.stats.misses
    )
