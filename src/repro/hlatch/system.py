"""The H-LATCH filtered taint-caching stack (Section 5.3, Tables 6/7).

Every memory operand passes through:

1. the TLB taint bits (free — they ride with the translation);
2. on a hot page-level domain, the CTC;
3. on a coarsely tainted domain, the tiny precise taint cache.

The update path follows Figure 12: precise tag writes chain upward,
setting coarse bits when taint appears and clearing them *immediately*
(no deferred clear bits) when the last tag in a domain goes away —
H-LATCH's hardware can compute the masked AND of the remaining tags.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.latch import CheckLevel, LatchConfig, LatchModule
from repro.kernels import merge_partials, shadow_domain_ids, shard_partial
from repro.dift.tags import ShadowMemory
from repro.obs.spans import maybe_span
from repro.obs import MetricsRegistry, StatsSnapshot
from repro.hlatch.taint_cache import (
    HLATCH_TAINT_CACHE,
    PreciseTaintCache,
    TaintCacheConfig,
)
from repro.workloads.trace import AccessTrace

#: H-LATCH structural configuration from Section 6.4: a fully
#: associative CTC of 16 one-word lines (64 B), 128-entry TLB with taint
#: bits, and 64-byte domains.
HLATCH_LATCH_CONFIG = LatchConfig(
    domain_size=64,
    ctc_entries=16,
    tlb_entries=128,
    use_tlb_bits=True,
)


@dataclass
class HLatchReport:
    """One benchmark's row of Tables 6/7 plus the Figure 16 split."""

    name: str
    accesses: int
    ctc_misses: int
    tcache_accesses: int
    tcache_misses: int
    resolved_by_tlb: int
    resolved_by_ctc: int
    sent_to_precise: int

    @property
    def ctc_miss_percent(self) -> float:
        """CTC misses as a percentage of all memory accesses."""
        return self._pct(self.ctc_misses)

    @property
    def tcache_miss_percent(self) -> float:
        """Precise taint-cache misses as a percentage of all accesses."""
        return self._pct(self.tcache_misses)

    @property
    def combined_miss_percent(self) -> float:
        """CTC + precise misses as a percentage of all accesses."""
        return self._pct(self.ctc_misses + self.tcache_misses)

    def _pct(self, value: int) -> float:
        return value / self.accesses * 100.0 if self.accesses else 0.0

    def resolution_split(self) -> Dict[str, float]:
        """Figure 16: fraction of accesses handled per stack level."""
        if self.accesses == 0:
            return {"tlb": 0.0, "ctc": 0.0, "precise": 0.0}
        return {
            "tlb": self.resolved_by_tlb / self.accesses,
            "ctc": self.resolved_by_ctc / self.accesses,
            "precise": self.sent_to_precise / self.accesses,
        }

    def misses_avoided_percent(self, baseline_misses: int) -> float:
        """Percentage of the baseline's misses H-LATCH eliminates."""
        if baseline_misses == 0:
            return 0.0
        avoided = baseline_misses - (self.ctc_misses + self.tcache_misses)
        return avoided / baseline_misses * 100.0

    @classmethod
    def from_snapshot(cls, name: str, snapshot: StatsSnapshot) -> "HLatchReport":
        """Build a report row from a :class:`repro.obs.StatsSnapshot`.

        This is the Tables 6/7 ↔ obs bridge: the report consumes the
        published metrics rather than re-counting from the structures.
        """
        return cls(
            name=name,
            accesses=int(snapshot.get("latch.memory_checks", 0)),
            ctc_misses=int(snapshot.get("ctc.misses", 0)),
            tcache_accesses=int(snapshot.get("hlatch.tcache.accesses", 0)),
            tcache_misses=int(snapshot.get("hlatch.tcache.misses", 0)),
            resolved_by_tlb=int(snapshot.get("latch.resolved_by_tlb", 0)),
            resolved_by_ctc=int(snapshot.get("latch.resolved_by_ctc", 0)),
            sent_to_precise=int(snapshot.get("latch.sent_to_precise", 0)),
        )


class HLatchSystem:
    """LATCH-filtered hardware taint checking.

    Args:
        latch_config: structural parameters of the LATCH module.
        tcache_config: geometry of the precise taint cache.
    """

    def __init__(
        self,
        latch_config: LatchConfig = HLATCH_LATCH_CONFIG,
        tcache_config: TaintCacheConfig = HLATCH_TAINT_CACHE,
    ) -> None:
        self.latch = LatchModule(latch_config)
        self.tcache = PreciseTaintCache(tcache_config)
        self.shadow = ShadowMemory()

    # ------------------------------------------------------------- set-up

    def load_taint(self, layout) -> None:
        """Install a workload's taint layout into precise + coarse state."""
        self.shadow.fill_extents(layout.extents)
        self.latch.bulk_load_domains(
            shadow_domain_ids(layout.extents, self.latch.geometry.domain_size)
        )

    # ------------------------------------------------------------- checks

    def access(self, address: int, size: int = 1, write: bool = False) -> CheckLevel:
        """Check one memory operand through the full stack.

        Returns the level that resolved the access.
        """
        result = self.latch.check_memory(address, size)
        if result.coarse_tainted:
            self.tcache.access(address, size=size, write=write)
        return result.level

    # ------------------------------------------------------------- updates

    def write_tags(self, address: int, tags: bytes) -> None:
        """Propagate a precise tag write up the stack (Figure 12)."""
        self.shadow.set_tags(address, tags)
        self.latch.update_memory_tags(
            address,
            tags,
            defer_clear=False,
            clean_oracle=self.shadow.region_clean,
        )

    # ------------------------------------------------------------- metrics

    def publish_metrics(self, registry: MetricsRegistry) -> MetricsRegistry:
        """Publish the full H-LATCH stack into an obs registry."""
        self.latch.publish_metrics(registry)
        self.tcache.publish_metrics(registry)
        return registry

    def snapshot(self) -> StatsSnapshot:
        """Freeze the stack's counters into a fresh snapshot."""
        return self.publish_metrics(MetricsRegistry()).snapshot()

    def report(self, name: str) -> HLatchReport:
        """Snapshot the counters into a benchmark report.

        Goes through :meth:`snapshot`, so the report rows are exactly
        the published ``docs/OBSERVABILITY.md`` metrics.
        """
        return HLatchReport.from_snapshot(name, self.snapshot())


def run_hlatch(
    trace: AccessTrace,
    latch_config: LatchConfig = HLATCH_LATCH_CONFIG,
    tcache_config: TaintCacheConfig = HLATCH_TAINT_CACHE,
) -> HLatchReport:
    """Replay an access trace through the H-LATCH stack (batch kernels,
    the whole window as one shard)."""
    system = HLatchSystem(latch_config, tcache_config)
    system.load_taint(trace.layout)
    addresses = trace.addresses
    with maybe_span("hlatch.replay", workload=trace.name,
                    accesses=int(len(addresses))):
        partial = shard_partial(
            addresses, trace.sizes, trace.is_write, system.latch,
            tcache_config,
        )
        merge_partials([partial], system)
    return system.report(trace.name)
