"""The Coarse Taint Cache (CTC).

A tiny cache — 16 fully associative entries of one 32-bit CTT word each
in the paper's configurations (64 bytes of taint capacity mapping 32 KiB
of memory at 64-byte domains) — through which all coarse taint checks
and updates flow (Figure 8).

The CTC also carries the **taint clear bits** of Section 5.1.4: one bit
per domain bit, asserted whenever a ``stnt`` (or software tag write)
stores a zero taint status into the domain, de-asserted when a non-zero
status is written.  Domains with asserted clear bits *might* have become
fully clean; they are reconciled against the precise taint state either
when the software layer returns control to hardware, or when a line with
asserted clear bits is evicted (which raises a reconcile exception so the
bits never need to be stored in memory).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

from repro.core.ctt import CoarseTaintTable
from repro.core.domains import DOMAINS_PER_WORD, DomainGeometry
from repro.mem.cache import CacheStats, SetAssociativeCache

#: ``is_domain_clean(base_address, size)`` — precise-state oracle used to
#: reconcile clear bits (True when no byte in the domain is tainted).
DomainCleanOracle = Callable[[int, int], bool]

_MASK32 = 0xFFFFFFFF


@dataclass
class CtcLine:
    """Payload of one CTC line: a CTT word plus its clear bits."""

    word: int = 0
    clear_bits: int = 0


class CoarseTaintCache:
    """The coarse taint cache, backed by a :class:`CoarseTaintTable`.

    Args:
        geometry: domain geometry shared with the CTT.
        ctt: the backing in-memory coarse taint table.
        entries: number of (fully associative) lines; the paper uses 16.
        miss_penalty_cycles: cycles charged per CTC miss by the
            performance models (150 in the S-LATCH evaluation).
    """

    def __init__(
        self,
        geometry: DomainGeometry,
        ctt: CoarseTaintTable,
        entries: int = 16,
        miss_penalty_cycles: int = 150,
    ) -> None:
        self.geometry = geometry
        self.ctt = ctt
        self.miss_penalty_cycles = miss_penalty_cycles
        self.clear_bit_evictions = 0
        self._pending_reconcile: List[Tuple[int, int]] = []
        self._cache = SetAssociativeCache(
            num_sets=1,
            ways=entries,
            line_size=geometry.word_span,
            policy="lru",
            on_evict=self._on_evict,
        )

    # ------------------------------------------------------------- stats

    @property
    def stats(self) -> CacheStats:
        """Hit/miss statistics of the underlying cache."""
        return self._cache.stats

    def publish_metrics(self, registry) -> None:
        """Publish CTC counters into a :class:`repro.obs.MetricsRegistry`.

        Metric names and units are catalogued in
        ``docs/OBSERVABILITY.md``; the hot path keeps its native integer
        counters, so publication is pull-based and free until called.
        """
        stats = self._cache.stats
        registry.counter(
            "ctc.accesses", unit="accesses",
            description="CTC lookups (checks + write-through updates)",
        ).set(stats.accesses)
        registry.counter(
            "ctc.hits", unit="accesses", description="CTC lookups that hit"
        ).set(stats.hits)
        registry.counter(
            "ctc.misses", unit="accesses",
            description="CTC lookups that filled from the CTT",
        ).set(stats.misses)
        registry.counter(
            "ctc.evictions", unit="lines", description="CTC lines evicted"
        ).set(stats.evictions)
        registry.counter(
            "ctc.clear_bit_evictions", unit="lines",
            description="Evictions of lines with asserted clear bits "
                        "(Section 5.1.4 reconcile exceptions)",
        ).set(self.clear_bit_evictions)
        registry.gauge(
            "ctc.hit_rate", unit="fraction",
            description="CTC hits / accesses (Tables 6/7)",
            callback=lambda: self._cache.stats.hit_rate,
        )
        registry.gauge(
            "ctc.miss_rate", unit="fraction",
            description="CTC misses / accesses (Tables 6/7)",
            callback=lambda: self._cache.stats.miss_rate,
        )

    @property
    def entries(self) -> int:
        """Line capacity."""
        return self._cache.ways

    @property
    def capacity_bytes(self) -> int:
        """Taint-bit storage in bytes (one 32-bit word per line)."""
        return self._cache.capacity_lines * 4

    # ------------------------------------------------------------ checking

    def check(self, address: int) -> Tuple[bool, bool]:
        """Coarse taint check of ``address``.

        Returns ``(hit, tainted)``: whether the CTC hit, and the coarse
        taint status of the address's domain.  A miss fills the line from
        the CTT.
        """
        address &= _MASK32
        misses = self._cache.stats.misses
        line: CtcLine = self._cache.fetch(
            address, loader=self._load_line
        ).payload
        tainted = bool(line.word & (1 << self.geometry.bit_offset(address)))
        return self._cache.stats.misses == misses, tainted

    def _load_line(self, line_base: int) -> CtcLine:
        return CtcLine(word=self.ctt.word(self.geometry.word_index(line_base)))

    # ------------------------------------------------------------ updates

    def update_taint(
        self,
        address: int,
        tainted: bool,
        defer_clear: bool = True,
        clean_oracle: Optional[DomainCleanOracle] = None,
    ) -> None:
        """Write a coarse taint update through the CTC (``stnt`` path).

        Setting taint updates the domain bit in both the resident line
        and the CTT immediately.  Clearing behaviour depends on the
        integration:

        * ``defer_clear=True`` (S-LATCH): assert the line's clear bit;
          the actual CTT clear happens at :meth:`reconcile_clears`.
        * ``defer_clear=False`` (H-LATCH, Figure 12): consult
          ``clean_oracle`` and clear the domain bit right away when the
          last precise tag in the domain is gone.
        """
        address &= _MASK32
        line: CtcLine = self._cache.fetch(
            address, write=True, loader=self._load_line
        ).payload
        bit = 1 << self.geometry.bit_offset(address)
        if tainted:
            line.word |= bit
            line.clear_bits &= ~bit
            self.ctt.set_domain(address)
            return
        if defer_clear:
            if line.word & bit:
                line.clear_bits |= bit
            return
        if clean_oracle is None:
            raise ValueError("immediate clears require a clean_oracle")
        base = self.geometry.domain_base(address)
        if clean_oracle(base, self.geometry.domain_size):
            line.word &= ~bit
            line.clear_bits &= ~bit
            self.ctt.clear_domain(address)

    # -------------------------------------------------------- clear logic

    def _on_evict(self, line_base: int, cache_line) -> None:
        payload: CtcLine = cache_line.payload
        if payload is not None and payload.clear_bits:
            # Eviction of a line with asserted clear bits raises a check
            # exception (Section 5.1.4); the reconcile happens at the next
            # reconcile_clears() call, standing in for the handler.  The
            # base is masked so a reconcile never addresses an alias of
            # the evicted word.
            self.clear_bit_evictions += 1
            self._pending_reconcile.append(
                (line_base & _MASK32, payload.clear_bits)
            )

    def iter_resident(self) -> Iterator[Tuple[int, CtcLine]]:
        """Yield ``(word_index, line)`` for every resident CTC line.

        Used by the clear-bit scan and by
        :meth:`repro.core.latch.LatchModule.check_invariants`.
        """
        for bucket in self._cache._sets:
            for line in bucket.values():
                if line.payload is not None:
                    yield line.tag, line.payload

    def pending_evicted(self) -> Tuple[Tuple[int, int], ...]:
        """Snapshot of ``(line_base, clear_bits)`` for evicted clear bits."""
        return tuple(self._pending_reconcile)

    def pending_clear_domains(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(domain_base, domain_size)`` for every asserted clear bit."""
        seen = set()
        for line_base, clear_bits in self._iter_clear_sources():
            for bit in range(DOMAINS_PER_WORD):
                if clear_bits & (1 << bit):
                    base = (line_base + bit * self.geometry.domain_size) & _MASK32
                    if base not in seen:
                        seen.add(base)
                        yield base, self.geometry.domain_size

    def _iter_clear_sources(self) -> Iterator[Tuple[int, int]]:
        yield from self._pending_reconcile
        for word_index, payload in self.iter_resident():
            if payload.clear_bits:
                yield word_index * self._cache.line_size, payload.clear_bits

    def reconcile_clears(self, clean_oracle: DomainCleanOracle) -> int:
        """Resolve all asserted clear bits against the precise state.

        For every domain whose clear bit is asserted, if the precise
        state shows the domain fully clean, its CTT (and resident CTC)
        bit is cleared.  Returns the number of domains cleared.  Called
        by the S-LATCH software layer before returning to hardware mode.
        """
        cleared = 0
        for base, size in list(self.pending_clear_domains()):
            if clean_oracle(base, size):
                self.ctt.clear_domain(base)
                resident = self._cache.probe(base)
                if resident is not None:
                    bit = 1 << self.geometry.bit_offset(base)
                    resident.payload.word &= ~bit
                cleared += 1
        self._drop_clear_bits()
        return cleared

    def _drop_clear_bits(self) -> None:
        self._pending_reconcile.clear()
        for bucket in self._cache._sets:
            for line in bucket.values():
                if line.payload is not None:
                    line.payload.clear_bits = 0

    # ----------------------------------------------------------- coherence

    def refresh_resident(self, address: int) -> None:
        """Reload a resident line's word from the CTT (no stats effect).

        Used when the CTT is modified behind the CTC's back (e.g. by a
        P-LATCH monitor core committing deferred updates).
        """
        resident = self._cache.probe(address)
        if resident is not None:
            resident.payload.word = self.ctt.word(self.geometry.word_index(address))

    def invalidate(self, address: int) -> bool:
        """Drop the line covering ``address``; True if it was resident."""
        return self._cache.invalidate(address)

    def flush(self) -> None:
        """Drop every line (clear bits are discarded, not reconciled)."""
        self._cache.flush()
        self._pending_reconcile.clear()
