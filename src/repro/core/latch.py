"""The assembled LATCH hardware module (Figure 7).

:class:`LatchModule` combines the operand-extraction surface (it consumes
:class:`~repro.machine.events.StepEvent`), the taint register file, the
TLB taint bits, the CTC, and the backing CTT into the coarse checker that
all three integrations (S-LATCH, P-LATCH, H-LATCH) instantiate.

The check path for a memory operand mirrors Section 4:

1. **TLB taint bits** — if every page-level domain the access touches is
   clean, the access is resolved with zero cost beyond the translation
   that happens anyway.
2. **CTC** — otherwise the domain bits are fetched (possibly missing to
   the in-memory CTT) and consulted.
3. A set domain bit is a *coarse positive*: the precise layer must be
   invoked (it may still dismiss the event as a false positive).

Register operands are checked against the TRF in parallel.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

from repro.core.ctc import CoarseTaintCache, DomainCleanOracle
from repro.core.ctt import CoarseTaintTable
from repro.core.domains import DOMAINS_PER_WORD, DomainGeometry
from repro.core.tlb_taint import TlbTaintBits
from repro.dift.tags import TaintRegisterFile
from repro.machine.events import MemoryAccess, StepEvent


_MASK32 = 0xFFFFFFFF


class InvariantViolation(AssertionError):
    """Raised by :meth:`LatchModule.check_invariants` on incoherent state.

    Subclasses :class:`AssertionError` because a violation always means a
    bug in the LATCH implementation (or a caller mutating structures
    behind its back), never a property of the monitored program.
    """


class CheckLevel(enum.Enum):
    """The LATCH stack level at which a memory check was resolved."""

    TLB = "tlb"        # page-level bits clean: screened before the CTC
    CTC = "ctc"        # CTC consulted, domain clean
    PRECISE = "precise"  # coarse positive: precise mechanism invoked


@dataclass(frozen=True)
class LatchCheckResult:
    """Outcome of a coarse check of one memory access."""

    address: int
    size: int
    coarse_tainted: bool
    level: CheckLevel
    ctc_hit: Optional[bool] = None  # None when the TLB screened the access


@dataclass(frozen=True)
class StepCheck:
    """Outcome of checking one committed instruction."""

    register_tainted: bool
    memory_results: Tuple[LatchCheckResult, ...]

    @property
    def coarse_tainted(self) -> bool:
        """True if the instruction must trap to the precise layer."""
        return self.register_tainted or any(
            result.coarse_tainted for result in self.memory_results
        )


@dataclass
class LatchStats:
    """Counters for the LATCH check path."""

    steps_checked: int = 0
    memory_checks: int = 0
    register_positives: int = 0
    coarse_positives: int = 0
    resolved_by_tlb: int = 0
    resolved_by_ctc: int = 0
    sent_to_precise: int = 0

    def level_fractions(self) -> dict:
        """Fraction of memory checks resolved per level (Figure 16)."""
        total = self.memory_checks
        if total == 0:
            return {"tlb": 0.0, "ctc": 0.0, "precise": 0.0}
        return {
            "tlb": self.resolved_by_tlb / total,
            "ctc": self.resolved_by_ctc / total,
            "precise": self.sent_to_precise / total,
        }


@dataclass(frozen=True)
class LatchConfig:
    """Structural parameters of a LATCH instance.

    Defaults are the S-LATCH/P-LATCH configuration of Section 6.4: a
    16-entry fully associative CTC over 64-byte domains, a 128-entry TLB
    whose entries carry two page-level taint bits, and a 150-cycle CTC
    miss penalty.
    """

    domain_size: int = 64
    page_size: int = 4096
    ctc_entries: int = 16
    tlb_entries: int = 128
    use_tlb_bits: bool = True
    ctc_miss_penalty_cycles: int = 150

    def geometry(self) -> DomainGeometry:
        """Domain geometry implied by this configuration."""
        return DomainGeometry(domain_size=self.domain_size, page_size=self.page_size)


class LatchModule:
    """The core LATCH logic: coarse state plus the check/update paths."""

    def __init__(self, config: Optional[LatchConfig] = None) -> None:
        self.config = config if config is not None else LatchConfig()
        self.geometry = self.config.geometry()
        self.ctt = CoarseTaintTable(self.geometry)
        self.ctc = CoarseTaintCache(
            self.geometry,
            self.ctt,
            entries=self.config.ctc_entries,
            miss_penalty_cycles=self.config.ctc_miss_penalty_cycles,
        )
        self.tlb_bits: Optional[TlbTaintBits] = (
            TlbTaintBits(self.geometry, self.ctt, self.config.tlb_entries)
            if self.config.use_tlb_bits
            else None
        )
        self.trf = TaintRegisterFile()
        self.stats = LatchStats()
        self.last_exception_address = 0

    # ------------------------------------------------------------ checking

    def check_memory(self, address: int, size: int = 1) -> LatchCheckResult:
        """Coarse-check one memory access (all domains it overlaps).

        Accesses may wrap past the top of the 32-bit address space (the
        machine's memory wraps); the walk visits the wrapped-around
        domains under their canonical addresses, so the CTC and TLB
        never see alias addresses for the same domain.
        """
        self.stats.memory_checks += 1
        size = max(size, 1)
        address &= _MASK32

        if self.tlb_bits is not None:
            page_hot = any(
                self.tlb_bits.check(part)
                for part in _page_domain_parts(self.geometry, address, size)
            )
            if not page_hot:
                self.stats.resolved_by_tlb += 1
                return LatchCheckResult(
                    address=address,
                    size=size,
                    coarse_tainted=False,
                    level=CheckLevel.TLB,
                )

        tainted = False
        hit_all = True
        for base in self.geometry.domain_bases_in_range(address, size):
            hit, domain_tainted = self.ctc.check(base)
            hit_all = hit_all and hit
            tainted = tainted or domain_tainted

        if tainted:
            self.stats.sent_to_precise += 1
            self.last_exception_address = address
            return LatchCheckResult(
                address=address,
                size=size,
                coarse_tainted=True,
                level=CheckLevel.PRECISE,
                ctc_hit=hit_all,
            )
        self.stats.resolved_by_ctc += 1
        return LatchCheckResult(
            address=address,
            size=size,
            coarse_tainted=False,
            level=CheckLevel.CTC,
            ctc_hit=hit_all,
        )

    def check_step(self, event: StepEvent) -> StepCheck:
        """Check one committed instruction (registers + memory operands)."""
        self.stats.steps_checked += 1
        register_tainted = bool(event.regs_read) and self.trf.any_tainted(
            event.regs_read
        )
        if register_tainted:
            self.stats.register_positives += 1
        memory_results = tuple(
            self.check_memory(access.address, access.size)
            for access in event.memory_accesses
        )
        check = StepCheck(
            register_tainted=register_tainted, memory_results=memory_results
        )
        if check.coarse_tainted:
            self.stats.coarse_positives += 1
        return check

    # ------------------------------------------------------------- updates

    def update_memory_tags(
        self,
        address: int,
        tags: bytes,
        defer_clear: bool = True,
        clean_oracle: Optional[DomainCleanOracle] = None,
    ) -> None:
        """Synchronise the coarse state with a precise tag write.

        This is the integration hook registered as a
        :class:`repro.dift.engine.DIFTEngine` tag listener.  For each
        domain the write overlaps: any non-zero tag sets the domain bit;
        an all-zero slice triggers the clear path (deferred via clear
        bits for S-LATCH, immediate via the Figure 12 logic when
        ``defer_clear=False`` and a ``clean_oracle`` is supplied).
        """
        if not tags:
            return
        # Walk the write one domain-chunk at a time, masking the cursor so
        # a write that wraps past the top of the 32-bit space updates the
        # wrapped-around domains too (the precise shadow wraps the same
        # way; a straddling store must set the coarse bit in *every*
        # domain it touches or the superset invariant breaks).
        offset = 0
        length = len(tags)
        while offset < length:
            cursor = (address + offset) & _MASK32
            base = self.geometry.domain_base(cursor)
            take = min(length - offset, base + self.geometry.domain_size - cursor)
            slice_tags = tags[offset : offset + take]
            if any(slice_tags):
                self.ctc.update_taint(cursor, tainted=True)
            else:
                self.ctc.update_taint(
                    cursor,
                    tainted=False,
                    defer_clear=defer_clear,
                    clean_oracle=clean_oracle,
                )
            if self.tlb_bits is not None:
                self.tlb_bits.update(cursor)
            offset += take

    def reconcile_clears(self, clean_oracle: DomainCleanOracle) -> int:
        """Resolve deferred clears (Section 5.1.4); returns domains cleared."""
        cleared = self.ctc.reconcile_clears(clean_oracle)
        if cleared and self.tlb_bits is not None:
            # Page-level bits may now be stale; rebuild lazily.
            self.tlb_bits.flush()
        return cleared

    def bulk_load_from_shadow(self, shadow) -> None:
        """Initialise the coarse state from an existing precise state.

        Used when LATCH is attached to an already-running monitored
        process (tests, checkpoint restores, and every columnar replay).
        Shadow-shaped stand-ins without the vectorised scan are read
        through ``iter_tainted_domains``.
        """
        import numpy as np

        scan_size = min(self.geometry.domain_size, self.geometry.page_size)
        if hasattr(shadow, "tainted_domain_bases"):
            bases = shadow.tainted_domain_bases(scan_size)
        else:
            bases = list(shadow.iter_tainted_domains(scan_size))
        self.bulk_load_domains(
            np.asarray(bases, dtype=np.int64) // self.geometry.domain_size
        )

    def bulk_load_domains(self, indices) -> None:
        """Set the CTT bit of every domain index (any order, repeats
        allowed) a whole word at a time, and start the caches cold."""
        import numpy as np

        from repro.kernels.classify import unique_sorted

        indices = unique_sorted(indices)
        words = indices // DOMAINS_PER_WORD
        starts = np.flatnonzero(np.diff(words, prepend=-1))
        # Bits within a word are distinct, so their sum is their OR.
        values = np.add.reduceat(1 << (indices % DOMAINS_PER_WORD), starts)
        for word_index, value in zip(words[starts].tolist(), values.tolist()):
            self.ctt.set_word(word_index, self.ctt.word(word_index) | value)
        self.ctc.flush()
        if self.tlb_bits is not None:
            self.tlb_bits.flush()

    # ----------------------------------------------------------- sanitizer

    def check_invariants(self, shadow=None) -> None:
        """Validate CTT/CTC/TLB coherence; raise :class:`InvariantViolation`.

        Callable after every step in checked mode (the ``repro.check``
        oracle does exactly that).  Checks, in order:

        1. every resident CTC line mirrors its backing CTT word (the CTC
           is write-through, so any divergence is a lost update);
        2. taint-clear bits are only ever asserted over set domain bits
           (a pending clear without its set bit would mean the clear
           became visible before reconciliation);
        3. every clear bit carried by an *evicted* line still refers to a
           set CTT domain bit (same staleness argument, post-eviction);
        4. resident TLB page-taint bits are supersets of their page-level
           domains (a clean TLB bit over a tainted CTT word screens
           tainted accesses — a false negative);
        5. with ``shadow`` supplied, the Figure 1 superset invariant
           itself: every domain holding a precisely tainted byte has its
           coarse bit set.
        """
        for word_index, line in self.ctc.iter_resident():
            backing = self.ctt.word(word_index)
            if line.word != backing:
                raise InvariantViolation(
                    f"CTC line for word {word_index} holds {line.word:#010x} "
                    f"but the CTT holds {backing:#010x}"
                )
            if line.clear_bits & ~line.word:
                raise InvariantViolation(
                    f"CTC line for word {word_index} asserts clear bits "
                    f"{line.clear_bits:#010x} outside its set bits "
                    f"{line.word:#010x}"
                )
        for line_base, clear_bits in self.ctc.pending_evicted():
            for bit in range(DOMAINS_PER_WORD):
                if not clear_bits & (1 << bit):
                    continue
                base = (line_base + bit * self.geometry.domain_size) & _MASK32
                if not self.ctt.is_domain_tainted(base):
                    raise InvariantViolation(
                        f"evicted clear bit for domain {base:#x} refers to "
                        "an already-clear CTT bit"
                    )
        if self.tlb_bits is not None:
            for page, entry in self.tlb_bits.tlb.resident_items():
                for part in range(self.geometry.page_domains):
                    word_index = page * self.geometry.page_domains + part
                    if self.ctt.word(word_index) and not (
                        entry.metadata >> part
                    ) & 1:
                        raise InvariantViolation(
                            f"TLB page {page:#x} bit {part} clean but CTT "
                            f"word {word_index} is tainted"
                        )
        if shadow is not None:
            for base in shadow.iter_tainted_domains(self.geometry.domain_size):
                if not self.ctt.is_domain_tainted(base):
                    raise InvariantViolation(
                        f"precisely tainted domain {base:#x} has a clean "
                        "coarse bit (superset invariant broken)"
                    )

    # ----------------------------------------------------------- TRF / ISA

    def set_trf_mask(self, mask: int) -> None:
        """``strf`` semantics: reload the TRF from a per-register mask."""
        self.trf.load_register_mask(mask)

    # ------------------------------------------------------------- metrics

    def publish_metrics(self, registry) -> None:
        """Publish the check-path counters into an obs registry.

        Covers the module's own :class:`LatchStats` plus the CTC and
        TLB taint-bit structures beneath it; see
        ``docs/OBSERVABILITY.md`` for the catalogue.
        """
        stats = self.stats
        registry.counter(
            "latch.steps_checked", unit="instructions",
            description="Committed instructions checked in hardware mode",
        ).set(stats.steps_checked)
        registry.counter(
            "latch.memory_checks", unit="accesses",
            description="Memory operands coarse-checked",
        ).set(stats.memory_checks)
        registry.counter(
            "latch.register_positives", unit="instructions",
            description="Instructions reading a tainted TRF register",
        ).set(stats.register_positives)
        registry.counter(
            "latch.coarse_positives", unit="instructions",
            description="Instructions trapping to the precise layer",
        ).set(stats.coarse_positives)
        registry.counter(
            "latch.resolved_by_tlb", unit="accesses",
            description="Accesses screened by clean TLB taint bits",
        ).set(stats.resolved_by_tlb)
        registry.counter(
            "latch.resolved_by_ctc", unit="accesses",
            description="Accesses resolved clean at the CTC",
        ).set(stats.resolved_by_ctc)
        registry.counter(
            "latch.sent_to_precise", unit="accesses",
            description="Coarse-positive accesses sent to the precise layer",
        ).set(stats.sent_to_precise)
        registry.gauge(
            "tlb.screened_frac", unit="fraction",
            description="Accesses screened before the CTC (Figure 16)",
            callback=lambda: self.stats.level_fractions()["tlb"],
        )
        registry.gauge(
            "ctc.resolved_frac", unit="fraction",
            description="Accesses resolved clean at the CTC (Figure 16)",
            callback=lambda: self.stats.level_fractions()["ctc"],
        )
        registry.gauge(
            "latch.precise_frac", unit="fraction",
            description="Accesses escalated to the precise layer (Figure 16)",
            callback=lambda: self.stats.level_fractions()["precise"],
        )
        self.ctc.publish_metrics(registry)
        if self.tlb_bits is not None:
            self.tlb_bits.publish_metrics(registry)

    def reset_stats(self) -> None:
        """Zero the module's counters (structures keep their contents)."""
        self.stats = LatchStats()
        self.ctc.stats.reset()
        if self.tlb_bits is not None:
            self.tlb_bits.stats.reset()
            self.tlb_bits.checks = 0
            self.tlb_bits.hot_checks = 0


def _page_domain_parts(
    geometry: DomainGeometry, address: int, size: int
) -> Iterable[int]:
    """Representative addresses, one per page-level domain overlapped.

    Parts past the top of the 32-bit space are masked to their wrapped
    (canonical) addresses so the TLB consults the real pages rather
    than alias entries whose taint bits would load from nonexistent
    CTT words.
    """
    span = geometry.word_span
    address &= _MASK32
    first = address // span
    last = (address + size - 1) // span
    for index in range(first, last + 1):
        yield max(address, index * span) & _MASK32
