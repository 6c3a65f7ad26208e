"""Generic set-associative cache model.

Used for every cache-shaped structure in the reproduction:

* the Coarse Taint Cache (CTC) — fully associative, 16 entries of one
  32-bit CTT word each (Section 6.4 of the paper);
* the precise taint cache of H-LATCH — 4-way, 32-bit blocks, 128 B;
* the conventional 4 KB taint cache baseline (FlexiTaint-style).

The model tracks residency and statistics only; line payloads are opaque
objects supplied by a loader callback on miss.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class CacheStats:
    """Counters accumulated by a cache over its lifetime."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        """Misses as a fraction of accesses (0.0 when idle)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def hit_rate(self) -> float:
        """Hits as a fraction of accesses (0.0 when idle)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def reset(self) -> None:
        """Zero all counters."""
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0


@dataclass
class CacheLine:
    """One cache line: tag plus an opaque payload."""

    tag: int
    payload: Any = None
    dirty: bool = False
    last_use: int = 0
    inserted: int = 0


class SetAssociativeCache:
    """A set-associative cache with pluggable replacement policy.

    Args:
        num_sets: number of sets (1 ⇒ fully associative).
        ways: associativity.
        line_size: bytes mapped by one line (must be a power of two).
        policy: ``"lru"``, ``"fifo"``, or ``"random"``.
        on_evict: optional callback ``(line_base_address, line)`` invoked
            whenever a line is evicted (the CTC uses this to trigger the
            clear-bit scan exception from Section 5.1.4).
        rng_seed: seed for the ``"random"`` policy (deterministic runs).
    """

    def __init__(
        self,
        num_sets: int,
        ways: int,
        line_size: int,
        policy: str = "lru",
        on_evict: Optional[Callable[[int, CacheLine], None]] = None,
        rng_seed: int = 0,
    ) -> None:
        if num_sets < 1 or ways < 1:
            raise ValueError("num_sets and ways must be positive")
        if line_size & (line_size - 1):
            raise ValueError("line_size must be a power of two")
        self.num_sets = num_sets
        self.ways = ways
        self.line_size = line_size
        self.policy = policy.lower()
        if self.policy not in ("lru", "fifo", "random"):
            raise ValueError(f"unknown replacement policy {policy!r}")
        self.on_evict = on_evict
        self.stats = CacheStats()
        self._sets: List[Dict[int, CacheLine]] = [dict() for _ in range(num_sets)]
        self._clock = 0
        self._rng = random.Random(rng_seed)
        self._line_shift = line_size.bit_length() - 1

    # ------------------------------------------------------------- geometry

    @property
    def capacity_lines(self) -> int:
        """Total number of lines."""
        return self.num_sets * self.ways

    @property
    def capacity_bytes(self) -> int:
        """Total bytes of address space mapped when full."""
        return self.capacity_lines * self.line_size

    def line_base(self, address: int) -> int:
        """Base address of the line containing ``address``."""
        return (address >> self._line_shift) << self._line_shift

    def _index_tag(self, address: int) -> Tuple[int, int]:
        line_number = address >> self._line_shift
        return line_number % self.num_sets, line_number

    # -------------------------------------------------------------- lookups

    def probe(self, address: int) -> Optional[CacheLine]:
        """Check residency without updating statistics or recency."""
        index, tag = self._index_tag(address)
        return self._sets[index].get(tag)

    def access(
        self,
        address: int,
        write: bool = False,
        loader: Optional[Callable[[int], Any]] = None,
    ) -> bool:
        """Access the line containing ``address``.

        On a miss the line is filled; ``loader(line_base)`` supplies its
        payload (None payload if no loader).  Returns True on hit.
        """
        misses = self.stats.misses
        self.fetch(address, write, loader)
        return self.stats.misses == misses

    def fetch(
        self,
        address: int,
        write: bool = False,
        loader: Optional[Callable[[int], Any]] = None,
    ) -> CacheLine:
        """:meth:`access`, returning the line (resident or just filled)."""
        self._clock += 1
        self.stats.accesses += 1
        index, tag = self._index_tag(address)
        line = self._sets[index].get(tag)
        if line is not None:
            self.stats.hits += 1
            line.last_use = self._clock
            if write:
                line.dirty = True
            return line
        self.stats.misses += 1
        payload = loader(self.line_base(address)) if loader else None
        return self._fill(index, tag, payload, write)

    def _fill(
        self, index: int, tag: int, payload: Any, write: bool
    ) -> CacheLine:
        bucket = self._sets[index]
        if len(bucket) >= self.ways:
            victim_tag = self._choose_victim(bucket)
            victim = bucket.pop(victim_tag)
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.writebacks += 1
            if self.on_evict is not None:
                self.on_evict(victim_tag << self._line_shift, victim)
        line = bucket[tag] = CacheLine(
            tag=tag,
            payload=payload,
            dirty=write,
            last_use=self._clock,
            inserted=self._clock,
        )
        return line

    def _choose_victim(self, bucket: Dict[int, CacheLine]) -> int:
        if self.policy == "lru":
            return min(bucket.values(), key=lambda line: line.last_use).tag
        if self.policy == "fifo":
            return min(bucket.values(), key=lambda line: line.inserted).tag
        return self._rng.choice(list(bucket.keys()))

    # ------------------------------------------------------------ mutation

    def install(self, address: int, payload: Any, dirty: bool = False) -> None:
        """Place a line without counting an access (used by taint updates)."""
        self._clock += 1
        index, tag = self._index_tag(address)
        line = self._sets[index].get(tag)
        if line is not None:
            line.payload = payload
            line.dirty = line.dirty or dirty
            line.last_use = self._clock
            return
        self._fill(index, tag, payload, dirty)

    def invalidate(self, address: int) -> bool:
        """Drop the line containing ``address`` (no eviction callback).

        Returns True if a line was present.
        """
        index, tag = self._index_tag(address)
        return self._sets[index].pop(tag, None) is not None

    def flush(self) -> None:
        """Invalidate every line (no eviction callbacks, stats retained)."""
        for bucket in self._sets:
            bucket.clear()

    def resident_lines(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(bucket) for bucket in self._sets)

    def __contains__(self, address: int) -> bool:
        return self.probe(address) is not None
