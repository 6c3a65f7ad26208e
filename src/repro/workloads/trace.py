"""Trace containers produced by the workload generator.

Three granularities, matching what each analysis needs:

* :class:`EpochStream` — alternating taint-free / taint-active epochs at
  full program scale.  Cheap (one entry per epoch), drives the temporal
  analyses (Tables 1/2, Figure 5) and the S-LATCH/P-LATCH models.
* :class:`AccessTrace` — per-memory-access records over a scaled window,
  as parallel numpy arrays.  Drives the cache simulations (H-LATCH,
  Tables 6/7, Figure 16) and spatial analyses (Figure 6).
* :class:`TaintLayout` — where tainted bytes live in the address space.
  Drives the page-granularity distribution (Tables 3/4) and the
  coarse-granularity false-positive analysis (Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Set, Tuple

import numpy as np

PAGE_SIZE = 4096


@dataclass(frozen=True)
class Epoch:
    """A maximal run of instructions that is taint-free or taint-active.

    ``tainted_instructions`` counts the instructions inside the epoch
    that touch tainted data (0 for taint-free epochs; a taint-active
    epoch typically interleaves tainted and clean instructions).
    """

    length: int
    tainted_instructions: int = 0

    @property
    def is_tainted(self) -> bool:
        """True for taint-active epochs."""
        return self.tainted_instructions > 0


@dataclass
class EpochStream:
    """Full-scale temporal structure of one workload run.

    Array-backed: fragmented workloads at the paper's 500 M-instruction
    scale produce millions of epochs, so per-epoch objects are created
    lazily.  ``lengths[i]`` is epoch *i*'s instruction count and
    ``tainted_counts[i]`` how many of them touch tainted data (0 for
    taint-free epochs).
    """

    name: str
    lengths: np.ndarray
    tainted_counts: np.ndarray

    def __post_init__(self) -> None:
        if len(self.lengths) != len(self.tainted_counts):
            raise ValueError("lengths and tainted_counts must align")

    @classmethod
    def from_epochs(cls, name: str, epochs: Sequence[Epoch]) -> "EpochStream":
        """Build a stream from explicit :class:`Epoch` objects."""
        return cls(
            name=name,
            lengths=np.array([e.length for e in epochs], dtype=np.int64),
            tainted_counts=np.array(
                [e.tainted_instructions for e in epochs], dtype=np.int64
            ),
        )

    @property
    def epoch_count(self) -> int:
        """Number of epochs."""
        return len(self.lengths)

    @property
    def epochs(self) -> List[Epoch]:
        """Materialise :class:`Epoch` objects (small streams / tests)."""
        return [
            Epoch(length=int(l), tainted_instructions=int(t))
            for l, t in zip(self.lengths, self.tainted_counts)
        ]

    @property
    def total_instructions(self) -> int:
        """Instructions across all epochs."""
        return int(self.lengths.sum())

    @property
    def tainted_instructions(self) -> int:
        """Instructions touching tainted data."""
        return int(self.tainted_counts.sum())

    @property
    def tainted_fraction(self) -> float:
        """The paper's Table 1/2 metric."""
        total = self.total_instructions
        return self.tainted_instructions / total if total else 0.0

    def taint_free_lengths(self) -> np.ndarray:
        """Lengths of the taint-free epochs only."""
        return self.lengths[self.tainted_counts == 0]

    def taint_free_epochs(self) -> Iterator[Epoch]:
        """Yield only the taint-free epochs."""
        for length in self.taint_free_lengths():
            yield Epoch(length=int(length))


@dataclass
class TaintLayout:
    """Tainted extents and accessed footprint in the address space.

    Attributes:
        extents: tainted byte ranges as an (N, 2) int64 array of
            ``(start, length)`` rows, sorted; any sequence of pairs is
            accepted and converted once.
        accessed_pages: page numbers the workload touches.
    """

    extents: np.ndarray = field(default_factory=list)
    accessed_pages: Set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        extents = np.asarray(self.extents, dtype=np.int64).reshape(-1, 2)
        self.extents = extents[np.lexsort((extents[:, 1], extents[:, 0]))]

    def tainted_pages(self) -> Set[int]:
        """Pages containing at least one tainted byte."""
        return set(self.tainted_domains(PAGE_SIZE).tolist())

    def tainted_byte_count(self) -> int:
        """Total tainted bytes."""
        return int(self.extents[:, 1].sum())

    def tainted_domains(self, domain_size: int) -> np.ndarray:
        """Sorted unique indices of domains containing tainted bytes."""
        from repro.kernels import domains_from_extents

        return domains_from_extents(self.extents, domain_size)

    def bytes_tainted(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorised precise taint status of the byte at each address."""
        starts = self.extents[:, 0]
        slots = np.searchsorted(starts, addresses, side="right") - 1
        valid = slots >= 0
        result = np.zeros(len(addresses), dtype=bool)
        result[valid] = addresses[valid] < (starts + self.extents[:, 1])[slots[valid]]
        return result

    def byte_is_tainted(self, address: int) -> bool:
        """Precise taint status of a single byte (linear scan; test use)."""
        for start, length in self.extents.tolist():
            if start <= address < start + length:
                return True
        return False

    def to_shadow(self):
        """Materialise the layout into a :class:`repro.dift.ShadowMemory`."""
        from repro.dift.tags import ShadowMemory

        shadow = ShadowMemory()
        shadow.fill_extents(self.extents)
        return shadow


@dataclass
class AccessTrace:
    """Per-access window of a workload, as parallel numpy arrays.

    One row per data-memory access.  ``gap_before[i]`` is the number of
    non-memory instructions committed immediately before access ``i``,
    so ``total_instructions == len(addresses) + gap_before.sum()``.
    ``tainted[i]`` is the *precise* taint status — whether the access
    touches at least one tainted byte.  ``active_epoch[i]`` marks
    accesses that belong to taint-active epochs (the S-LATCH model uses
    the complement to measure hardware-mode event rates).
    """

    name: str
    addresses: np.ndarray
    sizes: np.ndarray
    is_write: np.ndarray
    tainted: np.ndarray
    gap_before: np.ndarray
    active_epoch: np.ndarray
    layout: TaintLayout

    def __post_init__(self) -> None:
        n = len(self.addresses)
        for attr in ("sizes", "is_write", "tainted", "gap_before", "active_epoch"):
            if len(getattr(self, attr)) != n:
                raise ValueError(f"array {attr} length mismatch")

    @property
    def access_count(self) -> int:
        """Number of memory accesses in the window."""
        return len(self.addresses)

    @property
    def total_instructions(self) -> int:
        """Instructions represented by the window (accesses + gaps)."""
        return int(self.access_count + self.gap_before.sum())

    @property
    def tainted_access_count(self) -> int:
        """Accesses touching precisely tainted bytes."""
        return int(self.tainted.sum())

    def iter_accesses(self) -> Iterator[Tuple[int, int, bool, bool, int]]:
        """Yield ``(address, size, is_write, tainted, gap_before)`` rows."""
        for i in range(self.access_count):
            yield (
                int(self.addresses[i]),
                int(self.sizes[i]),
                bool(self.is_write[i]),
                bool(self.tainted[i]),
                int(self.gap_before[i]),
            )

    def coarse_flags(self, domain_size: int) -> np.ndarray:
        """Boolean vector: access i falls in a tainted domain (vectorised).

        This is the pure spatial view used by the Figure 6 analysis; the
        cache simulations use the stateful :class:`repro.core.LatchModule`
        instead.
        """
        domains = self.layout.tainted_domains(domain_size)
        access_domains = self.addresses // domain_size
        end_domains = (self.addresses + self.sizes - 1) // domain_size
        flags = np.isin(access_domains, domains)
        spanning = end_domains != access_domains
        if spanning.any():
            flags = flags | (np.isin(end_domains, domains) & spanning)
        return flags
