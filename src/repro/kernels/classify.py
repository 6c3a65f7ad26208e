"""Stateless batch classification kernels.

Address → domain / CTT-word / page arithmetic over whole address
arrays, plus gathers against a frozen :class:`~repro.core.ctt.
CoarseTaintTable`.  These are the building blocks every replay kernel
shares: the coarse state is *static* while a trace window replays (no
tag writes happen mid-window), so classification is embarrassingly
parallel even though the cache simulations downstream are sequential.

All kernels follow the scalar arithmetic of
:class:`repro.core.domains.DomainGeometry` bit-for-bit, including its
32-bit address masking and wrap-around: an access whose byte range
crosses the top of the 32-bit space expands to the wrapped-around
domains under their canonical (masked) indices, exactly like the
scalar walk in :meth:`repro.core.latch.LatchModule.check_memory`.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.core.domains import DOMAINS_PER_WORD

_MASK32 = 0xFFFFFFFF

#: log2(DOMAINS_PER_WORD) — CTT words pack 32 domain bits.
_WORD_SHIFT = DOMAINS_PER_WORD.bit_length() - 1


def as_index_array(values) -> np.ndarray:
    """Coerce to a contiguous int64 array (the kernels' index dtype)."""
    return np.ascontiguousarray(np.asarray(values, dtype=np.int64))


def effective_sizes(sizes) -> np.ndarray:
    """Per-access sizes with the scalar path's ``max(size, 1)`` floor."""
    return np.maximum(as_index_array(sizes), 1)


def word_ids_from_domains(domains: np.ndarray) -> np.ndarray:
    """CTT word index of each domain index."""
    return domains >> _WORD_SHIFT


def bit_offsets_from_domains(domains: np.ndarray) -> np.ndarray:
    """Bit position of each domain within its CTT word."""
    return domains & (DOMAINS_PER_WORD - 1)


def page_ids(addresses: np.ndarray, page_size: int) -> np.ndarray:
    """Page number of each address (unmasked, like :class:`repro.mem.tlb.TLB`)."""
    return addresses >> (page_size.bit_length() - 1)


# --------------------------------------------------------- ragged expansion


def expand_ranges(
    first: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten per-row ``range(first[i], first[i] + counts[i])`` values.

    Returns ``(flat, offsets)`` where ``offsets`` has ``len(first) + 1``
    entries and row *i*'s values live at ``flat[offsets[i]:offsets[i+1]]``.
    Rows with ``counts[i] <= 0`` contribute nothing.
    """
    counts = np.maximum(counts, 0)
    offsets = np.empty(len(counts) + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    if total == 0:
        return np.empty(0, dtype=np.int64), offsets
    flat = np.arange(total, dtype=np.int64)
    flat -= np.repeat(offsets[:-1], counts)
    flat += np.repeat(first, counts)
    return flat, offsets


def expand_domain_ids(
    addresses: np.ndarray, sizes: np.ndarray, domain_size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Domain indices overlapped by each access, flattened in trace order.

    Mirrors the scalar CTC walk of ``check_memory``: one entry per
    domain step, first to last, with ranges that wrap past the top of
    the 32-bit space folded to their canonical domain indices (like
    ``DomainGeometry.domains_in_range``).  Returns
    ``(flat_domains, offsets)``.
    """
    masked = addresses & _MASK32
    first = masked // domain_size
    last = (masked + sizes - 1) // domain_size
    flat, offsets = expand_ranges(first, last - first + 1)
    flat %= (_MASK32 + 1) // domain_size
    return flat, offsets


# --------------------------------------------------------------- CTT gather


class CttIndex:
    """A frozen, gather-friendly view of a sparse CTT.

    Built once per replayed window; lookups are vectorised
    ``searchsorted`` gathers against the sorted non-zero word indices.
    """

    def __init__(self, ctt) -> None:
        items = sorted(ctt._words.items())
        self.word_indices = np.array(
            [index for index, _ in items], dtype=np.int64
        )
        self.word_values = np.array(
            [value for _, value in items], dtype=np.int64
        )

    def gather(self, word_ids: np.ndarray) -> np.ndarray:
        """CTT word value per queried word index (0 for absent words)."""
        if len(self.word_indices) == 0 or len(word_ids) == 0:
            return np.zeros(len(word_ids), dtype=np.int64)
        slots = np.searchsorted(self.word_indices, word_ids)
        slots[slots == len(self.word_indices)] = 0
        values = self.word_values[slots]
        return np.where(self.word_indices[slots] == word_ids, values, 0)


def domain_tainted_flags(
    flat_domains: np.ndarray, ctt_index: CttIndex
) -> np.ndarray:
    """Coarse taint bit of each domain in a flattened domain sequence."""
    words = ctt_index.gather(word_ids_from_domains(flat_domains))
    bits = bit_offsets_from_domains(flat_domains)
    return ((words >> bits) & 1).astype(bool)


def any_per_row(
    flags: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Per-row OR over a flattened ragged boolean array.

    ``offsets`` is the ``expand_ranges`` layout; empty rows yield False.
    """
    rows = len(offsets) - 1
    result = np.zeros(rows, dtype=bool)
    if len(flags) == 0 or rows == 0:
        return result
    counts = np.diff(offsets)
    nonempty = counts > 0
    if not nonempty.any():
        return result
    starts = offsets[:-1][nonempty]
    result[nonempty] = np.logical_or.reduceat(flags, starts)
    # reduceat wraps when a start index equals len(flags); starts of
    # non-empty rows are always < len(flags), so no correction needed.
    return result


# ---------------------------------------------------- extent classification


def unique_sorted(values) -> np.ndarray:
    """Sorted distinct values: one sort plus a run mask (``np.unique``
    hashes int64 on numpy 2.x, ~60x slower at layout sizes)."""
    values = np.sort(as_index_array(values))
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def domains_from_extents(
    extents: Sequence[Tuple[int, int]], domain_size: int
) -> np.ndarray:
    """Sorted unique domain indices overlapping any ``(start, length)``.

    Backs :meth:`repro.workloads.trace.TaintLayout.tainted_domains`.
    Zero-length extents follow the per-extent ``range(first, last + 1)``
    loop: one at a domain-interior offset still marks its domain.
    """
    if not len(extents):
        return np.empty(0, dtype=np.int64)
    pairs = as_index_array(extents).reshape(-1, 2)
    starts = pairs[:, 0]
    lengths = pairs[:, 1]
    first = starts // domain_size
    last = (starts + lengths - 1) // domain_size
    flat, _ = expand_ranges(first, last - first + 1)
    return unique_sorted(flat)


def shadow_domain_ids(
    extents: Sequence[Tuple[int, int]], domain_size: int
) -> np.ndarray:
    """Domains a shadow filled with the extents has tainted (unsorted,
    with repeats).  Unlike :func:`domains_from_extents` this follows
    ``ShadowMemory.set_range``: a zero-length extent marks nothing and
    a range past 2^32 wraps."""
    pairs = as_index_array(extents).reshape(-1, 2)
    pairs = pairs[pairs[:, 1] > 0]
    flat, _ = expand_domain_ids(pairs[:, 0], pairs[:, 1], domain_size)
    return flat
