"""Batch TLB taint-bit screening (the Section 4.2 fast path).

The scalar check path consults one page-level taint bit per *page-level
domain part* the access overlaps, short-circuiting at the first hot
part (``any(...)`` in :meth:`repro.core.latch.LatchModule.
check_memory`).  Because the page-taint bits are derived purely from
the frozen CTT, a part's hot/clean outcome is static — so the whole
screen, including the short-circuit's effect on *which* TLB lookups
happen, can be computed up front; only the TLB's own LRU hit/miss
accounting needs the sequential core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels import classify
from repro.kernels.backend import observe_batch

_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class TlbScreenFlags:
    """The stateless half of a TLB screen (no LRU accounting yet).

    ``checked_pages`` is the page-id sequence the TLB would translate,
    in access order — the replay run-compresses it and defers
    the LRU hit/miss accounting to a carry-over
    :class:`~repro.kernels.lru.LruState`.
    """

    page_hot: np.ndarray
    checks: int
    hot_checks: int
    checked_pages: np.ndarray


def screen_flags(
    addresses: np.ndarray,
    sizes: np.ndarray,
    geometry,
    ctt_index: classify.CttIndex,
) -> TlbScreenFlags:
    """Page-hot flags and the TLB page-id sequence of an access window,
    without touching any LRU state.

    ``addresses``/``sizes`` are int64 arrays (sizes already floored to
    1); ``geometry`` is the :class:`repro.core.domains.DomainGeometry`
    shared with the CTT behind ``ctt_index``.
    """
    n = len(addresses)
    observe_batch("tlb_screen", n)
    if n == 0:
        empty_bool = np.zeros(0, dtype=bool)
        return TlbScreenFlags(
            empty_bool, 0, 0, np.empty(0, dtype=np.int64)
        )

    span = geometry.word_span
    total_words = (_MASK32 + 1) // span
    addresses = addresses & _MASK32
    first = addresses // span
    last = (addresses + sizes - 1) // span
    counts = last - first + 1

    if int(counts.max()) == 1:
        # Fast path: every access fits one page-level domain (true for
        # word-sized accesses at any paper configuration).
        hot = ctt_index.gather(first) != 0
        checked_pages = classify.page_ids(addresses, geometry.page_size)
        page_hot = hot
        checks = n
        hot_checks = int(hot.sum())
    else:
        flat_words, offsets = classify.expand_ranges(first, counts)
        # A range past the top of the address space wraps; fold word
        # indices to their canonical values before consulting the CTT
        # (the scalar _page_domain_parts masks its parts the same way).
        hot_flat = ctt_index.gather(flat_words % total_words) != 0
        position = np.arange(len(flat_words), dtype=np.int64)
        position -= np.repeat(offsets[:-1], counts)
        counts_flat = np.repeat(counts, counts)
        # Index (within the access) of the first hot part, or the part
        # count when every part is clean — the scalar any() consults
        # exactly first_hot + 1 parts.
        first_hot = np.minimum.reduceat(
            np.where(hot_flat, position, counts_flat), offsets[:-1]
        )
        page_hot = first_hot < counts
        checked_limit = np.minimum(first_hot + 1, counts)
        checked_mask = position < np.repeat(checked_limit, counts)
        # Part representative addresses: max(address, part_base), as in
        # _page_domain_parts — only the first part can be unaligned.
        part_addresses = np.maximum(
            flat_words * span, np.repeat(addresses, counts)
        ) & _MASK32
        checked_pages = classify.page_ids(
            part_addresses[checked_mask], geometry.page_size
        )
        checks = int(checked_mask.sum())
        hot_checks = int(page_hot.sum())

    return TlbScreenFlags(
        page_hot=page_hot,
        checks=checks,
        hot_checks=hot_checks,
        checked_pages=checked_pages,
    )
