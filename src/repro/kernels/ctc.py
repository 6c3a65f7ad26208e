"""Batch CTC hit/miss simulation over domain-id runs (Section 4.3).

The scalar check path walks every taint domain an access overlaps,
probing the CTC once per domain (no short-circuit: ``check_memory``
accumulates the tainted flag across the whole walk).  With a static CTT
the per-domain taint outcome is a pure gather, so the only sequential
work left is the CTC's fully associative LRU accounting over the
flattened domain-word id sequence — which run-compresses extremely well
(the CTC's whole premise is that consecutive accesses stay inside one
CTT word's span).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels import classify
from repro.kernels.backend import observe_batch


@dataclass(frozen=True)
class CtcProbeFlags:
    """The stateless half of a CTC probe (no LRU accounting yet).

    ``word_sequence`` is the CTT-word-id sequence of every CTC lookup
    in trace order — the replay run-compresses it and feeds it
    to a carry-over :class:`~repro.kernels.lru.LruState`.
    """

    tainted: np.ndarray
    word_sequence: np.ndarray


def probe_flags(
    addresses: np.ndarray,
    sizes: np.ndarray,
    geometry,
    ctt_index: classify.CttIndex,
) -> CtcProbeFlags:
    """Per-access taint verdicts and the CTC lookup sequence of an
    access window, without touching any LRU state.

    ``addresses``/``sizes`` are int64 arrays (sizes already floored to
    1) of the accesses that reached the CTC (i.e. survived TLB
    screening, or all accesses when TLB bits are disabled).
    """
    n = len(addresses)
    observe_batch("ctc_probe", n)
    if n == 0:
        return CtcProbeFlags(
            np.zeros(0, dtype=bool), np.empty(0, dtype=np.int64)
        )

    flat_domains, offsets = classify.expand_domain_ids(
        addresses, sizes, geometry.domain_size
    )
    flags = classify.domain_tainted_flags(flat_domains, ctt_index)
    tainted = classify.any_per_row(flags, offsets)
    # One CTC lookup per domain step; the line it touches is the CTT
    # word covering that domain (CTC line span == word span).
    word_sequence = classify.word_ids_from_domains(flat_domains)
    return CtcProbeFlags(tainted=tainted, word_sequence=word_sequence)
