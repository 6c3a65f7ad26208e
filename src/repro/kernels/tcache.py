"""Batch precise taint-cache simulation (Tables 6/7).

The scalar :class:`repro.hlatch.taint_cache.PreciseTaintCache` performs
one set-associative lookup per access plus a second lookup when the
operand straddles a line boundary.  Both the line ids and the straddle
decisions are pure address arithmetic, so the whole access sequence can
be flattened up front and handed to the run-compressed LRU core.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.kernels import classify
from repro.kernels.backend import observe_batch


def line_sequence(
    addresses: np.ndarray,
    sizes: np.ndarray,
    writes: Optional[np.ndarray],
    config,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Flatten an access window to its taint-cache lookup sequence.

    Returns ``(sequence, sequence_writes)``: one line id per lookup
    (straddling operands contribute two), with the per-lookup write
    flags repeated alongside (None when ``writes`` is None).
    ``config`` is a :class:`repro.hlatch.taint_cache.TaintCacheConfig`;
    ``sizes`` must already carry the ``max(size, 1)`` floor.  The
    replay run-compresses the pair and defers the set-associative LRU
    accounting to a carry-over :class:`~repro.kernels.lru.LruState`.
    """
    n = len(addresses)
    observe_batch("tcache_sim", n)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, (None if writes is None else np.empty(0, dtype=bool))

    shift = config.memory_coverage_per_line.bit_length() - 1
    first_lines = addresses >> shift
    last_lines = (addresses + sizes - 1) >> shift
    straddles = last_lines != first_lines

    counts = 1 + straddles.astype(np.int64)
    offsets = np.empty(n + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(counts, out=offsets[1:])
    sequence = np.empty(int(offsets[-1]), dtype=np.int64)
    sequence[offsets[:-1]] = first_lines
    sequence[offsets[1:][straddles] - 1] = last_lines[straddles]

    sequence_writes = None
    if writes is not None:
        sequence_writes = np.repeat(np.asarray(writes, dtype=bool), counts)
    return sequence, sequence_writes
