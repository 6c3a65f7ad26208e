"""Epoch segmentation and duration-profile kernels (Section 3.2).

Two batch operations behind the temporal analyses:

* :func:`duration_profile` — the Figure 5 series.  The kernel sorts
  once and reads every threshold's suffix sum off one cumulative array;
  the sums are exact int64, so the floats are bit-identical to masking
  and summing once per threshold.
* :func:`segment_epochs` / :func:`epoch_stream_from_trace` — derive an
  :class:`~repro.workloads.trace.EpochStream` from a replayed
  :class:`~repro.workloads.trace.AccessTrace` window by run-length
  segmenting its ``active_epoch`` flags.  Gap instructions are
  attributed to the epoch of the access they precede, preserving
  ``total_instructions == accesses + gaps``.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.kernels.backend import observe_batch
from repro.kernels.lru import compress_runs


def duration_profile(
    free_lengths: np.ndarray,
    total_instructions: int,
    thresholds: Sequence[int],
) -> Dict[int, float]:
    """Percentage of all instructions inside taint-free epochs ≥ threshold.

    Exact twin of per-threshold masked sums; the caller guarantees
    ``total_instructions > 0``.
    """
    free_lengths = np.asarray(free_lengths, dtype=np.int64)
    observe_batch("epoch_profile", len(free_lengths))
    ordered = np.sort(free_lengths)
    cumulative = np.cumsum(ordered)
    total_sum = cumulative[-1] if len(cumulative) else np.int64(0)
    profile: Dict[int, float] = {}
    for threshold in thresholds:
        cut = int(np.searchsorted(ordered, threshold, side="left"))
        below = cumulative[cut - 1] if cut > 0 else np.int64(0)
        subset_sum = total_sum - below
        profile[threshold] = float(subset_sum / total_instructions * 100.0)
    return profile


def segment_epochs(active_flags, gap_before, tainted_flags):
    """Run-length segment a window into ``(lengths, tainted_counts)``.

    One epoch per maximal run of equal ``active_flags``; an epoch's
    length is its access count plus the gap instructions its accesses
    carry, and its tainted count is the number of precisely tainted
    accesses inside it.
    """
    active = np.asarray(active_flags, dtype=bool)
    gaps = np.asarray(gap_before, dtype=np.int64)
    tainted = np.asarray(tainted_flags, dtype=bool)
    observe_batch("epoch_profile", len(active))
    if len(active) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    starts, _ = compress_runs(active)
    lengths = np.add.reduceat(1 + gaps, starts)
    tainted_counts = np.add.reduceat(tainted.astype(np.int64), starts)
    return lengths, tainted_counts


def epoch_stream_from_trace(trace):
    """Derive an :class:`~repro.workloads.trace.EpochStream` from a window."""
    from repro.workloads.trace import EpochStream

    lengths, tainted_counts = segment_epochs(
        trace.active_epoch, trace.gap_before, trace.tainted
    )
    return EpochStream(
        name=trace.name, lengths=lengths, tainted_counts=tainted_counts
    )
