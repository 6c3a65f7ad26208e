"""Temporal locality analysis (Section 3.2).

Two measurements over an :class:`~repro.workloads.trace.EpochStream`
(or any execution that can be summarised as one):

* :func:`tainted_instruction_fraction` — the percentage of instructions
  touching tainted data (Tables 1 and 2);
* :func:`epoch_duration_profile` — for each threshold L in
  {100, 1K, 10K, 100K, 1M}, the percentage of *all* executed
  instructions that fall inside taint-free epochs longer than L
  (Figure 5; the sets are cumulative, so an epoch of 2M instructions
  contributes to every category).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.kernels import duration_profile
from repro.workloads.trace import EpochStream

#: Figure 5's epoch-length categories (instructions).
FIG5_THRESHOLDS: Sequence[int] = (100, 1_000, 10_000, 100_000, 1_000_000)


def tainted_instruction_fraction(stream: EpochStream) -> float:
    """Fraction of instructions that touch tainted data (Table 1/2)."""
    return stream.tainted_fraction


def epoch_duration_profile(
    stream: EpochStream,
    thresholds: Sequence[int] = FIG5_THRESHOLDS,
) -> Dict[int, float]:
    """Percentage of instructions inside taint-free epochs ≥ threshold.

    Returns ``{threshold: percent_of_all_instructions}`` — the Figure 5
    series for one benchmark, read off one sort-and-suffix-sum kernel.
    """
    total = stream.total_instructions
    if total == 0:
        return {threshold: 0.0 for threshold in thresholds}
    return duration_profile(stream.taint_free_lengths(), total, thresholds)
