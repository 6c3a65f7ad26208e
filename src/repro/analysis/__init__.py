"""Locality characterisation of DIFT data flows (Section 3 of the paper).

* :mod:`~repro.analysis.temporal` — the fraction of instructions that
  touch tainted data (Tables 1/2) and the taint-free epoch duration
  analysis (Figure 5).
* :mod:`~repro.analysis.spatial` — page-granularity taint distribution
  (Tables 3/4) and coarse-granularity false-positive rates as a function
  of taint-domain size (Figure 6).
"""

from repro.analysis.temporal import (
    FIG5_THRESHOLDS,
    epoch_duration_profile,
    tainted_instruction_fraction,
)
from repro.analysis.spatial import (
    FIG6_DOMAIN_SIZES,
    false_positive_multiplier,
    false_positive_sweep,
    page_taint_distribution,
)

__all__ = [
    "FIG5_THRESHOLDS",
    "FIG6_DOMAIN_SIZES",
    "epoch_duration_profile",
    "false_positive_multiplier",
    "false_positive_sweep",
    "page_taint_distribution",
    "tainted_instruction_fraction",
]
