"""Spatial locality analysis (Section 3.3).

* :func:`page_taint_distribution` — pages accessed vs. pages that ever
  receive tainted data (Tables 3 and 4).
* :func:`false_positive_multiplier` — how many times more *taint
  detection events* a coarse-grained policy produces relative to the
  byte-precise baseline, for a given taint-domain size (Figure 6).  A
  value of 1.0 means coarse tainting is exact for the observed access
  stream; 10.0 means the precise DIFT logic would be invoked 10× more
  often because of false positives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.kernels.classify import unique_sorted
from repro.workloads.trace import AccessTrace, TaintLayout

#: The taint-domain sizes swept in Figure 6 (bytes).
FIG6_DOMAIN_SIZES: Sequence[int] = (8, 16, 32, 64, 128, 256, 1024, 4096)


@dataclass(frozen=True)
class PageTaintStats:
    """One row of Table 3/4."""

    pages_accessed: int
    pages_tainted: int

    @property
    def tainted_percent(self) -> float:
        """Percentage of accessed pages containing taint."""
        if self.pages_accessed == 0:
            return 0.0
        return self.pages_tainted / self.pages_accessed * 100.0


def page_taint_distribution(layout: TaintLayout) -> PageTaintStats:
    """Tables 3/4: distribution of taint at page granularity."""
    accessed = set(layout.accessed_pages)
    tainted = layout.tainted_pages()
    # Tainted pages are by definition accessed (data was written there);
    # count the union defensively in case a layout taints an extent the
    # access footprint doesn't list.
    return PageTaintStats(
        pages_accessed=len(accessed | tainted),
        pages_tainted=len(tainted),
    )


def false_positive_multiplier(
    trace: AccessTrace, domain_size: int, mode: str = "footprint"
) -> float:
    """Figure 6 metric for one domain size.

    ``mode="footprint"`` (default — the figure's "accessed memory
    elements"): over the bytes of the accessed footprint, the ratio of
    elements a coarse policy reports tainted (every byte of a tainted
    domain) to elements that are precisely tainted.  This is the pure
    spatial-inflation factor of coarse tainting and grows in proportion
    to domain size, exactly as the figure describes.

    ``mode="elements"``: the same ratio restricted to *unique addresses
    actually touched by the trace* (weights the footprint by use).

    ``mode="events"``: the ratio over dynamic accesses (useful for the
    CTC-pressure ablation; weights hot addresses by access count).

    Returns ``nan`` when no precisely tainted element is observed (the
    paper omits such benchmarks from the figure).
    """
    if mode == "footprint":
        tainted_bytes = trace.layout.tainted_byte_count()
        if tainted_bytes == 0:
            return float("nan")
        coarse_bytes = len(trace.layout.tainted_domains(domain_size)) * domain_size
        return coarse_bytes / tainted_bytes
    if mode == "elements":
        addresses = unique_sorted(trace.addresses)
        precise_flags = trace.layout.bytes_tainted(addresses)
    elif mode == "events":
        addresses = trace.addresses
        precise_flags = trace.tainted
    else:
        raise ValueError(f"unknown mode {mode!r}")
    precise = int(precise_flags.sum())
    if precise == 0:
        return float("nan")
    domains = trace.layout.tainted_domains(domain_size)
    coarse = int(np.isin(addresses // domain_size, domains).sum())
    return coarse / precise


def false_positive_sweep(
    trace: AccessTrace,
    domain_sizes: Sequence[int] = FIG6_DOMAIN_SIZES,
    mode: str = "footprint",
) -> Dict[int, float]:
    """Figure 6 series: multiplier per domain size."""
    return {
        size: false_positive_multiplier(trace, size, mode=mode)
        for size in domain_sizes
    }
