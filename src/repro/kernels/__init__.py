"""repro.kernels — vectorized coarse-taint replay kernels.

Numpy batch implementations of the per-access hot paths that the
reproduction's replay loops spend their time in (the software analogue
of HardTaint's trace-buffer batching):

* :mod:`~repro.kernels.classify` — stateless domain/page/CTT-word
  classification of whole address arrays;
* :mod:`~repro.kernels.tlb` — TLB taint-bit screening flags, including
  the scalar path's short-circuit semantics;
* :mod:`~repro.kernels.ctc` — CTC probe flags and lookup sequences over
  domain-id runs;
* :mod:`~repro.kernels.tcache` — precise taint-cache lookup sequences;
* :mod:`~repro.kernels.epochs` — epoch segmentation and the Figure 5
  duration profile;
* :mod:`~repro.kernels.lru` — the shared run-compressed exact LRU core;
* :mod:`~repro.kernels.replay` — the one replay path: stateless
  :func:`shard_partial` summaries merged into the real model objects
  (``run_hlatch`` / ``run_baseline`` / ``measure_hw_rates`` replay a
  whole window as one shard; :mod:`repro.trace.replay` shards it).

The kernels are the only replay path.  The per-access loops they
replaced live on as test oracles (``tests/kernel_oracles.py``), and the
kernels must reproduce them as bit-identical
:class:`~repro.obs.StatsSnapshot` payloads
(``tests/test_kernels_equivalence.py`` enforces the contract, and
``docs/KERNELS.md`` documents the batch model).  Per-kernel metrics live
in :mod:`~repro.kernels.backend`.
"""

from repro.kernels.backend import (
    KERNEL_NAMES,
    kernel_registry,
    publish_metrics,
    reset_kernel_metrics,
)
from repro.kernels.classify import (
    CttIndex,
    domains_from_extents,
    shadow_domain_ids,
)
from repro.kernels.epochs import (
    duration_profile,
    epoch_stream_from_trace,
    segment_epochs,
)
from repro.kernels.lru import (
    LruState,
    LruStats,
    compress_runs,
    run_boundaries,
)
from repro.kernels.replay import (
    ShardPartial,
    merge_baseline_partials,
    merge_latch_partials,
    merge_partials,
    shard_partial,
)

__all__ = [
    "KERNEL_NAMES",
    "CttIndex",
    "LruState",
    "LruStats",
    "ShardPartial",
    "compress_runs",
    "domains_from_extents",
    "duration_profile",
    "epoch_stream_from_trace",
    "kernel_registry",
    "merge_baseline_partials",
    "merge_latch_partials",
    "merge_partials",
    "publish_metrics",
    "reset_kernel_metrics",
    "run_boundaries",
    "segment_epochs",
    "shadow_domain_ids",
    "shard_partial",
]
