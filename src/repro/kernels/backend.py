"""Kernel observability: per-kernel call, item and batch-size metrics.

Every batch kernel in :mod:`repro.kernels` is a numpy implementation
over whole :class:`~repro.workloads.trace.AccessTrace` windows.  The
per-access Python loops they replaced survive only as test oracles
(``tests/kernel_oracles.py``); ``tests/test_kernels_equivalence.py``
requires the kernels to reproduce them **bit-identically**, because the
runner's result cache keys on snapshot content.

Kernel-level metrics (per-kernel call counters, batch size histograms)
live in a dedicated module registry — deliberately *not* the registries
that job snapshots are built from, so snapshots stay independent of how
the kernels batch their work.  ``publish_metrics`` copies the catalog
into any external registry for inspection (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from repro.obs import MetricsRegistry
from repro.obs.spans import emit_event

#: Kernels instrumented in the module registry (metric name stems).
KERNEL_NAMES = (
    "classify",
    "tlb_screen",
    "ctc_probe",
    "tcache_sim",
    "epoch_profile",
)


# ----------------------------------------------------------------- metrics

_registry = MetricsRegistry()


def _register_catalog(registry: MetricsRegistry) -> None:
    """Eagerly register the full kernels catalog (zero-valued metrics)."""
    for name in KERNEL_NAMES:
        registry.counter(
            f"kernels.{name}.calls", unit="calls",
            description=f"Invocations of the {name} vector kernel",
        )
        registry.counter(
            f"kernels.{name}.items", unit="items",
            description=f"Total items batch-processed by the {name} "
                        f"vector kernel",
        )
        registry.histogram(
            f"kernels.{name}.batch_size", unit="items",
            description=f"Batch sizes seen by the {name} vector kernel",
        )


_register_catalog(_registry)


def kernel_registry() -> MetricsRegistry:
    """The module-level registry holding kernel counters/histograms."""
    return _registry


def observe_batch(kernel: str, batch_size: int) -> None:
    """Record one vector-kernel invocation over ``batch_size`` items.

    When a :class:`~repro.obs.spans.SpanTracer` is active (the runner's
    ``--trace`` path), each batch also lands on the timeline as a
    ``kernels.batch`` event — one record per whole-window kernel call,
    so the volume stays trivial.
    """
    _registry.counter(f"kernels.{kernel}.calls").inc()
    _registry.counter(f"kernels.{kernel}.items").inc(batch_size)
    _registry.histogram(f"kernels.{kernel}.batch_size").record(batch_size)
    emit_event("kernels.batch", kernel=kernel, items=batch_size)


def reset_kernel_metrics() -> None:
    """Zero the kernel metrics (tests and benchmark isolation)."""
    _registry.reset()


def publish_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Copy the kernels catalog into an external registry.

    Registers every catalogued name (so documentation checks see the
    full set even before any kernel has run) and copies current counter
    values and histogram observations.
    """
    _register_catalog(registry)
    for metric in _registry.metrics():
        if metric.kind == "counter":
            registry.counter(metric.name).set(metric.value)
        elif metric.kind == "histogram":
            target = registry.histogram(metric.name)
            target.reset()
            target.record_many(metric.values())
    return registry
