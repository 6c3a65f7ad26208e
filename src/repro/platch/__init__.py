"""P-LATCH: LATCH-filtered parallel software DIFT (Section 5.2).

The baseline is a Log-Based Architecture (LBA) style 2-core monitor:
the monitored core extracts every committed instruction into a shared
FIFO queue; a second core runs the DIFT analysis over the queued
events.  Because analysing one event costs more than executing one
instruction, the queue saturates and the monitored core stalls — the
reported LBA overheads are 3.38x for the simple scheme and 36% for the
hardware-accelerated one.

P-LATCH puts the (unmodified) LATCH module on the monitored core and
enqueues *only* coarse-positive instructions, so the queue is empty for
the taint-free majority of execution.

Two models are provided, mirroring the paper's methodology:

* :func:`~repro.platch.model.analytic_platch` — the paper's analytical
  model: LBA's reported mean overheads localised to the taint-active
  periods (1000-instruction granularity);
* :class:`~repro.platch.queue_sim.TwoCoreQueueSimulator` — a
  discrete queue simulation exposing the stall mechanism itself; it
  steps :class:`repro.pipeline.model.StallModel`, the same recursion
  the running pipeline uses.

The running two-core system is :class:`repro.pipeline.StreamingPipeline`,
which gates each instruction as it commits.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.platch.lba": ("LBA_OPTIMIZED", "LBA_SIMPLE", "LbaParameters"),
    "repro.platch.model": ("PLatchReport", "analytic_platch"),
    "repro.platch.pending": ("PendingEntry", "PendingUpdateTracker"),
    "repro.platch.queue_sim": ("QueueReport", "TwoCoreQueueSimulator"),
})
