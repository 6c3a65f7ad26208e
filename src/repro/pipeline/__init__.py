"""repro.pipeline — the streaming P-LATCH event pipeline.

The paper's P-LATCH (Section 5.2) is a producer/queue/consumer system:
the monitored core emits compact taint-relevant events, LATCH gating
filters them, and a second core runs precise DIFT over what remains.
This package *is* that runtime shape for the reproduction:

* :class:`StreamingPipeline` — machine → gate → bounded queue → DIFT,
  with real backpressure, an inline stall model, sampling, and full
  obs/span instrumentation (docs/PIPELINE.md is the architecture doc);
* :class:`PipelineConfig` / :class:`SamplingConfig` — every knob, also
  settable through ``REPRO_PIPELINE_*`` environment variables;
* :class:`StallModel` — the P-LATCH queue model, a Lindley backlog
  recursion the pipeline steps per committed instruction and
  :class:`repro.platch.queue_sim.TwoCoreQueueSimulator` per epoch.

Each committed instruction is gated as it commits — the event-at-a-time
P-LATCH cadence of §5.2 — locally and in served streams alike.

Usage::

    from repro.pipeline import PipelineConfig, StreamingPipeline

    pipeline = StreamingPipeline(cpu, config=PipelineConfig(
        queue_capacity=64, drain_batch=16,
    ))
    pipeline.run()
    print(pipeline.stats.enqueue_fraction)
    print(pipeline.model.stall_cycles)
"""

from repro.pipeline.config import PipelineConfig, SamplingConfig
from repro.pipeline.events import EventKind, PipelineEvent
from repro.pipeline.gate import GateStats, LatchGate
from repro.pipeline.model import StallModel
from repro.pipeline.pipeline import PipelineStats, StreamingPipeline
from repro.pipeline.queue import BoundedEventQueue
from repro.pipeline.sampling import WindowSampler

__all__ = [
    "BoundedEventQueue",
    "EventKind",
    "GateStats",
    "LatchGate",
    "PipelineConfig",
    "PipelineEvent",
    "PipelineStats",
    "SamplingConfig",
    "StallModel",
    "StreamingPipeline",
    "WindowSampler",
]
