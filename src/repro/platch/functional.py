"""Functional P-LATCH: a two-core monitored execution on the emulator.

The paper evaluates P-LATCH analytically; the reproduction additionally
*implements* it so the design can be checked end to end (Figure 11-b).
Since the streaming refactor, the implementation lives in
:mod:`repro.pipeline` — machine → LATCH gate → bounded queue → precise
DIFT, with real backpressure, stall accounting, and a sampling dial —
and this module keeps the long-standing whole-run API as a thin wrapper
configured for the classic cadence:

* event-at-a-time gate batches (``gate_batch=1``);
* sampling disabled.

The gate probes the CTT directly, as every pipeline does, so the CTC
and TLB taint-bit cost counters stay at zero; S-LATCH and H-LATCH
replay measure those structures.  Under that configuration the wrapper
reproduces the original event-at-a-time P-LATCH loop decision for
decision, so the long-standing differential tests in
``tests/test_platch_functional.py`` pin the pipeline to the seed
behaviour.  See docs/PIPELINE.md for the pipeline
architecture and the knobs the wrapper deliberately does not expose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.latch import LatchConfig
from repro.dift.policy import TaintPolicy
from repro.machine.cpu import CPU
from repro.pipeline.config import PipelineConfig, SamplingConfig
from repro.pipeline.pipeline import StreamingPipeline


@dataclass
class PLatchCounters:
    """Event accounting for the functional two-core system."""

    instructions: int = 0
    enqueued: int = 0
    drained: int = 0
    queue_full_stalls: int = 0
    pending_hits: int = 0

    @property
    def enqueue_fraction(self) -> float:
        """Fraction of instructions that entered the monitor queue."""
        if self.instructions == 0:
            return 0.0
        return self.enqueued / self.instructions


class PLatchSystem(StreamingPipeline):
    """LATCH-filtered two-core monitoring attached to one CPU.

    Args:
        cpu: the monitored machine.
        policy: DIFT policy for the monitor core.
        latch_config: LATCH structural parameters.
        queue_capacity: shared FIFO depth; a full queue forces an
            immediate partial drain (the producer stall of Figure 11).
        drain_batch: events the monitor processes per automatic drain.
    """

    def __init__(
        self,
        cpu: CPU,
        policy: Optional[TaintPolicy] = None,
        latch_config: Optional[LatchConfig] = None,
        queue_capacity: int = 256,
        drain_batch: int = 64,
    ) -> None:
        super().__init__(
            cpu,
            policy=policy,
            latch_config=latch_config,
            config=PipelineConfig(
                queue_capacity=queue_capacity,
                drain_batch=drain_batch,
                gate_batch=1,
                sampling=SamplingConfig(),
            ),
        )

    @property
    def counters(self) -> PLatchCounters:
        """The classic counter view over the pipeline's accounting."""
        return PLatchCounters(
            instructions=self.stats.instructions,
            enqueued=self.stats.enqueued,
            drained=self.stats.drained,
            queue_full_stalls=self.stats.queue_full_stalls,
            pending_hits=self.gate.stats.pending_hits,
        )
