"""The streaming P-LATCH pipeline: machine → gate → queue → DIFT.

This is the runtime shape the paper's Figure 11-b sketches, decomposed
into stages that each do one thing:

1. **Produce** — the monitored :class:`repro.machine.CPU` commits
   instructions; each :class:`StepEvent` is gated as it commits.
   Instructions the gate would suppress commit in quiet stretches
   without events (:meth:`StreamingPipeline.quiet_snapshot`,
   :meth:`StreamingPipeline.on_quiet`; ``docs/PIPELINE.md``).
   Taint-source/sink syscalls (INPUT/OUTPUT) enter the queue as ordered
   control events, so the asynchronous consumer replays sources, sinks,
   and stores in exact commit order.
2. **Gate** — :class:`repro.pipeline.gate.LatchGate` runs the coarse
   LATCH classification (one CTT probe per memory operand, taken at
   commit) plus the pending-update guard; provably taint-free
   instructions are suppressed here and never reach the queue.
3. **Sample** — an optional :class:`WindowSampler` drops whole windows
   of would-be-monitored events (the HardTaint coverage/overhead dial).
4. **Queue** — a :class:`BoundedEventQueue` with real backpressure: a
   full queue stalls the producer and forces a partial drain, and an
   inline :class:`StallModel` charges the stall cycles the paper's
   2-core analysis predicts.
5. **Consume** — the byte-precise :class:`repro.dift.DIFTEngine`
   analyses only what survived the gate; its tag writes flow back into
   the CTT (keeping the gate sound) and retire pending entries.

Soundness invariant: every instruction that could read, write, or
clear taint is enqueued (unless deliberately sampled out), so the
suppressed majority provably cannot change taint state and the final
precise state equals an always-on tracker's — differentially verified
by ``tests/test_pipeline.py`` and the ``stream`` path of the
``repro-check`` oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.latch import LatchConfig, LatchModule
from repro.dift.engine import DIFTEngine
from repro.dift.policy import TaintPolicy
from repro.machine.cpu import CPU
from repro.machine.events import InputEvent, Observer, OutputEvent, StepEvent
from repro.obs import MetricsRegistry
from repro.obs.queues import QueueInstruments
from repro.obs.spans import emit_event, maybe_span
from repro.pipeline.config import PipelineConfig
from repro.pipeline.events import EventKind, PipelineEvent
from repro.pipeline.gate import LatchGate
from repro.pipeline.model import StallModel
from repro.pipeline.queue import BoundedEventQueue
from repro.pipeline.sampling import WindowSampler


@dataclass
class PipelineStats:
    """Native-integer accounting for one pipeline run."""

    instructions: int = 0
    enqueued: int = 0            # step events admitted to the queue
    suppressed: int = 0          # step events the gate proved taint-free
    sampled_out: int = 0         # admitted but dropped by the sampler
    control_events: int = 0      # INPUT/OUTPUT records enqueued
    drained: int = 0             # step events the monitor analysed
    control_drained: int = 0     # control records the monitor applied
    queue_full_stalls: int = 0   # producer stalls on a full queue

    @property
    def enqueue_fraction(self) -> float:
        """Fraction of instructions that entered the monitor queue."""
        if self.instructions == 0:
            return 0.0
        return self.enqueued / self.instructions


class StreamingPipeline(Observer):
    """Decoupled two-core monitoring attached to one CPU.

    Args:
        cpu: the monitored machine (the pipeline attaches itself), or
            ``None`` for a *detached* pipeline whose producer lives
            elsewhere — e.g. a ``repro.serve`` tenant session feeding
            deserialised :class:`StepEvent`/:class:`InputEvent`/
            :class:`OutputEvent` records straight into the observer
            hooks.  A detached pipeline cannot :meth:`run` and skips
            the CPU rows when publishing metrics; everything else
            (gating, backpressure, stall accounting) is identical, so
            a remote trace replays bit-identically to a local run.
        policy: DIFT policy for the monitor core.
        latch_config: LATCH structural parameters.
        config: pipeline shape (queue, drain batch, sampling).
        registry: obs registry to publish into (one is created if
            omitted); the queue-occupancy histogram records into it
            during the run.
        tracer: optional :class:`repro.obs.Tracer` for stall events
            (span tracing additionally follows the ambient
            ``maybe_span`` context, as everywhere else in the tree).
    """

    def __init__(
        self,
        cpu: Optional[CPU],
        policy: Optional[TaintPolicy] = None,
        latch_config: Optional[LatchConfig] = None,
        config: Optional[PipelineConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer=None,
    ) -> None:
        from repro.platch.pending import PendingUpdateTracker

        self.config = config if config is not None else PipelineConfig()
        self.cpu = cpu
        self.engine = DIFTEngine(policy)
        self.latch = LatchModule(latch_config)
        self.queue = BoundedEventQueue(self.config.queue_capacity)
        self.pending = PendingUpdateTracker(
            capacity=self.config.pending_capacity
        )
        self.sampler = WindowSampler(self.config.sampling)
        self.gate = LatchGate(self.latch, self.pending)
        self.model = StallModel(
            self.config.analysis_cycles_per_event,
            self.config.queue_capacity,
        )
        self.stats = PipelineStats()
        self.obs = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        self._queue_instruments = QueueInstruments(
            self.obs, "pipeline.queue",
            occupancy_description="Monitor-queue entries after each drain",
        )
        self._carried_events = 0
        self.engine.add_tag_listener(self._on_tag_write)
        if cpu is not None:
            cpu.attach(self)

    @property
    def alerts(self) -> List:
        """Alerts raised by the monitor so far."""
        return self.engine.alerts

    # ------------------------------------------------------------ observer

    def on_step(self, event: StepEvent) -> None:
        """Gate, sample and enqueue one committed instruction."""
        self.stats.instructions += 1
        if self.gate.admit(event):
            if self.sampler.admit():
                self._enqueue_step(event)
                contributed = 1
            else:
                self.stats.sampled_out += 1
                contributed = 0
        else:
            self.stats.suppressed += 1
            contributed = 0
        self.model.commit(contributed + self._carried_events)
        self._carried_events = 0
        if len(self.queue) >= self.config.drain_batch:
            self.drain(self.config.drain_batch)

    def quiet_snapshot(self):
        """The gate's snapshot while a suppressed step would be inert.

        A suppressed :meth:`on_step` only counts and advances the stall
        model by one idle cycle, provided no control event is waiting
        to be charged and the queue is below the drain threshold.  The
        gate's inputs (TRF, CTT, pending FIFO) change only in an
        admitted :meth:`on_step`, in :meth:`drain` and in
        :meth:`on_input`/:meth:`on_output`, so the snapshot holds for
        the whole quiet stretch.
        """
        if self._carried_events or len(self.queue) >= self.config.drain_batch:
            return None
        return self.gate.quiet_snapshot()

    def quiet_registers(self) -> int:
        """The gate's TRF mask: the ``register_mask`` of its snapshot."""
        return self.latch.trf.register_mask()

    def on_quiet(self, count: int) -> None:
        """Account ``count`` gate-suppressed instructions in bulk.

        ``model.commit(0, count)`` equals ``count`` calls of
        ``commit(0)`` bit for bit: the backlog only falls, and a
        binary64 backlog below 2**53 minus an integer no larger than it
        is exact.
        """
        self.stats.instructions += count
        self.stats.suppressed += count
        self.gate.suppress(count)
        self.model.commit(0, count)

    def on_input(self, event: InputEvent) -> None:
        """Queue the taint source in sequence with neighbouring steps.

        The precise tags are applied when the consumer reaches the
        record, but the *coarse* CTT bits are set right here: readers
        of the input buffer that commit before the monitor catches up
        must already hit the gate.  (The converse — an untainted input
        overwriting tainted bytes — leaves the stale coarse bits in
        place until the drain clears them: conservative, never unsound.)
        """
        if event.data and self.engine.policy.should_taint(event):
            self.latch.update_memory_tags(
                event.address, b"\x01" * len(event.data), defer_clear=True
            )
        self._enqueue_control(EventKind.INPUT, event)

    def on_output(self, event: OutputEvent) -> None:
        """Queue the sink check behind every event it must observe."""
        self._enqueue_control(EventKind.OUTPUT, event)

    def on_halt(self, step_index: int) -> None:
        self.finish()

    # ------------------------------------------------------------ produce

    def _enqueue_step(self, event: StepEvent) -> None:
        if self.queue.full:
            self._stall()
        sequence = -1
        for access in event.writes:
            pushed = self.pending.push(access.address, access.size)
            while pushed is None:
                if self.drain(self.config.drain_batch) == 0:
                    raise RuntimeError(
                        "pending tracker full with an empty queue"
                    )
                pushed = self.pending.push(access.address, access.size)
            sequence = pushed
        self.queue.append(PipelineEvent(EventKind.STEP, event, sequence))
        self.stats.enqueued += 1
        # Conservative TRF: destinations of queued events count as
        # tainted until the monitor resolves them.
        for register in event.regs_written:
            self.latch.trf.taint(register)

    def _enqueue_control(self, kind: EventKind, event) -> None:
        if self.queue.full:
            self._stall()
        self.queue.append(PipelineEvent(kind, event))
        self.stats.control_events += 1
        self._carried_events += 1

    def _stall(self) -> None:
        self.stats.queue_full_stalls += 1
        emit_event("pipeline.stall", depth=len(self.queue))
        if self.tracer is not None:
            self.tracer.event("pipeline.stall", depth=len(self.queue))
        self.drain(self.config.drain_batch)

    # ------------------------------------------------------------ consume

    def drain(self, max_events: Optional[int] = None) -> int:
        """Run the monitor core over up to ``max_events`` queued events.

        Draining an empty queue is a *true* no-op: no TRF resync, no
        occupancy sample, no metric movement.  That makes repeated
        ``finish()`` calls idempotent — the multi-tenant disconnect path
        drains once when the client vanishes and again at teardown
        without skewing per-tenant metrics or state.
        """
        if not self.queue:
            return 0
        processed = 0
        with maybe_span("pipeline.drain", depth=len(self.queue)):
            while self.queue and (
                max_events is None or processed < max_events
            ):
                item = self.queue.popleft()
                if item.kind is EventKind.STEP:
                    self.engine.on_step(item.payload)
                    if item.sequence >= 0:
                        self.pending.retire(item.sequence)
                    self.stats.drained += 1
                elif item.kind is EventKind.INPUT:
                    self.engine.on_input(item.payload)
                    self.stats.control_drained += 1
                else:
                    self.engine.on_output(item.payload)
                    self.stats.control_drained += 1
                processed += 1
        if not self.queue:
            # Queue empty: resynchronise the conservative TRF with the
            # monitor's precise register taint (the strf path).
            self.latch.set_trf_mask(self.engine.trf.register_mask())
        self._queue_instruments.record_occupancy(len(self.queue))
        return processed

    def drain_all(self) -> int:
        """Process every outstanding event."""
        return self.drain(None)

    def finish(self) -> None:
        """Drain everything and close the stall accounting."""
        self.drain(None)
        if self._carried_events:
            self.model.commit(self._carried_events, 0.0)
            self._carried_events = 0

    def run(self, max_steps: int = 5_000_000) -> int:
        """Drive the CPU to completion under the pipeline."""
        if self.cpu is None:
            raise RuntimeError(
                "detached pipeline has no CPU to drive; feed events via "
                "on_step/on_input/on_output instead"
            )
        with maybe_span(
            "pipeline.run", queue_capacity=self.config.queue_capacity
        ):
            executed = self.cpu.run(max_steps)
            self.finish()
        return executed

    def replay_trace(self, source) -> int:
        """Drive a detached pipeline from a recorded ``.ltrace`` stream.

        ``source`` is an event-trace container (path, bytes, or an open
        :class:`~repro.trace.format.ColumnarFile`) recorded by
        :class:`~repro.trace.record.TraceRecorder`.  Events flow through
        the same observer hooks — gating, backpressure, and stall
        accounting included — so the replay is bit-identical to
        monitoring the original CPU live.  Returns the number of steps
        replayed.
        """
        if self.cpu is not None:
            raise RuntimeError(
                "replay_trace needs a detached pipeline (cpu=None); an "
                "attached pipeline's event stream is owned by its CPU"
            )
        from repro.trace.record import replay_events

        with maybe_span(
            "pipeline.replay_trace",
            queue_capacity=self.config.queue_capacity,
        ):
            return replay_events(source, self)

    # ------------------------------------------------------------- wiring

    def _on_tag_write(self, address: int, tags: bytes) -> None:
        self.latch.update_memory_tags(
            address,
            tags,
            defer_clear=False,
            clean_oracle=self.engine.shadow.region_clean,
        )

    # ------------------------------------------------------------- export

    def publish_metrics(
        self, registry: Optional[MetricsRegistry] = None
    ) -> MetricsRegistry:
        """Publish the whole stack's counters (pipeline, LATCH, DIFT, CPU)."""
        registry = registry if registry is not None else self.obs
        stats = self.stats
        registry.counter(
            "pipeline.instructions", unit="instructions",
            description="Instructions committed by the monitored core",
        ).set(stats.instructions)
        registry.counter(
            "pipeline.events.enqueued", unit="events",
            description="Step events admitted to the monitor queue",
        ).set(stats.enqueued)
        registry.counter(
            "pipeline.events.suppressed", unit="events",
            description="Step events the gate proved taint-free",
        ).set(stats.suppressed)
        registry.counter(
            "pipeline.events.sampled_out", unit="events",
            description="Admitted events dropped by the sampling dial",
        ).set(stats.sampled_out)
        registry.counter(
            "pipeline.events.control", unit="events",
            description="INPUT/OUTPUT records routed through the queue",
        ).set(stats.control_events)
        registry.counter(
            "pipeline.events.drained", unit="events",
            description="Step events the monitor core analysed",
        ).set(stats.drained)
        gate = self.gate.stats
        registry.counter(
            "pipeline.gate.register_hits", unit="events",
            description="Admissions from a tainted source register (TRF)",
        ).set(gate.register_hits)
        registry.counter(
            "pipeline.gate.memory_hits", unit="events",
            description="Admissions from a coarsely tainted memory domain",
        ).set(gate.memory_hits)
        registry.counter(
            "pipeline.gate.pending_hits", unit="events",
            description="Admissions forced by the pending-update guard",
        ).set(gate.pending_hits)
        registry.counter(
            "pipeline.gate.writeback_hits", unit="events",
            description="Admissions from overwriting a tainted register",
        ).set(gate.writeback_hits)
        registry.gauge(
            "pipeline.enqueue_frac", unit="fraction",
            description="Instructions producing a monitored event (§5.2)",
        ).set(stats.enqueue_fraction)
        self._queue_instruments.publish(
            depth=len(self.queue),
            high_water=self.queue.high_water,
            stalls=stats.queue_full_stalls,
            stall_cycles=int(self.model.stall_cycles),
            registry=registry,
        )
        registry.gauge(
            "pipeline.overhead", unit="fraction",
            description="Producer stall overhead over native (Figure 15)",
        ).set(
            self.model.stall_cycles / stats.instructions
            if stats.instructions else 0.0
        )
        registry.gauge(
            "pipeline.sampling.rate", unit="fraction",
            description="Configured window-monitoring probability",
        ).set(self.config.sampling.rate)
        registry.counter(
            "pipeline.sampling.windows", unit="windows",
            description="Sampling windows started",
        ).set(self.sampler.windows)
        registry.counter(
            "pipeline.sampling.windows_skipped", unit="windows",
            description="Sampling windows dropped unmonitored",
        ).set(self.sampler.windows_skipped)
        self.latch.publish_metrics(registry)
        self.engine.publish_metrics(registry)
        if self.cpu is not None:
            self.cpu.publish_metrics(registry)
        return registry

    def snapshot(self):
        """Publish all counters and freeze :attr:`obs` into a snapshot."""
        return self.publish_metrics().snapshot()

    def accumulate_metrics(self, registry: MetricsRegistry) -> None:
        """Add this run's queue/stall accounting into a shared registry.

        Unlike :meth:`publish_metrics` (which *sets* point-in-time
        values), this increments counters so many runs aggregate — the
        ``repro-check --stats-out`` artifact path.
        """
        for name, value, unit in (
            ("pipeline.runs", 1, "runs"),
            ("pipeline.instructions", self.stats.instructions,
             "instructions"),
            ("pipeline.events.enqueued", self.stats.enqueued, "events"),
            ("pipeline.events.suppressed", self.stats.suppressed, "events"),
            ("pipeline.events.sampled_out", self.stats.sampled_out,
             "events"),
            ("pipeline.events.control", self.stats.control_events, "events"),
            ("pipeline.events.drained", self.stats.drained, "events"),
            ("pipeline.queue.stalls", self.stats.queue_full_stalls,
             "events"),
            ("pipeline.queue.stall_cycles", int(self.model.stall_cycles),
             "cycles"),
        ):
            registry.counter(name, unit=unit).inc(value)
