"""Edge cases of the streaming pipeline: saturation, silence, ordering.

Each test pins one failure mode the pipeline's design guards against:
queue-full backpressure, programs that never generate an event,
mid-stream taint sources racing the consumer, a saturated pending FIFO,
and run-to-run determinism.
"""

import pytest

from repro.dift.engine import DIFTEngine
from repro.isa.assembler import assemble
from repro.machine.cpu import CPU
from repro.machine.devices import DeviceTable, VirtualFile
from repro.pipeline import PipelineConfig, StreamingPipeline
from repro.platch.pending import PendingUpdateTracker
from repro.workloads import programs

from tests.test_pipeline import (
    attach_pipeline,
    run_pipeline,
    run_reference,
    signature,
)

#: A taint source mid-stream: 8 tainted bytes land in ``buf``, a clean
#: store clears byte 0, an *untainted* read then overwrites bytes 0-3,
#: and dependent loads straddle the clean/tainted boundary before the
#: buffer flows to the output sink.  Every one of those transitions must
#: reach the consumer in commit order.
MIDSTREAM_PROGRAM = """
.data
tpath:  .asciiz "t.txt"
upath:  .asciiz "u.txt"
buf:    .space 16
.text
_start:
    li   r3, 3
    li   r4, tpath
    syscall
    mv   r7, r3
    li   r3, 1
    mv   r4, r7
    li   r5, buf
    li   r6, 8
    syscall
    li   r8, buf
    li   r9, 0
    sb   r9, 0(r8)
    li   r3, 3
    li   r4, upath
    syscall
    mv   r7, r3
    li   r3, 1
    mv   r4, r7
    li   r5, buf
    li   r6, 4
    syscall
    lbu  r10, 2(r8)
    lbu  r11, 6(r8)
    li   r3, 2
    li   r4, 0
    li   r5, buf
    li   r6, 8
    syscall
    halt
"""


def _midstream_cpu():
    devices = DeviceTable()
    devices.register_file(VirtualFile("t.txt", b"TAINTTED", tainted=True))
    devices.register_file(VirtualFile("u.txt", b"okok", tainted=False))
    return CPU(assemble(MIDSTREAM_PROGRAM), devices=devices)


class TestQueueSaturation:
    def test_full_queue_stalls_producer_and_stays_correct(self):
        # drain_batch far above queue_capacity: automatic drains never
        # fire, so every drain is forced by backpressure.
        pipeline = run_pipeline(
            lambda: programs.echo_server(), None,
            queue_capacity=4, drain_batch=64,
        )
        assert pipeline.stats.queue_full_stalls > 0
        assert pipeline.model.stall_cycles > 0
        reference = run_reference(lambda: programs.echo_server(), None)
        assert signature(pipeline.engine) == signature(reference)

    def test_stall_metrics_published(self):
        pipeline = run_pipeline(
            lambda: programs.echo_server(), None,
            queue_capacity=4, drain_batch=64,
        )
        snapshot = pipeline.snapshot()
        assert snapshot.get("pipeline.queue.stalls") == (
            pipeline.stats.queue_full_stalls
        )
        assert snapshot.get("pipeline.queue.stall_cycles") > 0
        assert snapshot.get("pipeline.queue.high_water") == 4


class TestZeroEventPrograms:
    def test_untainted_run_enqueues_no_step_events(self):
        pipeline = run_pipeline(
            lambda: programs.file_filter(tainted=False), None
        )
        assert pipeline.stats.enqueued == 0
        assert pipeline.stats.suppressed > 0
        assert pipeline.stats.queue_full_stalls == 0
        assert pipeline.stats.enqueue_fraction == 0.0
        # I/O syscalls still traverse the queue as control records.
        assert pipeline.stats.control_events > 0
        assert pipeline.stats.control_drained == pipeline.stats.control_events
        assert pipeline.engine.shadow.tainted_byte_count == 0

    def test_model_predicts_zero_stall_for_silent_stream(self):
        pipeline = run_pipeline(
            lambda: programs.file_filter(tainted=False), None
        )
        assert pipeline.model.stall_cycles == 0
        assert pipeline.model.backlog == 0.0


class TestMidStreamTaintSources:
    @pytest.mark.parametrize("gate", ["scalar", "vector"])
    def test_ordering_with_lazy_drain(self, gate):
        """Drains happen only at halt, yet ordering is preserved."""
        reference_cpu = _midstream_cpu()
        reference = DIFTEngine()
        reference_cpu.attach(reference)
        reference_cpu.run(10_000)

        cpu = _midstream_cpu()
        pipeline = attach_pipeline(
            cpu, gate=gate, queue_capacity=256, drain_batch=10_000,
        )
        cpu.run(10_000)
        pipeline.finish()
        assert signature(pipeline.engine) == signature(reference)
        # The interesting shape actually occurred: some taint survives
        # (bytes 4-7) while the overwritten prefix was really cleared.
        tainted = set(reference.shadow.iter_tainted_bytes())
        assert tainted, "scenario must end with live taint"
        assert len(tainted) < 8, "untainted read must clear some bytes"

    def test_input_marks_coarse_state_before_drain(self):
        """Readers between INPUT and its drain must hit the gate."""
        cpu = _midstream_cpu()
        pipeline = StreamingPipeline(cpu, config=PipelineConfig(
            queue_capacity=256, drain_batch=10_000,
        ))
        cpu.run(10_000)
        # Before finish(): the queue still holds everything, yet the
        # loads after the tainted read must have been admitted (they
        # could not be proven clean).
        assert pipeline.stats.enqueued > 0
        pipeline.finish()
        assert pipeline.stats.drained == pipeline.stats.enqueued


class TestPendingFallback:
    def test_tiny_pending_fifo_forces_retry_path(self):
        scenario = programs.file_filter()
        cpu = scenario.make_cpu()
        pipeline = StreamingPipeline(cpu, config=PipelineConfig(
            queue_capacity=256, drain_batch=10_000,
        ))
        tiny = PendingUpdateTracker(capacity=2)
        pipeline.pending = tiny
        pipeline.gate.pending = tiny
        cpu.run(300_000)
        pipeline.finish()
        assert tiny.stalls > 0, "fallback path must actually trigger"
        reference = run_reference(lambda: programs.file_filter(), None)
        assert signature(pipeline.engine) == signature(reference)


class TestWrapperDeterminism:
    def test_wrapper_runs_are_bit_identical(self):
        def one_run():
            cpu = programs.echo_server().make_cpu()
            system = StreamingPipeline(cpu, config=PipelineConfig(
                queue_capacity=16, drain_batch=4,
            ))
            cpu.run(300_000)
            system.drain_all()
            return (
                signature(system.engine), system.stats, system.gate.stats,
                system.model.stall_cycles,
            )

        assert one_run() == one_run()


class TestIdempotentTeardown:
    """Repeated finish/drain after completion must be true no-ops.

    The serving layer drains sessions once when a client disconnects
    and again at teardown; any metric or state movement on the second
    pass would skew per-tenant accounting (and, before the fix, each
    empty drain logged a phantom occupancy sample and TRF resync).
    """

    @pytest.mark.parametrize("gate", ["scalar", "vector"])
    def test_double_finish_is_a_true_noop(self, gate):
        from repro.obs import MetricsRegistry

        cpu = programs.file_filter().make_cpu()
        pipeline = attach_pipeline(cpu, gate=gate)
        cpu.run(300_000)
        pipeline.finish()

        def state():
            registry = MetricsRegistry()
            pipeline.publish_metrics(registry)
            return (
                signature(pipeline.engine),
                pipeline.stats,
                pipeline._queue_instruments.occupancy.count,
                registry.snapshot().to_dict(),
            )

        before = state()
        pipeline.finish()
        pipeline.drain()
        pipeline.drain_all()
        pipeline.finish()
        assert state() == before

    @pytest.mark.parametrize("gate", ["scalar", "vector"])
    def test_empty_drain_records_no_occupancy_sample(self, gate):
        cpu = programs.checksum().make_cpu()
        pipeline = attach_pipeline(cpu, gate=gate)
        cpu.run(300_000)
        pipeline.finish()
        samples = pipeline._queue_instruments.occupancy.count
        assert pipeline.drain() == 0
        assert pipeline._queue_instruments.occupancy.count == samples

    def test_closed_queue_rejects_straggler_batches(self):
        from repro.machine.events import StepEvent
        from repro.pipeline.events import EventKind, PipelineEvent

        cpu = programs.checksum().make_cpu()
        pipeline = StreamingPipeline(cpu)
        cpu.run(300_000)
        pipeline.finish()
        pipeline.queue.close()
        pipeline.queue.close()  # idempotent
        with pytest.raises(RuntimeError):
            pipeline.queue.append(PipelineEvent(
                kind=EventKind.STEP, payload=None, sequence=-1,
            ))


class TestDetachedPipeline:
    def test_detached_pipeline_has_no_cpu_to_run(self):
        pipeline = StreamingPipeline(cpu=None)
        with pytest.raises(RuntimeError):
            pipeline.run()

    def test_detached_pipeline_replays_recorded_events(self):
        # Feeding a recorded event stream into a detached pipeline must
        # land exactly where the attached run landed.
        recorded = []

        class Recorder:
            def on_step(self, event):
                recorded.append(("step", event))

            def on_input(self, event):
                recorded.append(("input", event))

            def on_output(self, event):
                recorded.append(("output", event))

            def on_halt(self, step_index):
                recorded.append(("halt", step_index))

        cpu = programs.substitution_cipher().make_cpu()
        cpu.attach(Recorder())
        cpu.run(300_000)
        reference = run_reference(
            lambda: programs.substitution_cipher(), None
        )

        detached = StreamingPipeline(cpu=None)
        for kind, payload in recorded:
            if kind == "step":
                detached.on_step(payload)
            elif kind == "input":
                detached.on_input(payload)
            elif kind == "output":
                detached.on_output(payload)
            else:
                detached.on_halt(payload)
        detached.finish()
        assert signature(detached.engine) == signature(reference)
