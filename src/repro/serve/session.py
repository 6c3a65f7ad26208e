"""The session layer: one admitted request → one private pipeline.

A :class:`StreamSession` maps a tenant's event stream onto a *detached*
:class:`repro.pipeline.StreamingPipeline` — no CPU, events arrive from
the wire — so every session owns a private LatchModule (CTT/CTC/TLB)
and DIFTEngine (shadow memory, TRF, alerts).  Tenant isolation is
structural: there is simply no shared taint object to leak through.

Lifecycle::

    open ──feed*──▶ result ──▶ released
      │                ▲
      └── disconnect ──┘   (drained idempotently; see below)

``result()`` and ``close()`` are both idempotent and both finish the
pipeline, so the normal path (client sends ``stream_close``), the
disconnect path (connection handler tears down), and server shutdown
can each run in any order without double-counting a single metric —
backed by the pipeline's true-no-op repeated ``finish()`` and the
queue's ``close()`` guard against post-result traffic.

:class:`JobRunner` is the whole-job sibling: the server assembles and
executes the submitted program locally under an attached pipeline and
serves the same result shape.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.latch import LatchConfig
from repro.machine.cpu import ExecutionError
from repro.pipeline.config import PipelineConfig, SamplingConfig
from repro.pipeline.pipeline import StreamingPipeline
from repro.serve.protocol import (
    ProtocolError,
    canonical_signature,
    decode_batch,
    wire_value,
)

#: Job executions are bounded regardless of what the client asks for.
MAX_JOB_STEPS = 2_000_000


def _knobs(overrides, what: str):
    if overrides is None:
        return ()
    if not isinstance(overrides, dict):
        raise ProtocolError(f"{what} overrides must be an object")
    return overrides.items()


def pipeline_config_from_wire(overrides: Optional[Dict]) -> PipelineConfig:
    """Build a :class:`PipelineConfig` from a request's override dict.

    Only whitelisted structural knobs are honoured; anything else is a
    protocol error (clients must not smuggle arbitrary kwargs), and so
    is a value that does not coerce to its knob's type.  No overrides
    give ``PipelineConfig()``, and
    :func:`repro.serve.client.local_reference` builds its local oracle
    through this same function, so an unconfigured served check is
    bit-comparable to a local run.
    """
    values: Dict = {}
    sampling: Dict = {}
    for key, value in _knobs(overrides, "pipeline"):
        if key in ("queue_capacity", "drain_batch"):
            values[key] = wire_value(int, key, value)
        elif key == "sample_rate":
            sampling["rate"] = wire_value(float, key, value)
        elif key in ("sample_window", "sample_seed"):
            sampling[key[len("sample_"):]] = wire_value(int, key, value)
        else:
            raise ProtocolError(f"unknown pipeline knob: {key!r}")
    try:
        if sampling:
            values["sampling"] = SamplingConfig(**sampling)
        return PipelineConfig(**values)
    except ValueError as error:
        raise ProtocolError(f"bad pipeline config: {error}") from error


def latch_config_from_wire(overrides: Optional[Dict]) -> LatchConfig:
    """Build a :class:`LatchConfig` from a request's override dict."""
    allowed = {
        "domain_size", "page_size", "ctc_entries", "tlb_entries",
        "use_tlb_bits", "ctc_miss_penalty_cycles",
    }
    values: Dict = {}
    for key, value in _knobs(overrides, "latch"):
        if key not in allowed:
            raise ProtocolError(f"unknown latch knob: {key!r}")
        values[key] = wire_value(
            bool if key == "use_tlb_bits" else int, key, value
        )
    try:
        return LatchConfig(**values)
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"bad latch config: {error}") from error


def _wire_pipeline(
    cpu, pipeline_overrides, latch_overrides, registry
) -> StreamingPipeline:
    """A pipeline built from a request's ``pipeline``/``latch`` overrides.

    Every bad override — unknown knob, wrong type, or a value the LATCH
    structures reject at construction — is a :class:`ProtocolError`.
    """
    latch_config = latch_config_from_wire(latch_overrides)
    config = pipeline_config_from_wire(pipeline_overrides)
    try:
        return StreamingPipeline(
            cpu, latch_config=latch_config, config=config, registry=registry
        )
    except ValueError as error:
        raise ProtocolError(f"bad latch config: {error}") from error


def _stats_payload(pipeline: StreamingPipeline) -> Dict:
    stats = pipeline.stats
    return {
        "instructions": stats.instructions,
        "enqueued": stats.enqueued,
        "suppressed": stats.suppressed,
        "sampled_out": stats.sampled_out,
        "control_events": stats.control_events,
        "drained": stats.drained,
        "control_drained": stats.control_drained,
        "queue_full_stalls": stats.queue_full_stalls,
        "stall_cycles": int(pipeline.model.stall_cycles),
    }


class StreamSession:
    """One admitted stream: tenant, slot, and a detached pipeline."""

    def __init__(
        self,
        tenant,
        stream_id: str,
        slot,
        controller,
        pipeline_overrides: Optional[Dict] = None,
        latch_overrides: Optional[Dict] = None,
    ) -> None:
        self.tenant = tenant
        self.stream_id = stream_id
        self.slot = slot
        self.controller = controller
        self.pipeline = _wire_pipeline(
            None, pipeline_overrides, latch_overrides, tenant.obs
        )
        self.config = self.pipeline.config
        self.events_fed = 0
        self.halted = False
        self.retries = 0
        self._result: Optional[Dict] = None
        self._released = False
        tenant.active_streams += 1

    # -------------------------------------------------------------- state

    @property
    def finished(self) -> bool:
        return self._result is not None

    # --------------------------------------------------------------- feed

    def feed(self, batch: Dict) -> int:
        """Apply one admitted event batch in order; returns event count.

        Decoding happens before any state mutation, so a malformed
        batch is rejected atomically (the client may fix and resend
        without the stream having advanced).
        """
        if self.finished:
            raise ProtocolError(
                f"stream {self.stream_id} already produced its result"
            )
        events = decode_batch(batch)
        pipeline = self.pipeline
        for kind, payload in events:
            if kind == "step":
                pipeline.on_step(payload)
            elif kind == "input":
                pipeline.on_input(payload)
            elif kind == "output":
                pipeline.on_output(payload)
            else:  # halt
                self.halted = True
                pipeline.on_halt(payload)
        self.events_fed += len(events)
        self.tenant.events_in += len(events)
        self.tenant.batches += 1
        return len(events)

    # -------------------------------------------------------------- query

    def query(self, address: int, size: int) -> Dict:
        """Online taint answer over everything acknowledged so far.

        Forces a full drain first (changing drain cadence, not
        outcomes — the final signature is unaffected; see
        docs/SERVICE.md) so the answer reflects every event the server
        has ``ok``'d.
        """
        if size < 1:
            raise ProtocolError("query size must be >= 1")
        self.pipeline.drain_all()
        shadow = self.pipeline.engine.shadow
        return {
            "type": "taint",
            "stream": self.stream_id,
            "address": address,
            "size": size,
            "tainted": shadow.any_tainted(address, size),
            "tags": list(shadow.get_range(address, size)),
        }

    # ------------------------------------------------------------- result

    def result(self) -> Dict:
        """Finish the pipeline and build the terminal frame (cached)."""
        if self._result is None:
            self.pipeline.finish()
            self.pipeline.queue.close()
            self.pipeline.accumulate_metrics(self.tenant.obs)
            self._result = {
                "type": "result",
                "stream": self.stream_id,
                "halted": self.halted,
                "events": self.events_fed,
                "signature": canonical_signature(self.pipeline.engine),
                "stats": _stats_payload(self.pipeline),
            }
            self.tenant.results += 1
        return self._result

    # -------------------------------------------------------------- close

    def close(self, disconnected: bool = False) -> None:
        """Drain idempotently and release the in-flight slot.

        Safe to call after :meth:`result`, after a previous close, and
        from the disconnect path — each effect fires exactly once.
        """
        if self._result is None:
            # Client vanished mid-stream: drain what was acknowledged
            # so the pipeline's invariants (pending FIFO, TRF resync)
            # settle, then seal the queue against stragglers.
            self.pipeline.finish()
            self.pipeline.queue.close()
            self.pipeline.accumulate_metrics(self.tenant.obs)
            self._result = {"type": "result", "stream": self.stream_id,
                            "aborted": True}
            if disconnected:
                self.tenant.disconnects += 1
        if not self._released:
            self._released = True
            self.tenant.active_streams -= 1
            self.controller.release(self.slot)


class JobRunner:
    """Whole-job mode: assemble, execute, and check a submitted program."""

    def __init__(self, tenant, slot, controller) -> None:
        self.tenant = tenant
        self.slot = slot
        self.controller = controller
        self._released = False

    def run(self, job: Dict) -> Dict:
        """Execute one job payload and build its ``result`` frame."""
        import base64

        from repro.isa.assembler import assemble
        from repro.machine.cpu import CPU
        from repro.machine.devices import DeviceTable, VirtualFile

        if not isinstance(job, dict):
            raise ProtocolError("job must be an object")
        if "trace" in job:
            return self._run_trace(job)
        if "source" not in job:
            raise ProtocolError(
                "job must carry an assembly 'source' or a recorded 'trace'"
            )
        try:
            program = assemble(str(job["source"]))
        except Exception as error:
            raise ProtocolError(f"assembly failed: {error}") from error
        devices = DeviceTable()
        for entry in job.get("files", ()):
            try:
                devices.register_file(VirtualFile(
                    name=str(entry["name"]),
                    data=base64.b64decode(str(entry["data"])),
                    tainted=bool(entry.get("tainted", True)),
                ))
            except ProtocolError:
                raise
            except Exception as error:
                raise ProtocolError(f"bad job file: {error}") from error
        max_steps = min(
            wire_value(int, "max_steps", job.get("max_steps", MAX_JOB_STEPS)),
            MAX_JOB_STEPS,
        )
        cpu = CPU(program, devices=devices)
        pipeline = _wire_pipeline(
            cpu, job.get("pipeline"), job.get("latch"), self.tenant.obs
        )
        try:
            executed = cpu.run(max_steps)
        except ExecutionError:
            executed = cpu.step_count
        pipeline.finish()
        pipeline.accumulate_metrics(self.tenant.obs)
        self.tenant.results += 1
        return {
            "type": "result",
            "halted": cpu.halted,
            "events": executed,
            "signature": canonical_signature(pipeline.engine),
            "stats": _stats_payload(pipeline),
        }

    def _run_trace(self, job: Dict) -> Dict:
        """Replay a wire-delivered ``.ltrace`` event trace, detached.

        ``job["trace"]`` is the base64 container recorded by
        :class:`repro.trace.TraceRecorder`; no CPU is built — the
        pipeline replays the commit stream exactly as the recording
        machine produced it, so the signature matches a live submit of
        the same program.  Corrupt containers are a protocol error, not
        a server fault (the format layer checksums everything at open).
        """
        import base64

        from repro.trace.format import ColumnarFile, StorageFormatError

        try:
            blob = base64.b64decode(str(job["trace"]), validate=True)
        except Exception as error:
            raise ProtocolError(f"bad trace encoding: {error}") from error
        pipeline = _wire_pipeline(
            None, job.get("pipeline"), job.get("latch"), self.tenant.obs
        )
        try:
            handle = ColumnarFile(blob)
            halted = handle.meta.get("halt_step") is not None
            executed = pipeline.replay_trace(handle)
        except StorageFormatError as error:
            raise ProtocolError(f"bad trace: {error}") from error
        pipeline.finish()
        pipeline.accumulate_metrics(self.tenant.obs)
        self.tenant.results += 1
        return {
            "type": "result",
            "halted": halted,
            "events": executed,
            "signature": canonical_signature(pipeline.engine),
            "stats": _stats_payload(pipeline),
        }

    def release(self) -> None:
        """Return the in-flight slot (idempotent)."""
        if not self._released:
            self._released = True
            self.controller.release(self.slot)
