"""live-clean and live-taint: programs monitored on the live path.

Each run builds a fresh scenario and CPU, attaches a
``StreamingPipeline`` with ``PipelineConfig()`` defaults, and times
``pipeline.run()``: emulator step → LATCH gate → sampler → queue →
precise DIFT.  Runs repeat until the time budget is spent.  After the
timed region every run's ``canonical_signature`` is compared with an
always-on ``DIFTEngine`` run of the same program (the paper's
no-false-negative invariant).
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ledger import LIVE_TARGETS, Ledger, coverage, layer_metrics, median

from repro.dift.engine import DIFTEngine
from repro.pipeline import PipelineConfig, StreamingPipeline
from repro.serve.protocol import canonical_signature
from repro.workloads import programs

#: Clean-loop iterations per live-clean run (121K instructions, about
#: 1 s on a 2-vCPU VM).  Immediates must stay within the ISA's +-32767
#: so the same program could also be streamed.
CLEAN_ITERATIONS = 10_000
#: Request bodies per live-taint run (~66K instructions).
TAINT_REQUESTS = 40
#: Share of trusted connections (the paper's apache-25 policy).
TRUSTED_SHARE = 0.25
MAX_STEPS = 5_000_000


def clean_factory(seed: int, iterations: int = CLEAN_ITERATIONS) -> Callable:
    """Fresh phased_compute CPUs over one seeded 64-byte payload."""
    rng = random.Random(f"live-clean:{seed}")
    payload = bytes(rng.randrange(256) for _ in range(64))
    return lambda: programs.phased_compute(
        payload=payload, clean_iterations=iterations
    ).make_cpu()


def taint_factory(seed: int, requests: int = TAINT_REQUESTS) -> Callable:
    """Fresh echo_server CPUs over seeded 120-240 B request bodies.

    Body lengths are spread evenly over 120-240 B and exactly
    ``TRUSTED_SHARE`` of the connections are trusted; the seed shuffles
    both and draws the bytes.  Every seed therefore runs the same number
    of instructions with the same taint mix, and only the inputs differ.
    """
    rng = random.Random(f"live-taint:{seed}")
    lengths = [120 + (120 * i) // max(requests - 1, 1)
               for i in range(requests)]
    trusted = [i < round(TRUSTED_SHARE * requests) for i in range(requests)]
    rng.shuffle(lengths)
    rng.shuffle(trusted)
    bodies = [bytes(rng.randrange(32, 127) for _ in range(length))
              for length in lengths]
    return lambda: programs.echo_server(list(bodies), list(trusted)).make_cpu()


@dataclass
class Run:
    """One monitored program run."""

    instructions: int = 0
    seconds: float = 0.0
    halted: bool = False
    signature: Optional[Dict] = None
    error: Optional[str] = None


@dataclass
class LiveResult:
    runs: List[Run] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)


def _counts(pipeline: StreamingPipeline) -> Dict[str, float]:
    gate = pipeline.gate.stats
    stats = pipeline.stats
    return {
        "gate.steps": gate.steps,
        "gate.suppressed_frac": (gate.suppressed / gate.steps
                                 if gate.steps else 0.0),
        "gate.register_hits": gate.register_hits,
        "gate.memory_hits": gate.memory_hits,
        "gate.pending_hits": gate.pending_hits,
        "gate.writeback_hits": gate.writeback_hits,
        "pipeline.enqueue_frac": stats.enqueue_fraction,
        "pipeline.stall_cycles": int(pipeline.model.stall_cycles),
        "queue.stalls": stats.queue_full_stalls,
        "queue.high_water": pipeline.queue.high_water,
    }


def monitored_runs(
    make_cpu: Callable, seconds: float, ledger: Optional[Ledger] = None,
) -> LiveResult:
    """Repeat fresh monitored runs until ``seconds`` have passed."""
    result = LiveResult()
    deadline = time.monotonic() + seconds
    while True:
        run = Run()
        try:
            cpu = make_cpu()
            pipeline = StreamingPipeline(cpu, config=PipelineConfig())
            span = (nullcontext() if ledger is None
                    else ledger.span("live.run", key=str(len(result.runs))))
            with span:
                start = time.perf_counter()
                run.instructions = pipeline.run(MAX_STEPS)
                run.seconds = time.perf_counter() - start
            run.halted = cpu.halted
            run.signature = canonical_signature(pipeline.engine)
            if not result.counts:
                result.counts = _counts(pipeline)
        except Exception as error:  # a product failure is a failed run
            run.error = f"{type(error).__name__}: {error}"
        result.runs.append(run)
        if time.monotonic() >= deadline:
            return result


def reference_run(make_cpu: Callable, observer: bool):
    """Unmonitored (``observer=False``) or always-on DIFT run.

    Returns ``(instructions, seconds, signature or None)``.
    """
    cpu = make_cpu()
    engine = DIFTEngine() if observer else None
    if engine is not None:
        cpu.attach(engine)
    start = time.perf_counter()
    executed = cpu.run(MAX_STEPS)
    elapsed = time.perf_counter() - start
    signature = canonical_signature(engine) if engine is not None else None
    return executed, elapsed, signature


def warm_up(make_cpu: Callable) -> None:
    """One small monitored run so lazy imports finish before timing."""
    cpu = make_cpu()
    StreamingPipeline(cpu, config=PipelineConfig()).run(MAX_STEPS)


def run_workload(
    make_cpu: Callable, warm_cpu: Callable, seconds: float, trace: bool,
    mark_setup_done: Callable[[], None], spans_path=None,
) -> Dict:
    """The whole live workload; returns the child's result dict."""
    warm_up(warm_cpu)
    mark_setup_done()
    out: Dict = {"metrics": {}, "notes": {}, "layers": {}}
    if not trace:
        plain = monitored_runs(make_cpu, seconds)
        checked = plain.runs
    else:
        plain = monitored_runs(make_cpu, seconds / 2)
        ledger = Ledger().install(LIVE_TARGETS)
        try:
            traced = monitored_runs(make_cpu, seconds / 2, ledger)
        finally:
            ledger.restore()
        checked = plain.runs + traced.runs
        layers = layer_metrics([ledger.to_dict()],
                               sum(run.seconds for run in traced.runs))
        out["layers"].update(layers)
        out["layers"]["trace.coverage_frac"] = coverage(layers)
        out["layers"]["trace_overhead_frac"] = (
            median([r.seconds for r in traced.runs])
            / median([r.seconds for r in plain.runs]) - 1.0
        )
        executed, elapsed, _ = reference_run(make_cpu, observer=False)
        out["layers"]["machine.native_ips"] = executed / elapsed
        if spans_path is not None:
            ledger.write_spans(spans_path)

    executed, elapsed, expected = reference_run(make_cpu, observer=True)
    failed = 0
    errors: List[str] = []
    for run in checked:
        if (run.error is not None or not run.halted
                or run.signature != expected):
            failed += 1
            if len(errors) < 5:
                errors.append(run.error or (
                    "program did not halt" if not run.halted
                    else "signature differs from always-on DIFT"
                ))
    good = [run for run in plain.runs if run.error is None]
    ips = median([run.instructions / run.seconds for run in good])
    run_ms = median([run.seconds * 1000.0 for run in good])
    out["attempted"] = len(checked)
    out["failed"] = failed
    out["errors"] = errors
    out["metrics"].update({"work_per_s": ips, "latency_p50_ms": run_ms})
    out["notes"].update({
        "monitored_ips": (ips, "instr/s"),
        "runs": (len(plain.runs), "count"),
        "instructions_per_run": (good[0].instructions if good else 0, "instr"),
    })
    out["layers"].update(plain.counts)
    out["layers"]["dift.alwayson_ips"] = executed / elapsed
    return out
