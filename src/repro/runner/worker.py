"""Job execution — the code that runs inside pool workers.

:func:`execute_job` is a module-level function (so it pickles under any
multiprocessing start method) taking a plain-dict payload and returning
a plain-dict result: the job's :class:`~repro.obs.StatsSnapshot` as a
dict plus the measured duration.  Wall-clock timings never enter the
snapshot itself, so a job's snapshot is bit-identical whether it ran
serially, in a pool worker, or came out of the cache — which is what
lets the scheduler verify parallel runs against serial ones.

Determinism: every kind builds its own
:class:`~repro.workloads.WorkloadGenerator` from ``(workload, seed)``,
so results do not depend on which process executes the job or in what
order.  Generated artefacts are shared through an optional
:class:`~repro.runner.cache.TraceCache` (the benchmark harness points
workers at the same directory it reads, so one generation pass feeds
every consumer).

The ``chaos`` kind is deliberate fault injection for exercising the
scheduler's failure paths (worker death, timeout, flaky retry); it is
what the fault-tolerance tests and the docs' failure-semantics examples
use.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Dict, Optional

from contextlib import ExitStack

from repro.analysis import (
    epoch_duration_profile,
    false_positive_sweep,
    page_taint_distribution,
    tainted_instruction_fraction,
)
from repro.hlatch import run_baseline, run_hlatch
from repro.obs import MetricsRegistry
from repro.obs.flight import FlightRecorder
from repro.obs.spans import SpanTracer, TraceContext, activate, maybe_span
from repro.obs.tracer import Tracer
from repro.runner.specs import JobSpec
from repro.slatch.simulator import measure_hw_rates, simulate_slatch
from repro.workloads import WorkloadGenerator, make_generator
from repro.workloads.generator import DEFAULT_EPOCH_SCALE, DEFAULT_TRACE_WINDOW


def _generator(spec: JobSpec) -> WorkloadGenerator:
    # Dispatches calibrated profiles, service engines, and ltrace:
    # replay sources alike; unknown names still raise KeyError.
    return make_generator(spec.workload, seed=spec.seed)


def _epoch_stream(spec: JobSpec, generator, trace_cache):
    scale = int(spec.param("epoch_scale", DEFAULT_EPOCH_SCALE))
    with maybe_span("worker.epoch_stream", workload=spec.workload,
                    scale=scale, cached=trace_cache is not None):
        if trace_cache is not None:
            return trace_cache.epoch_stream(generator, scale)
        return generator.epoch_stream(scale)


def _access_trace(spec: JobSpec, generator, trace_cache):
    window = int(spec.param("trace_window", DEFAULT_TRACE_WINDOW))
    with maybe_span("worker.access_trace", workload=spec.workload,
                    window=window, cached=trace_cache is not None):
        if trace_cache is not None:
            return trace_cache.access_trace(generator, window)
        return generator.access_trace(window)


# ------------------------------------------------------------- job kinds


def _job_taint_fraction(spec, registry, trace_cache, in_subprocess) -> None:
    """Tables 1/2: fraction of instructions touching tainted data."""
    stream = _epoch_stream(spec, _generator(spec), trace_cache)
    registry.gauge(
        "workload.taint_percent", unit="percent",
        description="Instructions touching tainted data (Tables 1/2)",
    ).set(100.0 * tainted_instruction_fraction(stream))
    registry.gauge(
        "workload.epochs", unit="epochs",
        description="Epoch count of the generated stream",
    ).set(stream.epoch_count)
    registry.gauge(
        "workload.total_instructions", unit="instructions",
        description="Instructions represented by the stream",
    ).set(stream.total_instructions)


def _job_page_taint(spec, registry, trace_cache, in_subprocess) -> None:
    """Tables 3/4: distribution of taint at page granularity."""
    stats = page_taint_distribution(_generator(spec).layout())
    registry.gauge(
        "layout.pages_accessed", unit="pages",
        description="Pages the workload touches (Tables 3/4)",
    ).set(stats.pages_accessed)
    registry.gauge(
        "layout.pages_tainted", unit="pages",
        description="Pages containing tainted bytes (Tables 3/4)",
    ).set(stats.pages_tainted)
    registry.gauge(
        "layout.tainted_percent", unit="percent",
        description="Tainted pages as % of accessed pages (Tables 3/4)",
    ).set(stats.tainted_percent)


def _publish_hlatch_gauges(registry, hlatch, baseline) -> None:
    """The Tables 6/7 and Figure 16 gauges of one H-LATCH/baseline pair."""
    gauges = {
        "hlatch.ctc_miss_percent": (
            hlatch.ctc_miss_percent, "percent",
            "CTC misses as % of accesses (Tables 6/7)",
        ),
        "hlatch.tcache_miss_percent": (
            hlatch.tcache_miss_percent, "percent",
            "Precise taint-cache misses as % of accesses (Tables 6/7)",
        ),
        "hlatch.combined_miss_percent": (
            hlatch.combined_miss_percent, "percent",
            "CTC + precise misses as % of accesses (Tables 6/7)",
        ),
        "hlatch.ctc_misses": (
            hlatch.ctc_misses, "accesses", "CTC miss count",
        ),
        "hlatch.tcache_misses": (
            hlatch.tcache_misses, "accesses", "Precise taint-cache miss count",
        ),
        "hlatch.avoided_percent": (
            hlatch.misses_avoided_percent(baseline.misses), "percent",
            "Baseline misses the LATCH stack filtered away (Tables 6/7)",
        ),
        "baseline.miss_percent": (
            baseline.miss_percent, "percent",
            "Conventional 4 KB taint-cache miss rate (Tables 6/7)",
        ),
        "baseline.misses": (
            baseline.misses, "accesses", "Conventional taint-cache miss count",
        ),
    }
    for name, (value, unit, description) in gauges.items():
        registry.gauge(name, unit=unit, description=description).set(value)
    for level, fraction in hlatch.resolution_split().items():
        registry.gauge(
            f"hlatch.resolved.{level}", unit="fraction",
            description=f"Accesses resolved at the {level} level (Figure 16)",
        ).set(fraction)


def _job_hlatch(spec, registry, trace_cache, in_subprocess) -> None:
    """Tables 6/7 + Figure 16: the filtered and baseline taint caches."""
    trace = _access_trace(spec, _generator(spec), trace_cache)
    with maybe_span("worker.hlatch_replay", workload=spec.workload):
        hlatch = run_hlatch(trace)
    with maybe_span("worker.baseline_replay", workload=spec.workload):
        baseline = run_baseline(trace)
    _publish_hlatch_gauges(registry, hlatch, baseline)


def _job_slatch(spec, registry, trace_cache, in_subprocess) -> None:
    """Figures 13/14: the S-LATCH performance model."""
    generator = _generator(spec)
    profile = generator.profile
    stream = _epoch_stream(spec, generator, trace_cache)
    trace = _access_trace(spec, generator, trace_cache)
    rates = measure_hw_rates(trace)
    report = simulate_slatch(profile, stream, rates)
    report.publish_metrics(registry)


def _job_epochs(spec, registry, trace_cache, in_subprocess) -> None:
    """Figures 5 and 15: taint-free epoch durations, P-LATCH overheads."""
    from repro.platch import LBA_OPTIMIZED, LBA_SIMPLE, analytic_platch

    stream = _epoch_stream(spec, _generator(spec), trace_cache)
    for threshold, percent in epoch_duration_profile(stream).items():
        registry.gauge(
            f"epochs.taint_free_percent.{threshold}", unit="percent",
            description="Instructions in taint-free epochs >= L (Figure 5)",
        ).set(percent)
    simple = analytic_platch(stream, LBA_SIMPLE)
    optimized = analytic_platch(stream, LBA_OPTIMIZED)
    registry.gauge(
        "platch.monitored_fraction", unit="fraction",
        description="Instructions in taint-active LBA windows (Figure 15)",
    ).set(simple.monitored_fraction)
    registry.gauge(
        "platch.simple.overhead", unit="fraction",
        description="P-LATCH overhead over the simple LBA (Figure 15)",
    ).set(simple.overhead)
    registry.gauge(
        "platch.optimized.overhead", unit="fraction",
        description="P-LATCH overhead over the optimized LBA (Figure 15)",
    ).set(optimized.overhead)


def _job_fp_sweep(spec, registry, trace_cache, in_subprocess) -> None:
    """Figure 6: coarse-taint detection multiplier per domain size."""
    trace = _access_trace(spec, _generator(spec), trace_cache)
    for size, multiplier in false_positive_sweep(trace).items():
        if multiplier != multiplier:  # NaN: no precise taint to inflate
            continue
        registry.gauge(
            f"fp.multiplier.{size}", unit="ratio",
            description="Coarse/precise taint footprint (Figure 6)",
        ).set(multiplier)


def _job_chaos(spec, registry, trace_cache, in_subprocess) -> None:
    """Fault injection: crash, die, stall, or fail on demand.

    Parameters (all optional):

    * ``crash_once`` — path of a sentinel file; the first execution
      creates it and then dies, every later execution succeeds.  With
      ``crash_mode="exit"`` the death is a hard ``os._exit`` (a worker
      process kill — exercises BrokenProcessPool recovery); in-process
      executions always downgrade to an exception so a serial run
      cannot take the host down.
    * ``fail_always`` — raise on every execution (retry exhaustion).
    * ``sleep`` — stall for N seconds (timeout handling).
    * ``value`` — published as the ``chaos.value`` gauge on success.
    """
    crash_once = spec.param("crash_once")
    if crash_once is not None:
        sentinel = Path(str(crash_once))
        if not sentinel.exists():
            sentinel.parent.mkdir(parents=True, exist_ok=True)
            sentinel.touch()
            if spec.param("crash_mode", "raise") == "exit" and in_subprocess:
                os._exit(17)
            raise RuntimeError(f"chaos: first-attempt crash ({spec.job_id})")
    if spec.param("fail_always", False):
        raise RuntimeError(f"chaos: fail_always ({spec.job_id})")
    sleep = spec.param("sleep")
    if sleep:
        time.sleep(float(sleep))
    registry.gauge(
        "chaos.value", unit="", description="Fault-injection payload value",
    ).set(spec.param("value", 0))


def _job_trace_shard(spec, registry, trace_cache, in_subprocess):
    """One shard of a sharded columnar replay (internal fan-out kind).

    Parameters: ``path`` (the ``.ltrace`` file — every worker maps it
    independently; the OS page cache shares the backing pages),
    ``start``/``stop`` (the access slice), and ``config`` (the JSON
    blob from :func:`repro.trace.replay.shard_job_specs`).  The
    run-compressed partial travels back in ``snapshot.meta`` — it is
    order-sensitive merge input, not a metric.
    """
    from repro.trace.convert import ColumnarAccessTrace
    from repro.trace.replay import configs_from_blob, shard_partial

    latch_config, tcache_config, baseline_config = configs_from_blob(
        str(spec.param("config"))
    )
    start = int(spec.param("start", 0))
    stop = int(spec.param("stop", 0))
    with ColumnarAccessTrace(str(spec.param("path"))) as trace:
        from repro.hlatch.system import HLatchSystem

        system = HLatchSystem(latch_config, tcache_config)
        system.load_taint(trace.layout)
        partial = shard_partial(
            trace.addresses[start:stop],
            trace.sizes[start:stop],
            trace.is_write[start:stop],
            system.latch,
            tcache_config,
            baseline_config,
        )
    registry.gauge(
        "trace.shard.accesses", unit="accesses",
        description="Accesses summarised by this trace shard",
    ).set(partial.count)
    return {"trace_shard": partial.to_wire()}


def _job_trace_replay(spec, registry, trace_cache, in_subprocess) -> None:
    """Whole-trace columnar replay (Tables 6/7 via the zero-copy path).

    Parameters: ``path`` points at an existing ``.ltrace``; without it
    the worker generates the workload's access trace (``trace_window``
    scale, shared through the trace cache like every other kind) and
    replays its in-memory columnar form.  ``shards`` is the resolved
    shard count — it is stamped into the spec (and thus the cache key)
    by the caller, never read from the environment here, so cached
    snapshots can't go stale when ``REPRO_TRACE_SHARDS`` changes.
    """
    from repro.trace.convert import columnar_trace_bytes
    from repro.trace.replay import publish_trace_metrics, replay_columnar

    path = spec.param("path")
    shards = int(spec.param("shards", 1))
    if path is not None:
        source = str(path)
    else:
        trace = _access_trace(spec, _generator(spec), trace_cache)
        source = columnar_trace_bytes(trace)
    with maybe_span("worker.trace_replay", workload=spec.workload,
                    shards=shards):
        result = replay_columnar(source, shards=shards)
    _publish_hlatch_gauges(registry, result.hlatch, result.baseline)
    # Deterministic trace.* rows only; trace.merge.seconds is wall
    # clock and must stay out of cacheable job snapshots.
    publish_trace_metrics(registry, result)


_KINDS = {
    "taint_fraction": _job_taint_fraction,
    "page_taint": _job_page_taint,
    "hlatch": _job_hlatch,
    "slatch": _job_slatch,
    "epochs": _job_epochs,
    "fp_sweep": _job_fp_sweep,
    "chaos": _job_chaos,
    "trace_shard": _job_trace_shard,
    "trace_replay": _job_trace_replay,
}


def _open_trace(payload: Dict[str, object], stack: ExitStack):
    """Resume the scheduler's trace inside this process, if requested.

    The payload's ``trace`` dict carries the shard directory and the
    wire-serialised :class:`TraceContext` of the job's scheduler-side
    span; the worker opens its *own* shard (``run.<pid>.jsonl``) there
    and attaches a flight recorder that dumps the last records on
    crash — and, for real pool workers, on SIGTERM.
    """
    config = payload.get("trace")
    if not config:
        return None
    directory = str(config["dir"])
    sink = Tracer(shard_dir=directory)
    stack.callback(sink.close)
    from repro.obs.flight import flight_path

    # $REPRO_FLIGHT_DIR redirects crash/SIGTERM dumps away from the
    # trace directory (e.g. onto persistent storage).
    flight = FlightRecorder(path=flight_path(directory))
    if payload.get("in_subprocess"):
        # Serial in-process execution must not steal the host process's
        # SIGTERM disposition; pool workers own theirs.
        flight.install()
        stack.callback(flight.uninstall)
    spans = SpanTracer(
        sink,
        context=TraceContext.from_wire(config["context"]),
        flight=flight,
    )
    stack.enter_context(flight.guard("execute_job"))
    return spans


def execute_job(payload: Dict[str, object]) -> Dict[str, object]:
    """Run one job described by a plain-dict payload.

    Payload fields: ``spec`` (a :meth:`JobSpec.to_dict` dict),
    ``trace_cache_dir`` (optional shared artefact cache directory),
    ``in_subprocess`` (whether a hard crash may kill this process), and
    optionally ``trace`` (shard directory + wire
    :class:`~repro.obs.spans.TraceContext`) — when present, the worker
    continues the scheduler's span tree in its own per-pid shard, with
    a flight recorder dumping the last spans/events on crash or
    SIGTERM.

    Returns ``{"snapshot": <StatsSnapshot dict>, "duration": seconds,
    "pid": worker pid}``.  Raises on job failure — the scheduler turns
    exceptions into retries.  Tracing never changes the snapshot: a
    traced run's results are bit-identical to an untraced one.
    """
    spec = JobSpec.from_dict(payload["spec"])
    try:
        run_kind = _KINDS[spec.kind]
    except KeyError:
        raise ValueError(f"unknown job kind {spec.kind!r}") from None

    trace_cache = None
    cache_dir: Optional[str] = payload.get("trace_cache_dir")
    if cache_dir:
        from repro.runner.cache import TraceCache

        trace_cache = TraceCache(cache_dir)

    started = time.perf_counter()
    registry = MetricsRegistry()
    with ExitStack() as stack:
        spans = _open_trace(payload, stack)
        if spans is not None:
            stack.enter_context(activate(spans))
            spans.event("runner.heartbeat", job=spec.job_id, phase="start")
        with maybe_span("worker.job", job=spec.job_id, job_kind=spec.kind,
                        workload=spec.workload):
            extra_meta = run_kind(
                spec, registry, trace_cache,
                bool(payload.get("in_subprocess")),
            )
        if spans is not None:
            spans.event("runner.heartbeat", job=spec.job_id, phase="end")
    snapshot = registry.snapshot()
    snapshot.meta.update({"job": spec.to_dict()})
    # Kinds may return structured results that are not metrics (e.g. a
    # trace shard's run-compressed partial); they ride in the meta.
    if extra_meta:
        snapshot.meta.update(extra_meta)
    return {
        "snapshot": snapshot.to_dict(),
        "duration": time.perf_counter() - started,
        "pid": os.getpid(),
    }
