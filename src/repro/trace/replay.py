"""Sharded zero-copy replay of columnar access traces.

Each shard slices the mmapped ``.ltrace`` columns (no copies, no
per-event objects) into :func:`~repro.kernels.replay.shard_partial`;
:func:`~repro.kernels.replay.merge_partials` then folds the summaries,
in shard order, into a live :class:`~repro.hlatch.HLatchSystem`.
Shards run in process (:func:`replay_columnar`) or across the runner
pool (:func:`replay_columnar_pooled`).  The merge is exact, so the
snapshot is bit-identical to ``run_hlatch``'s one-shard replay for
**any** shard plan — the conformance and property suites hold this
line, and ``repro-check``'s ``columnar`` oracle path re-proves it
against the per-access H-LATCH stack.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.latch import LatchConfig
from repro.hlatch.baseline import BaselineReport, merged_baseline
from repro.hlatch.system import (
    HLATCH_LATCH_CONFIG,
    HLatchReport,
    HLatchSystem,
)
from repro.hlatch.taint_cache import (
    CONVENTIONAL_TAINT_CACHE,
    HLATCH_TAINT_CACHE,
    TaintCacheConfig,
)
from repro.kernels.replay import (  # noqa: F401 (re-exported)
    ShardPartial,
    merge_baseline_partials,
    merge_partials,
    shard_partial,
)
from repro.obs import MetricsRegistry
from repro.obs.spans import maybe_span
from repro.trace.convert import ColumnarAccessTrace
from repro.trace.format import PathLike
from repro.trace.shard import plan_shards, resolve_shard_count


# ----------------------------------------------------------- entry points


@dataclass
class ColumnarReplayResult:
    """Outcome of one sharded columnar replay."""

    hlatch: HLatchReport
    baseline: Optional[BaselineReport]
    access_count: int
    shard_count: int
    mmap_bytes: int
    merge_seconds: float
    system: HLatchSystem


def _merged_result(
    partials: Sequence[ShardPartial],
    system: HLatchSystem,
    name: str,
    baseline_config: Optional[TaintCacheConfig],
    mmap_bytes: int,
    registry: Optional[MetricsRegistry],
) -> ColumnarReplayResult:
    """Merge shard summaries into ``system`` (and a fresh baseline cache
    when ``baseline_config`` is set) and report the replay."""
    merge_started = time.perf_counter()
    merge_partials(partials, system)
    baseline_report = None
    if baseline_config is not None:
        baseline_report = merged_baseline(partials, baseline_config, name)
    merge_seconds = time.perf_counter() - merge_started
    result = ColumnarReplayResult(
        hlatch=system.report(name),
        baseline=baseline_report,
        access_count=sum(partial.count for partial in partials),
        shard_count=len(partials),
        mmap_bytes=mmap_bytes,
        merge_seconds=merge_seconds,
        system=system,
    )
    if registry is not None:
        publish_trace_metrics(registry, result)
    return result


def _open(source: Union[PathLike, bytes, ColumnarAccessTrace]):
    """``(trace, opened_here)`` for any accepted trace source."""
    if isinstance(source, ColumnarAccessTrace):
        return source, False
    return ColumnarAccessTrace(source), True


def _plan(trace: ColumnarAccessTrace, shards, plan):
    if plan is not None:
        return plan
    return plan_shards(
        len(trace), resolve_shard_count(shards), trace.epoch_starts
    )


def replay_columnar(
    source: Union[PathLike, bytes, ColumnarAccessTrace],
    latch_config: LatchConfig = HLATCH_LATCH_CONFIG,
    tcache_config: TaintCacheConfig = HLATCH_TAINT_CACHE,
    baseline_config: Optional[TaintCacheConfig] = CONVENTIONAL_TAINT_CACHE,
    shards: Union[int, str, None] = None,
    plan: Optional[Sequence[Tuple[int, int]]] = None,
    registry: Optional[MetricsRegistry] = None,
) -> ColumnarReplayResult:
    """Replay a columnar trace through the H-LATCH stack, sharded.

    ``shards`` follows :func:`~repro.trace.shard.resolve_shard_count`
    (int, ``"auto"``, or None → ``REPRO_TRACE_SHARDS``); an explicit
    ``plan`` of ``(start, stop)`` ranges overrides it (property tests).
    ``baseline_config=None`` skips the conventional-cache comparison.
    ``registry`` receives the deterministic ``trace.*`` gauges (shard
    count, mapped bytes) — wall-clock timings stay out of it so the
    result snapshot is machine-independent.
    """
    trace, opened_here = _open(source)
    try:
        plan = _plan(trace, shards, plan)
        system = HLatchSystem(latch_config, tcache_config)
        system.load_taint(trace.layout)
        with maybe_span("trace.replay", workload=trace.name,
                        accesses=len(trace), shards=len(plan)):
            partials = [
                shard_partial(
                    trace.addresses[start:stop],
                    trace.sizes[start:stop],
                    trace.is_write[start:stop],
                    system.latch,
                    tcache_config,
                    baseline_config,
                )
                for start, stop in plan
            ]
            return _merged_result(
                partials, system, trace.name, baseline_config,
                trace.nbytes, registry,
            )
    finally:
        if opened_here:
            trace.close()


def replay_baseline_columnar(
    source: Union[PathLike, bytes, ColumnarAccessTrace],
    config: TaintCacheConfig = CONVENTIONAL_TAINT_CACHE,
    shards: Union[int, str, None] = None,
    plan: Optional[Sequence[Tuple[int, int]]] = None,
) -> BaselineReport:
    """Columnar, sharded equivalent of :func:`repro.hlatch.run_baseline`."""
    trace, opened_here = _open(source)
    try:
        partials = [
            shard_partial(
                trace.addresses[start:stop],
                trace.sizes[start:stop],
                trace.is_write[start:stop],
                None,
                baseline_config=config,
            )
            for start, stop in _plan(trace, shards, plan)
        ]
        return merged_baseline(partials, config, trace.name)
    finally:
        if opened_here:
            trace.close()


# ------------------------------------------------------------ pool fan-out


def _config_blob(
    latch_config: LatchConfig,
    tcache_config: TaintCacheConfig,
    baseline_config: Optional[TaintCacheConfig],
) -> str:
    import dataclasses

    return json.dumps({
        "latch": dataclasses.asdict(latch_config),
        "tcache": dataclasses.asdict(tcache_config),
        "baseline": (
            None if baseline_config is None
            else dataclasses.asdict(baseline_config)
        ),
    }, sort_keys=True)


def configs_from_blob(
    blob: str,
) -> Tuple[LatchConfig, TaintCacheConfig, Optional[TaintCacheConfig]]:
    """Decode a :func:`shard_job_specs` config blob (worker side)."""
    payload = json.loads(blob)
    baseline = payload.get("baseline")
    return (
        LatchConfig(**payload["latch"]),
        TaintCacheConfig(**payload["tcache"]),
        None if baseline is None else TaintCacheConfig(**baseline),
    )


def shard_job_specs(
    path: PathLike,
    name: str,
    plan: Sequence[Tuple[int, int]],
    latch_config: LatchConfig = HLATCH_LATCH_CONFIG,
    tcache_config: TaintCacheConfig = HLATCH_TAINT_CACHE,
    baseline_config: Optional[TaintCacheConfig] = CONVENTIONAL_TAINT_CACHE,
) -> List["JobSpec"]:
    """One ``trace_shard`` job spec per plan entry.

    The workload is suffixed ``#<index>`` so every shard has a unique
    ``job_id``; configs ride along as a canonical JSON blob (and thus
    enter the content-addressed cache key).
    """
    from repro.runner.specs import JobSpec

    blob = _config_blob(latch_config, tcache_config, baseline_config)
    return [
        JobSpec.make(
            "trace_shard", f"{name}#{index}",
            path=str(Path(path)), start=start, stop=stop, config=blob,
        )
        for index, (start, stop) in enumerate(plan)
    ]


def replay_columnar_pooled(
    path: PathLike,
    latch_config: LatchConfig = HLATCH_LATCH_CONFIG,
    tcache_config: TaintCacheConfig = HLATCH_TAINT_CACHE,
    baseline_config: Optional[TaintCacheConfig] = CONVENTIONAL_TAINT_CACHE,
    shards: Union[int, str, None] = None,
    runner=None,
    registry: Optional[MetricsRegistry] = None,
) -> ColumnarReplayResult:
    """Fan a columnar trace's shards across the runner pool and merge.

    Each pool worker maps the ``.ltrace`` file itself (the OS page
    cache shares the backing pages between them) and ships back only
    the run-compressed :class:`ShardPartial`.  ``runner`` is a
    :class:`repro.runner.Runner` (a default fault-tolerant one is built
    when omitted); a single-shard plan skips the pool entirely.  The
    merged result is bit-identical to the in-process
    :func:`replay_columnar` — the scheduler's retry/rebuild machinery
    cannot change counters, only wall-clock.
    """
    path = Path(path)
    with ColumnarAccessTrace(path) as trace:
        name = trace.name
        nbytes = trace.nbytes
        plan = _plan(trace, shards, None)
        layout = trace.layout
    if len(plan) <= 1:
        return replay_columnar(
            path, latch_config, tcache_config, baseline_config,
            plan=plan, registry=registry,
        )

    from repro.runner.scheduler import Runner

    if runner is None:
        runner = Runner()
    specs = shard_job_specs(
        path, name, plan, latch_config, tcache_config, baseline_config
    )
    results = runner.run(specs)
    partials: List[ShardPartial] = []
    for spec in specs:
        result = results[spec.job_id]
        if not result.ok:
            raise RuntimeError(
                f"trace shard {spec.job_id} failed after "
                f"{result.attempts} attempts: {result.error}"
            )
        partials.append(
            ShardPartial.from_wire(result.snapshot.meta["trace_shard"])
        )

    system = HLatchSystem(latch_config, tcache_config)
    system.load_taint(layout)
    return _merged_result(
        partials, system, name, baseline_config, nbytes, registry
    )


# ----------------------------------------------------------------- metrics


def publish_trace_metrics(
    registry: MetricsRegistry,
    result: ColumnarReplayResult,
    include_timings: bool = False,
) -> MetricsRegistry:
    """Publish the ``trace.*`` catalog rows for one columnar replay.

    The deterministic rows (replay count, shard count, mapped bytes)
    are safe inside job snapshots; ``trace.merge.seconds`` is wall
    clock, so it is published only when ``include_timings`` is set —
    ad-hoc CLI/benchmark registries, never cached job results.
    """
    registry.counter(
        "trace.replays", unit="replays",
        description="Columnar trace replays performed",
    ).inc()
    registry.gauge(
        "trace.shards", unit="shards",
        description="Shards of the last columnar replay",
    ).set(result.shard_count)
    registry.gauge(
        "trace.mmap.bytes", unit="bytes",
        description="Mapped .ltrace container size of the last replay",
    ).set(result.mmap_bytes)
    if include_timings:
        registry.timer(
            "trace.merge.seconds",
            description="Wall-clock time merging shard partials",
        ).record(result.merge_seconds)
    return registry
