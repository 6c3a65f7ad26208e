"""Sharded zero-copy replay of columnar access traces.

The replay is split into two halves with a clean algebraic seam:

* :func:`shard_partial` — the **stateless** per-shard work.  Each shard
  slices the mmapped columns (no copies, no per-event objects), runs
  the pure-CTT kernels (TLB screen flags, CTC probe flags, taint-cache
  line flattening), and run-compresses every LRU lookup sequence down
  to its boundary runs.  Shards are independent: they can run in this
  process, across a pool, or on another machine.
* :func:`merge_partials` — the **stateful** carry-in/carry-out merge.
  The parent feeds each structure's concatenated boundary runs through
  one resumable :class:`~repro.kernels.lru.LruState` in shard order and
  writes the counters into a live :class:`~repro.hlatch.HLatchSystem`.

The merge is *exact*: splitting a run at a shard boundary duplicates
its id, and the duplicate's guaranteed MRU hit compensates the
within-run hit the split loses while leaving the eviction order
untouched (see :class:`~repro.kernels.lru.LruState`).  The resulting
snapshot is therefore bit-identical to a single-core scalar replay for
**any** shard plan — the conformance and property suites hold this
line, and ``repro-check``'s ``columnar`` oracle path re-proves it
against the live object pipeline.
"""

from __future__ import annotations

import base64
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.latch import LatchConfig
from repro.hlatch.baseline import BaselineReport
from repro.hlatch.system import (
    HLATCH_LATCH_CONFIG,
    HLatchReport,
    HLatchSystem,
)
from repro.hlatch.taint_cache import (
    CONVENTIONAL_TAINT_CACHE,
    HLATCH_TAINT_CACHE,
    PreciseTaintCache,
    TaintCacheConfig,
)
from repro.kernels import classify
from repro.kernels import ctc as ctc_kernel
from repro.kernels import tcache as tcache_kernel
from repro.kernels import tlb as tlb_kernel
from repro.kernels.backend import observe_batch
from repro.kernels.lru import LruState, run_boundaries
from repro.obs import MetricsRegistry
from repro.obs.spans import maybe_span
from repro.trace.convert import ColumnarAccessTrace
from repro.trace.format import PathLike
from repro.trace.shard import plan_shards, resolve_shard_count

_MASK32 = 0xFFFFFFFF

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_FLAGS = np.empty(0, dtype=bool)


@dataclass
class ShardPartial:
    """The order-independent summary one shard contributes to the merge.

    Array fields are run-compressed boundary sequences; everything else
    is an additive counter (except ``last_positive_address``, where the
    *last* shard carrying one wins, matching the scalar path's
    last-write semantics).
    """

    count: int
    tlb_checks: int
    tlb_hot_checks: int
    tlb_count: int
    tlb_runs: np.ndarray
    hot_count: int
    ctc_count: int
    ctc_runs: np.ndarray
    positives: int
    last_positive_address: Optional[int]
    tcache_count: int
    tcache_runs: np.ndarray
    tcache_run_writes: np.ndarray
    baseline_count: int = 0
    baseline_runs: np.ndarray = None  # type: ignore[assignment]
    baseline_run_writes: np.ndarray = None  # type: ignore[assignment]

    # --------------------------------------------------------------- wire

    def to_wire(self) -> Dict[str, object]:
        """JSON-safe form (base64 arrays) for pool-worker transport."""
        payload: Dict[str, object] = {
            "count": self.count,
            "tlb_checks": self.tlb_checks,
            "tlb_hot_checks": self.tlb_hot_checks,
            "tlb_count": self.tlb_count,
            "hot_count": self.hot_count,
            "ctc_count": self.ctc_count,
            "positives": self.positives,
            "last_positive_address": self.last_positive_address,
            "tcache_count": self.tcache_count,
            "baseline_count": self.baseline_count,
        }
        for name in ("tlb_runs", "ctc_runs", "tcache_runs",
                     "tcache_run_writes", "baseline_runs",
                     "baseline_run_writes"):
            payload[name] = _encode_array(getattr(self, name))
        return payload

    @classmethod
    def from_wire(cls, payload: Dict[str, object]) -> "ShardPartial":
        """Inverse of :meth:`to_wire`."""
        last = payload["last_positive_address"]
        return cls(
            count=int(payload["count"]),
            tlb_checks=int(payload["tlb_checks"]),
            tlb_hot_checks=int(payload["tlb_hot_checks"]),
            tlb_count=int(payload["tlb_count"]),
            tlb_runs=_decode_array(payload["tlb_runs"]),
            hot_count=int(payload["hot_count"]),
            ctc_count=int(payload["ctc_count"]),
            ctc_runs=_decode_array(payload["ctc_runs"]),
            positives=int(payload["positives"]),
            last_positive_address=None if last is None else int(last),
            tcache_count=int(payload["tcache_count"]),
            tcache_runs=_decode_array(payload["tcache_runs"]),
            tcache_run_writes=_decode_array(payload["tcache_run_writes"]),
            baseline_count=int(payload["baseline_count"]),
            baseline_runs=_decode_array(payload["baseline_runs"]),
            baseline_run_writes=_decode_array(payload["baseline_run_writes"]),
        )


def _encode_array(array: Optional[np.ndarray]) -> Optional[Dict[str, str]]:
    if array is None:
        return None
    array = np.ascontiguousarray(array)
    return {
        "dtype": array.dtype.str,
        "b64": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def _decode_array(payload) -> Optional[np.ndarray]:
    if payload is None:
        return None
    return np.frombuffer(
        base64.b64decode(payload["b64"]), dtype=np.dtype(payload["dtype"])
    )


# ------------------------------------------------------------ shard work


def shard_partial(
    addresses: np.ndarray,
    sizes: np.ndarray,
    writes: np.ndarray,
    latch,
    tcache_config: TaintCacheConfig,
    baseline_config: Optional[TaintCacheConfig] = None,
) -> ShardPartial:
    """Stateless per-shard replay work over one access slice.

    ``latch`` is a freshly bulk-loaded
    :class:`~repro.core.latch.LatchModule` used read-only (its frozen
    CTT and geometry); counters are **not** touched — everything flows
    into the returned :class:`ShardPartial`.  ``baseline_config``
    additionally summarises the conventional-cache replay of the same
    slice (``None`` skips it).
    """
    raw_addresses = classify.as_index_array(addresses)
    raw_sizes = classify.as_index_array(sizes)
    writes = np.asarray(writes, dtype=bool)
    n = len(raw_addresses)
    observe_batch("classify", n)
    masked = raw_addresses & _MASK32
    effective = classify.effective_sizes(raw_sizes)
    geometry = latch.geometry
    ctt_index = classify.CttIndex(latch.ctt)

    if latch.tlb_bits is not None:
        screen = tlb_kernel.screen_flags(masked, effective, geometry, ctt_index)
        tlb_runs, _ = run_boundaries(screen.checked_pages)
        page_hot = screen.page_hot
        tlb_checks = screen.checks
        tlb_hot_checks = screen.hot_checks
        tlb_count = len(screen.checked_pages)
    else:
        page_hot = np.ones(n, dtype=bool)
        tlb_runs = _EMPTY_IDS
        tlb_checks = tlb_hot_checks = tlb_count = 0

    hot_addresses = masked[page_hot]
    probe = ctc_kernel.probe_flags(
        hot_addresses, effective[page_hot], geometry, ctt_index
    )
    ctc_runs, _ = run_boundaries(probe.word_sequence)
    positives = int(probe.tainted.sum())
    last_positive = (
        int(hot_addresses[probe.tainted][-1]) if positives else None
    )

    coarse = np.zeros(n, dtype=bool)
    coarse[page_hot] = probe.tainted
    # The precise cache sees the *unmasked* addresses, as in the scalar
    # stack (check_memory masks internally; tcache.access does not).
    tc_sequence, tc_writes = tcache_kernel.line_sequence(
        raw_addresses[coarse], effective[coarse], writes[coarse],
        tcache_config,
    )
    tcache_runs, tcache_run_writes = run_boundaries(tc_sequence, tc_writes)

    baseline_count = 0
    baseline_runs: Optional[np.ndarray] = None
    baseline_run_writes: Optional[np.ndarray] = None
    if baseline_config is not None:
        base_sequence, base_writes = tcache_kernel.line_sequence(
            raw_addresses, effective, writes, baseline_config
        )
        baseline_runs, baseline_run_writes = run_boundaries(
            base_sequence, base_writes
        )
        baseline_count = len(base_sequence)

    return ShardPartial(
        count=n,
        tlb_checks=tlb_checks,
        tlb_hot_checks=tlb_hot_checks,
        tlb_count=tlb_count,
        tlb_runs=tlb_runs,
        hot_count=int(page_hot.sum()),
        ctc_count=len(probe.word_sequence),
        ctc_runs=ctc_runs,
        positives=positives,
        last_positive_address=last_positive,
        tcache_count=len(tc_sequence),
        tcache_runs=tcache_runs,
        tcache_run_writes=(
            tcache_run_writes if tcache_run_writes is not None
            else _EMPTY_FLAGS
        ),
        baseline_count=baseline_count,
        baseline_runs=baseline_runs,
        baseline_run_writes=baseline_run_writes,
    )


# ----------------------------------------------------------------- merge


def _merge_structure(
    state: LruState,
    stats,
    counts: Sequence[int],
    run_lists: Sequence[np.ndarray],
    write_lists: Optional[Sequence[Optional[np.ndarray]]] = None,
    count_writebacks: bool = True,
) -> None:
    """Feed per-shard boundary runs through one carry-over LRU state.

    Accumulates into a live ``CacheStats``-shaped object: per shard,
    the within-run hits the compression dropped (``count - len(runs)``)
    plus the boundary decisions of the shared state.
    """
    for index, runs in enumerate(run_lists):
        run_writes = None
        if write_lists is not None:
            writes = write_lists[index]
            run_writes = None if writes is None else writes.tolist()
        boundary = state.apply_runs(runs.tolist(), run_writes)
        stats.accesses += counts[index]
        stats.hits += (counts[index] - len(runs)) + boundary.hits
        stats.misses += boundary.misses
        stats.evictions += boundary.evictions
        if count_writebacks:
            stats.writebacks += boundary.writebacks


def merge_partials(
    partials: Sequence[ShardPartial],
    system: HLatchSystem,
) -> None:
    """Merge shard summaries into a live system, in shard order.

    After the merge, ``system``'s counters (and therefore its snapshot
    and report) are bit-identical to a single replay of the whole
    window — scalar or vector, they agree.
    """
    latch = system.latch
    latch.stats.memory_checks += sum(p.count for p in partials)

    if latch.tlb_bits is not None:
        latch.tlb_bits.checks += sum(p.tlb_checks for p in partials)
        latch.tlb_bits.hot_checks += sum(p.tlb_hot_checks for p in partials)
        _merge_structure(
            LruState(ways=latch.tlb_bits.tlb.entries),
            latch.tlb_bits.tlb.stats,
            [p.tlb_count for p in partials],
            [p.tlb_runs for p in partials],
            count_writebacks=False,
        )
    latch.stats.resolved_by_tlb += sum(
        p.count - p.hot_count for p in partials
    )

    _merge_structure(
        LruState(ways=latch.ctc.entries),
        latch.ctc.stats,
        [p.ctc_count for p in partials],
        [p.ctc_runs for p in partials],
        count_writebacks=False,  # CTC probes carry no dirty state
    )
    latch.stats.sent_to_precise += sum(p.positives for p in partials)
    latch.stats.resolved_by_ctc += sum(
        p.hot_count - p.positives for p in partials
    )
    for partial in partials:
        if partial.positives:
            latch.last_exception_address = partial.last_positive_address

    config = system.tcache.config
    _merge_structure(
        LruState(ways=config.ways, num_sets=config.sets),
        system.tcache.stats,
        [p.tcache_count for p in partials],
        [p.tcache_runs for p in partials],
        [p.tcache_run_writes for p in partials],
    )


def merge_baseline_partials(
    partials: Sequence[ShardPartial],
    cache: PreciseTaintCache,
) -> None:
    """Merge the conventional-cache half of shard summaries."""
    for partial in partials:
        if partial.baseline_runs is None:
            raise ValueError(
                "shard partial carries no baseline summary "
                "(shard_partial ran without baseline_config)"
            )
    config = cache.config
    _merge_structure(
        LruState(ways=config.ways, num_sets=config.sets),
        cache.stats,
        [p.baseline_count for p in partials],
        [p.baseline_runs for p in partials],
        [p.baseline_run_writes for p in partials],
    )


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


def _loaded_system(
    layout,
    latch_config: LatchConfig,
    tcache_config: TaintCacheConfig,
) -> HLatchSystem:
    system = HLatchSystem(latch_config, tcache_config)
    system.load_taint(layout)
    return system


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
    opened_here = not isinstance(source, ColumnarAccessTrace)
    trace = source if not opened_here else ColumnarAccessTrace(source)
    try:
        n = len(trace)
        if plan is None:
            plan = plan_shards(
                n, resolve_shard_count(shards), trace.epoch_starts
            )
        system = _loaded_system(trace.layout, latch_config, tcache_config)
        with maybe_span("trace.replay", workload=trace.name,
                        accesses=n, shards=len(plan)):
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
            merge_started = time.perf_counter()
            merge_partials(partials, system)
            baseline_report: Optional[BaselineReport] = None
            if baseline_config is not None:
                cache = PreciseTaintCache(baseline_config)
                merge_baseline_partials(partials, cache)
                baseline_report = BaselineReport(
                    name=trace.name,
                    accesses=cache.stats.accesses,
                    misses=cache.stats.misses,
                )
            merge_seconds = time.perf_counter() - merge_started
        result = ColumnarReplayResult(
            hlatch=system.report(trace.name),
            baseline=baseline_report,
            access_count=n,
            shard_count=len(plan),
            mmap_bytes=trace.nbytes,
            merge_seconds=merge_seconds,
            system=system,
        )
        if registry is not None:
            publish_trace_metrics(registry, result)
        return result
    finally:
        if opened_here:
            trace.close()


def replay_hlatch_columnar(
    source: Union[PathLike, bytes, ColumnarAccessTrace],
    latch_config: LatchConfig = HLATCH_LATCH_CONFIG,
    tcache_config: TaintCacheConfig = HLATCH_TAINT_CACHE,
    shards: Union[int, str, None] = None,
    plan: Optional[Sequence[Tuple[int, int]]] = None,
    registry: Optional[MetricsRegistry] = None,
) -> HLatchReport:
    """Columnar, sharded equivalent of :func:`repro.hlatch.run_hlatch`."""
    return replay_columnar(
        source, latch_config, tcache_config, baseline_config=None,
        shards=shards, plan=plan, registry=registry,
    ).hlatch


def replay_baseline_columnar(
    source: Union[PathLike, bytes, ColumnarAccessTrace],
    config: TaintCacheConfig = CONVENTIONAL_TAINT_CACHE,
    shards: Union[int, str, None] = None,
    plan: Optional[Sequence[Tuple[int, int]]] = None,
) -> BaselineReport:
    """Columnar, sharded equivalent of :func:`repro.hlatch.run_baseline`."""
    opened_here = not isinstance(source, ColumnarAccessTrace)
    trace = source if not opened_here else ColumnarAccessTrace(source)
    try:
        n = len(trace)
        if plan is None:
            plan = plan_shards(
                n, resolve_shard_count(shards), trace.epoch_starts
            )
        partials = []
        for start, stop in plan:
            raw_addresses = classify.as_index_array(
                trace.addresses[start:stop]
            )
            effective = classify.effective_sizes(trace.sizes[start:stop])
            writes = np.asarray(trace.is_write[start:stop], dtype=bool)
            sequence, seq_writes = tcache_kernel.line_sequence(
                raw_addresses, effective, writes, config
            )
            runs, run_writes = run_boundaries(sequence, seq_writes)
            partials.append((len(sequence), runs, run_writes))
        cache = PreciseTaintCache(config)
        _merge_structure(
            LruState(ways=config.ways, num_sets=config.sets),
            cache.stats,
            [p[0] for p in partials],
            [p[1] for p in partials],
            [p[2] for p in partials],
        )
        return BaselineReport(
            name=trace.name,
            accesses=cache.stats.accesses,
            misses=cache.stats.misses,
        )
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
        n = len(trace)
        name = trace.name
        nbytes = trace.nbytes
        plan = plan_shards(n, resolve_shard_count(shards), trace.epoch_starts)
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

    system = _loaded_system(layout, latch_config, tcache_config)
    merge_started = time.perf_counter()
    merge_partials(partials, system)
    baseline_report: Optional[BaselineReport] = None
    if baseline_config is not None:
        cache = PreciseTaintCache(baseline_config)
        merge_baseline_partials(partials, cache)
        baseline_report = BaselineReport(
            name=name, accesses=cache.stats.accesses,
            misses=cache.stats.misses,
        )
    result = ColumnarReplayResult(
        hlatch=system.report(name),
        baseline=baseline_report,
        access_count=n,
        shard_count=len(plan),
        mmap_bytes=nbytes,
        merge_seconds=time.perf_counter() - merge_started,
        system=system,
    )
    if registry is not None:
        publish_trace_metrics(registry, result)
    return result


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
