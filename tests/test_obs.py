"""Tests for the repro.obs observability layer.

Covers registry semantics, exact histogram percentiles, snapshot
round-trips, the JSONL tracer, the per-subsystem ``publish_metrics``
surfaces, and an integration test pinning CTC counters to the
:class:`~repro.core.latch.LatchCheckResult` levels on a golden trace.
"""

import json
import math

import numpy as np
import pytest

from repro import CPU, DIFTEngine, DeviceTable, SLatchSystem, VirtualFile, assemble
from repro.core.latch import CheckLevel, LatchConfig, LatchModule
from repro.hlatch.system import HLatchSystem
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    StatsSnapshot,
    Timer,
    Tracer,
    read_jsonl,
)
from repro.platch.queue_sim import TwoCoreQueueSimulator
from repro.report import format_snapshot
from repro.workloads.trace import EpochStream


# --------------------------------------------------------------- registry


class TestRegistrySemantics:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        first = registry.counter("ctc.hits")
        second = registry.counter("ctc.hits")
        assert first is second

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_insertion_order_preserved(self):
        registry = MetricsRegistry()
        for name in ("b.two", "a.one", "c.three"):
            registry.counter(name)
        assert registry.names() == ["b.two", "a.one", "c.three"]

    def test_counter_inc_and_set(self):
        counter = Counter("n")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        counter.set(42)
        assert counter.value == 42

    def test_gauge_direct_and_callback(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g", callback=lambda: 7)
        assert gauge.value == 7
        gauge.set(3)  # detaches the callback
        assert gauge.value == 3

    def test_reset_zeroes_but_keeps_callbacks(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(9)
        registry.histogram("h").record(1.0)
        registry.gauge("g", callback=lambda: 11)
        registry.reset()
        assert registry.counter("c").value == 0
        assert registry.histogram("h").count == 0
        assert registry.gauge("g").value == 11

    def test_contains_and_get(self):
        registry = MetricsRegistry()
        registry.counter("present")
        assert "present" in registry and "absent" not in registry
        with pytest.raises(KeyError):
            registry.get("absent")

    def test_timer_records_spans(self):
        ticks = iter([0.0, 1.5, 2.0, 2.25])
        timer = Timer("t", clock=lambda: next(ticks))
        with timer:
            pass
        with timer:
            pass
        assert timer.count == 2
        assert timer.total == pytest.approx(1.75)


# -------------------------------------------------------------- histogram


class TestHistogramPercentiles:
    def test_empty_histogram_is_nan(self):
        hist = Histogram("h")
        assert math.isnan(hist.percentile(50))
        assert math.isnan(hist.mean)

    def test_exact_percentiles_match_numpy(self):
        rng = np.random.default_rng(7)
        values = rng.exponential(scale=1000.0, size=997)
        hist = Histogram("h")
        hist.record_many(values)
        for p in (0, 10, 25, 50, 75, 90, 95, 99, 100):
            assert hist.percentile(p) == pytest.approx(
                float(np.percentile(values, p)), rel=1e-12
            )

    def test_summary_statistics(self):
        hist = Histogram("h")
        hist.record_many([5, 1, 3])
        assert hist.count == 3
        assert hist.total == 9.0
        assert hist.min == 1.0 and hist.max == 5.0
        assert hist.mean == pytest.approx(3.0)

    def test_percentile_out_of_range(self):
        hist = Histogram("h")
        hist.record(1)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_record_invalidates_sorted_cache(self):
        hist = Histogram("h")
        hist.record_many([10, 20])
        assert hist.percentile(100) == 20
        hist.record(30)
        assert hist.percentile(100) == 30


# --------------------------------------------------------------- snapshot


def _populated_registry():
    registry = MetricsRegistry()
    registry.counter("ctc.hits", unit="accesses", description="hits").inc(12)
    registry.gauge("ctc.hit_rate", unit="fraction").set(0.75)
    registry.histogram("epochs", unit="instructions").record_many(
        [10, 20, 30, 40]
    )
    return registry


class TestSnapshotRoundTrip:
    def test_json_round_trip_is_identity(self):
        snapshot = _populated_registry().snapshot()
        again = StatsSnapshot.from_json(snapshot.to_json())
        assert again == snapshot
        assert again.names() == snapshot.names()

    def test_dict_round_trip_is_identity(self):
        snapshot = _populated_registry().snapshot()
        assert StatsSnapshot.from_dict(snapshot.to_dict()) == snapshot

    def test_unsupported_version_rejected(self):
        payload = _populated_registry().snapshot().to_dict()
        payload["version"] = 999
        with pytest.raises(ValueError):
            StatsSnapshot.from_dict(payload)

    def test_scalar_and_summary_access(self):
        snapshot = _populated_registry().snapshot()
        assert snapshot.get("ctc.hits") == 12
        assert snapshot.get("ctc.hit_rate") == 0.75
        summary = snapshot.get("epochs")
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(25.0)
        assert summary["percentiles"]["p50"] == pytest.approx(25.0)
        assert snapshot.get("missing", "fallback") == "fallback"

    def test_callback_gauges_freeze_at_snapshot_time(self):
        registry = MetricsRegistry()
        counter = registry.counter("n")
        registry.gauge("twice", callback=lambda: counter.value * 2)
        counter.inc(3)
        first = registry.snapshot()
        counter.inc(3)
        second = registry.snapshot()
        assert first.get("twice") == 6
        assert second.get("twice") == 12

    def test_markdown_rendering(self):
        snapshot = _populated_registry().snapshot()
        text = snapshot.to_markdown(title="Test")
        assert "## Test" in text
        assert "`ctc.hits`" in text and "count=4" in text

    def test_report_layer_consumes_snapshots(self):
        snapshot = _populated_registry().snapshot()
        text = format_snapshot(snapshot, title="Obs")
        assert "ctc.hit_rate" in text and "0.75" in text
        subset = format_snapshot(snapshot, names=["ctc.hits", "nope"])
        assert "ctc.hits" in subset and "epochs" not in subset


# ----------------------------------------------------------------- tracer


class TestTracer:
    def test_in_memory_events(self):
        ticks = iter([0.0, 1.0, 2.0])
        tracer = Tracer(clock=lambda: next(ticks))
        tracer.event("slatch.trap", pc=0x1000)
        tracer.event("slatch.return")
        events = tracer.events()
        assert [e["name"] for e in events] == ["slatch.trap", "slatch.return"]
        assert events[0]["pc"] == 0x1000
        assert events[0]["ts"] == pytest.approx(1.0)
        assert tracer.events("slatch.return")[0]["ts"] == pytest.approx(2.0)

    def test_file_backed_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(path=str(path)) as tracer:
            tracer.event("a", n=1)
            tracer.event("b", n=2)
        records = read_jsonl(str(path))
        assert [r["name"] for r in records] == ["a", "b"]
        assert all(isinstance(json.dumps(r), str) for r in records)


# ---------------------------------------------------- publish_metrics APIs


PROGRAM = """
.data
path:   .asciiz "in.txt"
buf:    .space 64
.text
_start:
    li   r3, 3
    li   r4, path
    syscall
    mv   r7, r3
    li   r3, 1
    mv   r4, r7
    li   r5, buf
    li   r6, 64
    syscall
    li   r8, buf
    lbu  r9, 0(r8)
    addi r9, r9, 1
    sb   r9, 1(r8)
    halt
"""


def _run_slatch(payload=b"some untrusted bytes"):
    devices = DeviceTable()
    devices.register_file(VirtualFile("in.txt", payload))
    cpu = CPU(assemble(PROGRAM), devices=devices)
    system = SLatchSystem(cpu, tracer=Tracer(clock=iter(range(10**6)).__next__))
    cpu.run()
    return system


class TestPublishMetrics:
    def test_latch_module_publishes_catalogued_names(self):
        latch = LatchModule()
        latch.check_memory(0x1000, 4)
        registry = MetricsRegistry()
        latch.publish_metrics(registry)
        for name in (
            "latch.memory_checks", "latch.resolved_by_tlb",
            "latch.resolved_by_ctc", "latch.sent_to_precise",
            "tlb.screened_frac", "ctc.resolved_frac", "latch.precise_frac",
            "ctc.hits", "ctc.misses", "ctc.hit_rate",
            "tlb.checks", "tlb.hot_checks", "tlb.hit_rate",
        ):
            assert name in registry, name
        snapshot = registry.snapshot()
        assert snapshot.get("latch.memory_checks") == 1

    def test_level_fraction_gauges_sum_to_one(self):
        latch = LatchModule()
        for address in range(0, 4096 * 8, 64):
            latch.check_memory(address, 4)
        registry = MetricsRegistry()
        latch.publish_metrics(registry)
        snapshot = registry.snapshot()
        total = (
            snapshot.get("tlb.screened_frac")
            + snapshot.get("ctc.resolved_frac")
            + snapshot.get("latch.precise_frac")
        )
        assert total == pytest.approx(1.0)

    def test_cpu_publishes_instruction_and_syscall_counts(self):
        devices = DeviceTable()
        devices.register_file(VirtualFile("in.txt", b"x"))
        cpu = CPU(assemble(PROGRAM), devices=devices)
        cpu.run()
        registry = MetricsRegistry()
        cpu.publish_metrics(registry)
        snapshot = registry.snapshot()
        assert snapshot.get("cpu.instructions") == cpu.step_count
        assert snapshot.get("cpu.syscalls") == 2
        assert snapshot.get("cpu.halted") == 1

    def test_dift_engine_publishes(self):
        devices = DeviceTable()
        devices.register_file(VirtualFile("in.txt", b"payload"))
        cpu = CPU(assemble(PROGRAM), devices=devices)
        engine = DIFTEngine()
        cpu.attach(engine)
        cpu.run()
        registry = MetricsRegistry()
        engine.publish_metrics(registry)
        snapshot = registry.snapshot()
        assert snapshot.get("dift.instructions") == engine.stats.instructions
        assert snapshot.get("dift.tainted_instructions") > 0
        assert snapshot.get("dift.tainted_bytes_live") == (
            engine.shadow.tainted_byte_count
        )

    def test_slatch_snapshot_covers_whole_stack(self):
        system = _run_slatch()
        snapshot = system.snapshot()
        assert snapshot.get("slatch.traps") == system.counters.traps
        assert snapshot.get("slatch.hw_instructions") == (
            system.counters.hw_instructions
        )
        assert snapshot.get("cpu.instructions") == system.cpu.step_count
        assert snapshot.get("latch.memory_checks") is not None
        assert snapshot.get("slatch.sw_fraction") == pytest.approx(
            system.counters.sw_fraction
        )

    def test_slatch_epoch_histograms_track_transitions(self):
        system = _run_slatch()
        hw = system.obs.histogram("slatch.epoch.hw_duration")
        sw = system.obs.histogram("slatch.epoch.sw_duration")
        assert hw.count == system.counters.traps
        assert sw.count == system.counters.returns
        if sw.count:
            assert sw.total == pytest.approx(system.counters.sw_instructions)

    def test_slatch_tracer_sees_mode_switches(self):
        system = _run_slatch()
        traps = system.tracer.events("slatch.trap")
        assert len(traps) == system.counters.traps
        assert all("hw_span" in event for event in traps)

    def test_queue_simulator_records_occupancy(self):
        stream = EpochStream(
            name="synthetic",
            lengths=np.array([100, 50, 100, 50, 100], dtype=np.int64),
            tainted_counts=np.array([0, 40, 0, 40, 0], dtype=np.int64),
        )
        registry = MetricsRegistry()
        report = TwoCoreQueueSimulator(filtered=True).run(stream, obs=registry)
        assert registry.histogram("platch.queue.occupancy").count == 5
        snapshot = registry.snapshot()
        assert snapshot.get("platch.queue.stall_cycles") == report.stall_cycles
        assert snapshot.get("platch.queue.events_enqueued") == (
            report.events_enqueued
        )
        assert snapshot.get("platch.overhead") == pytest.approx(report.overhead)

    def test_queue_simulator_without_obs_unchanged(self):
        stream = EpochStream(
            name="synthetic",
            lengths=np.array([100, 50, 100], dtype=np.int64),
            tainted_counts=np.array([0, 40, 0], dtype=np.int64),
        )
        sim = TwoCoreQueueSimulator(filtered=True)
        assert sim.run(stream).stall_cycles == sim.run(
            stream, obs=MetricsRegistry()
        ).stall_cycles

    def test_hlatch_report_consumes_snapshot(self):
        system = HLatchSystem()
        system.write_tags(0x2000, b"\x01" * 8)
        for address in (0x2000, 0x2004, 0x9000, 0x2100):
            system.access(address, 4)
        snapshot = system.snapshot()
        report = system.report("probe")
        assert report.accesses == snapshot.get("latch.memory_checks")
        assert report.ctc_misses == snapshot.get("ctc.misses")
        assert report.tcache_misses == snapshot.get("hlatch.tcache.misses")
        assert report.sent_to_precise == snapshot.get("latch.sent_to_precise")
        split = report.resolution_split()
        assert sum(split.values()) == pytest.approx(1.0)


# ----------------------------------------------------- golden-trace check


class TestGoldenTraceIntegration:
    """CTC counters must match the levels reported per check.

    A deterministic access sequence over a known taint layout: every
    :class:`LatchCheckResult` says where its access was resolved, so the
    published CTC hit/miss counters are fully predicted by the results.
    All accesses are single-domain (size ≤ 64), making ``ctc_hit``
    unambiguous.
    """

    def _golden_latch(self):
        latch = LatchModule(LatchConfig())
        # Taint two domains on one page; leave a second page clean.
        latch.update_memory_tags(0x0040, b"\x01" * 8)
        latch.update_memory_tags(0x0800, b"\x01" * 4)
        # Tag writes themselves go through the CTC; zero the counters so
        # the published numbers reflect only the golden checks below.
        latch.reset_stats()
        return latch

    def _golden_addresses(self):
        # Mix of: clean page (TLB screen), hot page clean domains (CTC),
        # tainted domains (precise), with re-touches for CTC hits.
        return (
            [0x0040, 0x0040, 0x0080, 0x0100, 0x0800, 0x0804, 0x5000, 0x5040]
            + [0x0040 + 64 * k for k in range(8)]
            + [0x0040, 0x0800, 0x6000]
        )

    def test_ctc_counters_match_check_levels(self):
        latch = self._golden_latch()
        results = [
            latch.check_memory(address, 4)
            for address in self._golden_addresses()
        ]
        registry = MetricsRegistry()
        latch.publish_metrics(registry)
        snapshot = registry.snapshot()

        by_level = {
            level: [r for r in results if r.level is level]
            for level in CheckLevel
        }
        assert snapshot.get("latch.resolved_by_tlb") == len(
            by_level[CheckLevel.TLB]
        )
        assert snapshot.get("latch.resolved_by_ctc") == len(
            by_level[CheckLevel.CTC]
        )
        assert snapshot.get("latch.sent_to_precise") == len(
            by_level[CheckLevel.PRECISE]
        )
        assert snapshot.get("latch.memory_checks") == len(results)

        # TLB-screened checks never consult the CTC; the rest consult it
        # exactly once (single-domain accesses), hitting iff ctc_hit.
        consulted = [r for r in results if r.level is not CheckLevel.TLB]
        assert all(r.ctc_hit is not None for r in consulted)
        assert all(r.ctc_hit is None for r in by_level[CheckLevel.TLB])
        expected_hits = sum(1 for r in consulted if r.ctc_hit)
        expected_misses = sum(1 for r in consulted if not r.ctc_hit)
        assert snapshot.get("ctc.accesses") == len(consulted)
        assert snapshot.get("ctc.hits") == expected_hits
        assert snapshot.get("ctc.misses") == expected_misses
        assert snapshot.get("ctc.hit_rate") == pytest.approx(
            expected_hits / len(consulted)
        )

        # The golden trace exercises every level at least once.
        assert all(by_level[level] for level in CheckLevel)


# ----------------------------------------------------------- scoped views


class TestScopedRegistry:
    """Satellite regression: two instrumented subsystems in one process
    must publish side by side instead of colliding on shared names."""

    def test_two_pipelines_one_process_do_not_collide(self):
        from repro.obs import ScopedRegistry
        from repro.workloads import programs
        from repro.pipeline import StreamingPipeline

        registry = MetricsRegistry()
        results = {}
        for tenant in ("alpha", "beta"):
            cpu = programs.checksum().make_cpu()
            pipeline = StreamingPipeline(
                cpu, registry=registry.scoped(f"serve.tenant.{tenant}")
            )
            cpu.run(300_000)
            pipeline.finish()
            pipeline.accumulate_metrics(
                registry.scoped(f"serve.tenant.{tenant}")
            )
            results[tenant] = pipeline.stats.enqueued
        snapshot = registry.snapshot()
        for tenant in ("alpha", "beta"):
            assert snapshot.get(
                f"serve.tenant.{tenant}.pipeline.events.enqueued"
            ) == results[tenant]
        # Nothing leaked onto the unscoped names.
        assert snapshot.get("pipeline.events.enqueued") is None

    def test_qualified_names_visible_from_base(self):
        registry = MetricsRegistry()
        scope = registry.scoped("svc")
        scope.counter("requests").inc(3)
        assert registry.get("svc.requests").value == 3
        assert registry.snapshot().get("svc.requests") == 3

    def test_scopes_nest(self):
        registry = MetricsRegistry()
        inner = registry.scoped("serve").scoped("tenant-a")
        inner.gauge("depth").set(7)
        assert inner.prefix == "serve.tenant-a"
        assert registry.get("serve.tenant-a.depth").value == 7

    def test_iteration_filters_to_own_namespace(self):
        registry = MetricsRegistry()
        registry.counter("global.hits").inc()
        a = registry.scoped("a")
        b = registry.scoped("b")
        a.counter("x").inc()
        a.counter("y").inc()
        b.counter("x").inc()
        assert sorted(a.names()) == ["a.x", "a.y"]
        assert len(a) == 2 and len(b) == 1
        assert "x" in a and "z" not in a

    def test_prefix_is_a_boundary_not_a_substring(self):
        registry = MetricsRegistry()
        registry.scoped("ab").counter("x").inc()
        registry.scoped("a").counter("x").inc()
        assert [m.name for m in registry.scoped("a").metrics()] == ["a.x"]

    def test_reset_zeroes_only_the_scope(self):
        registry = MetricsRegistry()
        registry.counter("keep").inc(5)
        scope = registry.scoped("tmp")
        scope.counter("drop").inc(9)
        scope.reset()
        assert registry.get("tmp.drop").value == 0
        assert registry.get("keep").value == 5

    def test_scope_snapshot_excludes_other_namespaces(self):
        registry = MetricsRegistry()
        registry.counter("other").inc()
        scope = registry.scoped("mine")
        scope.counter("c").inc(2)
        snapshot = scope.snapshot()
        assert snapshot.get("mine.c") == 2
        assert "other" not in snapshot

    def test_same_scope_twice_is_get_or_create(self):
        registry = MetricsRegistry()
        first = registry.scoped("s").counter("n")
        second = registry.scoped("s").counter("n")
        assert first is second

    def test_invalid_prefixes_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.scoped("")
        with pytest.raises(ValueError):
            registry.scoped("trailing.")

    def test_callback_gauges_through_scope(self):
        registry = MetricsRegistry()
        depth = {"value": 3}
        registry.scoped("q").gauge(
            "depth", callback=lambda: depth["value"]
        )
        assert registry.snapshot().get("q.depth") == 3
        depth["value"] = 11
        assert registry.snapshot().get("q.depth") == 11
