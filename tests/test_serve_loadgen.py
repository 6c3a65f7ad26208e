"""Load generator: arrival shaping, the 50- and 1000-client sweeps."""

import pytest

from repro.serve import ServeConfig, TenantLimits, running_server
from repro.serve.loadgen import (
    LoadGenConfig,
    arrival_offsets,
    prepare_traces,
    run,
)


@pytest.fixture(scope="module")
def shared_traces():
    """Record the workload mix once for the whole module."""
    return prepare_traces(("checksum", "file_filter"))


class TestArrivalShaping:
    def test_deterministic_under_seed(self):
        config = LoadGenConfig(clients=50, seed=7)
        assert arrival_offsets(config) == arrival_offsets(config)
        other = LoadGenConfig(clients=50, seed=8)
        assert arrival_offsets(config) != arrival_offsets(other)

    def test_offsets_stay_inside_the_window(self):
        for phase in ("bursty", "diurnal", "steady"):
            config = LoadGenConfig(
                clients=200, phase=phase, duration=2.0
            )
            offsets = arrival_offsets(config)
            assert len(offsets) == 200
            assert all(0.0 <= offset <= 2.0 for offset in offsets)

    def test_bursty_arrivals_cluster_into_waves(self):
        config = LoadGenConfig(
            clients=400, phase="bursty", duration=8.0, burst_count=4
        )
        offsets = arrival_offsets(config)
        # Arrivals land in the first tenth of each 2s wave slot.
        for offset in offsets:
            assert (offset % 2.0) <= 0.2 + 1e-9

    def test_diurnal_arrivals_avoid_the_night(self):
        config = LoadGenConfig(
            clients=1000, phase="diurnal", duration=1.0
        )
        offsets = arrival_offsets(config)
        # The raised-cosine intensity makes mid-window ("daytime")
        # arrivals dominate the edges.
        midday = sum(1 for o in offsets if 0.25 <= o <= 0.75)
        assert midday > len(offsets) * 0.55

    def test_zero_duration_means_thundering_herd(self):
        config = LoadGenConfig(clients=10, duration=0.0)
        assert arrival_offsets(config) == [0.0] * 10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoadGenConfig(clients=0)
        with pytest.raises(ValueError):
            LoadGenConfig(phase="nightly")
        with pytest.raises(ValueError):
            LoadGenConfig(max_open=0)
        with pytest.raises(ValueError):
            LoadGenConfig(phase="engine:no-such-engine")

    def test_engine_phase_follows_the_schedule(self):
        # engine:kv-bursty drives arrivals with the same phase schedule
        # the kv-bursty epoch stream uses: surge windows (duty 0.3 of
        # each wave) soak up most of the clients.
        from repro.workloads import engine_schedule

        config = LoadGenConfig(
            clients=400, phase="engine:kv-bursty", duration=8.0
        )
        offsets = arrival_offsets(config)
        assert len(offsets) == 400
        assert all(0.0 <= offset <= 8.0 for offset in offsets)
        schedule = engine_schedule("kv-bursty")
        surge_span = sum(
            p.span for p in schedule.phases if p.name.startswith("surge")
        )
        in_surge = 0
        for offset in offsets:
            start = 0.0
            for phase in schedule.phases:
                width = phase.span * 8.0
                if start <= offset < start + width:
                    in_surge += phase.name.startswith("surge")
                    break
                start += width
        assert in_surge > 400 * surge_span * 2
        assert arrival_offsets(config) == offsets


class TestLoadRuns:
    def test_fifty_concurrent_clients_zero_divergence(self, shared_traces):
        # The CI service-smoke shape: >= 50 concurrent clients across
        # tenants, every result bit-identical, no drops.
        config = ServeConfig(
            max_inflight=32,
            default_limits=TenantLimits(rate=200_000.0, burst=4096.0),
        )
        with running_server(config) as (server, (host, port)):
            report = run(
                host, port,
                config=LoadGenConfig(
                    clients=50, tenants=5, duration=0.2, phase="bursty"
                ),
                traces=shared_traces,
            )
            snapshot = server.snapshot()
        assert report.clean, report.errors
        assert report.completed == 50
        assert report.divergences == 0
        # Every tenant both participated and is accounted separately.
        assert len(report.per_tenant) == 5
        for index in range(5):
            name = f"load-{index}"
            assert report.per_tenant[name]["completed"] == 10
            assert snapshot.get(f"serve.tenant.{name}.results") == 10

    def test_overload_is_absorbed_via_retry_not_drops(self, shared_traces):
        # A deliberately tiny in-flight table + modest buckets under a
        # thundering herd: clients must retry (non-zero RETRY traffic)
        # and still all complete bit-identically.
        config = ServeConfig(
            max_inflight=4,
            default_limits=TenantLimits(rate=30_000.0, burst=256.0),
            inflight_backoff_ms=5,
        )
        with running_server(config) as (server, (host, port)):
            report = run(
                host, port,
                config=LoadGenConfig(
                    clients=40, tenants=4, duration=0.0, phase="steady",
                    max_open=40,
                ),
                traces=shared_traces,
            )
            snapshot = server.snapshot()
        assert report.clean, report.errors
        assert report.completed == 40
        assert report.retries > 0
        rejected = sum(
            snapshot.get(f"serve.tenant.load-{i}.rejected.{reason}") or 0
            for i in range(4)
            for reason in ("rate", "inflight", "streams")
        )
        assert rejected > 0
        # Nothing dropped: every client's full trace was accepted.
        total_events = sum(
            snapshot.get(f"serve.tenant.load-{i}.events") or 0
            for i in range(4)
        )
        shortest = min(len(trace.events) for trace in shared_traces)
        assert total_events >= 40 * shortest
        assert report.failed == 0

    def test_thousand_simulated_clients(self, shared_traces):
        # The acceptance bar: a 1000-client run completes with
        # per-tenant isolation intact and zero soundness divergence.
        config = ServeConfig(
            max_inflight=64,
            default_limits=TenantLimits(
                rate=2_000_000.0, burst=65_536.0, max_streams=None,
            ),
            max_batch=512,
        )
        with running_server(config) as (server, (host, port)):
            report = run(
                host, port,
                config=LoadGenConfig(
                    clients=1000, tenants=8, duration=1.0,
                    phase="diurnal", max_open=64,
                ),
                traces=shared_traces,
            )
            snapshot = server.snapshot()
        assert report.clean, report.errors[:5]
        assert report.completed == 1000
        assert report.divergences == 0
        assert len(report.per_tenant) == 8
        assert sum(
            row["completed"] for row in report.per_tenant.values()
        ) == 1000
        for index in range(8):
            assert snapshot.get(
                f"serve.tenant.load-{index}.results"
            ) == report.per_tenant[f"load-{index}"]["completed"]
        # The in-flight table never exceeded its bound.
        assert snapshot.get("serve.inflight_peak") <= 64
        assert snapshot.get("serve.inflight") == 0

    def test_engine_phase_run_is_bit_identical(self, shared_traces):
        # A dynamic-engine arrival schedule driven end to end: every
        # served result must match the local_reference oracle
        # (report.clean == zero divergence from the recorded oracle).
        config = ServeConfig(
            max_inflight=32,
            default_limits=TenantLimits(rate=200_000.0, burst=4096.0),
        )
        with running_server(config) as (server, (host, port)):
            report = run(
                host, port,
                config=LoadGenConfig(
                    clients=40, tenants=4, duration=0.2,
                    phase="engine:kv-bursty",
                ),
                traces=shared_traces,
            )
        assert report.clean, report.errors
        assert report.completed == 40
        assert report.divergences == 0
