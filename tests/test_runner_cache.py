"""Result and trace cache behaviour: hits, misses, corruption, staleness."""

import json
import shutil

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.runner import (
    JobSpec,
    ResultCache,
    Runner,
    RunnerConfig,
    TraceCache,
    suite_jobs,
)
from repro.trace.convert import (
    load_columnar_epochs,
    save_columnar_trace,
)
from repro.trace.format import write_columnar
from repro.workloads import WorkloadGenerator, get_profile


def _snapshot(value=1.0):
    registry = MetricsRegistry()
    registry.gauge("test.value", unit="").set(value)
    return registry.snapshot()


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = JobSpec.make("chaos", "cell", value=1)
        assert cache.get(spec) is None
        cache.put(spec, _snapshot(3.5))
        loaded = cache.get(spec)
        assert loaded is not None
        assert loaded.get("test.value") == 3.5
        assert len(cache) == 1

    def test_specs_do_not_collide(self, tmp_path):
        cache = ResultCache(tmp_path)
        a = JobSpec.make("chaos", "cell", value=1)
        b = JobSpec.make("chaos", "cell", value=2)
        cache.put(a, _snapshot(1.0))
        cache.put(b, _snapshot(2.0))
        assert cache.get(a).get("test.value") == 1.0
        assert cache.get(b).get("test.value") == 2.0

    def test_corrupt_document_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = JobSpec.make("chaos", "cell")
        path = cache.put(spec, _snapshot())
        path.write_text("{ truncated garbage")
        assert cache.get(spec) is None

    def test_stale_format_version_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = JobSpec.make("chaos", "cell")
        path = cache.put(spec, _snapshot())
        document = json.loads(path.read_text())
        document["result_format_version"] = 999
        path.write_text(json.dumps(document))
        assert cache.get(spec) is None

    def test_spec_mismatch_reads_as_miss(self, tmp_path):
        """A hash collision (or tampered file) can never serve the wrong
        spec's snapshot."""
        cache = ResultCache(tmp_path)
        spec = JobSpec.make("chaos", "cell")
        path = cache.put(spec, _snapshot())
        document = json.loads(path.read_text())
        document["spec"]["workload"] = "other"
        path.write_text(json.dumps(document))
        assert cache.get(spec) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(JobSpec.make("chaos", "a"), _snapshot())
        cache.put(JobSpec.make("chaos", "b"), _snapshot())
        assert cache.clear() == 2
        assert len(cache) == 0


class TestTraceCache:
    def test_epoch_stream_cached_and_identical(self, tmp_path):
        cache = TraceCache(tmp_path)
        generator = WorkloadGenerator(get_profile("wget"))
        first = cache.epoch_stream(generator, 100_000)
        assert len(cache) == 1
        second = cache.epoch_stream(
            WorkloadGenerator(get_profile("wget")), 100_000
        )
        assert len(cache) == 1  # served from disk, not regenerated
        assert (first.lengths == second.lengths).all()
        assert (first.tainted_counts == second.tainted_counts).all()

    def test_access_trace_cached_and_identical(self, tmp_path):
        cache = TraceCache(tmp_path)
        generator = WorkloadGenerator(get_profile("curl"))
        first = cache.access_trace(generator, 5_000)
        second = cache.access_trace(
            WorkloadGenerator(get_profile("curl")), 5_000
        )
        assert len(cache) == 1
        assert (first.addresses == second.addresses).all()
        assert (first.tainted == second.tainted).all()
        assert np.array_equal(first.layout.extents, second.layout.extents)

    def test_scale_and_seed_key_separate_artefacts(self, tmp_path):
        cache = TraceCache(tmp_path)
        generator = WorkloadGenerator(get_profile("wget"))
        cache.epoch_stream(generator, 100_000)
        cache.epoch_stream(generator, 50_000)
        cache.epoch_stream(WorkloadGenerator(get_profile("wget"), seed=1),
                           100_000)
        assert len(cache) == 3

    def test_corrupt_archive_regenerated_in_place(self, tmp_path):
        cache = TraceCache(tmp_path)
        generator = WorkloadGenerator(get_profile("wget"))
        fresh = cache.epoch_stream(generator, 100_000)
        path = cache.path_for(generator, "epochs", 100_000)
        assert path.suffix == ".ltrace"
        path.write_bytes(path.read_bytes()[:-40])  # truncated tail
        reloaded = cache.epoch_stream(generator, 100_000)
        assert (reloaded.lengths == fresh.lengths).all()
        # The corrupt file was replaced with a valid one.
        assert (load_columnar_epochs(path).lengths == fresh.lengths).all()

    def test_wrong_sized_archive_not_served(self, tmp_path):
        """A foreign container at the right path (right kind, wrong
        sections) is rejected and rebuilt, not loaded."""
        cache = TraceCache(tmp_path)
        generator = WorkloadGenerator(get_profile("wget"))
        path = cache.path_for(generator, "epochs", 100_000)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_columnar(path, "epoch-stream", {"whatever": np.arange(3)})
        stream = cache.epoch_stream(generator, 100_000)
        assert stream.total_instructions >= 100_000
        assert (load_columnar_epochs(path).lengths == stream.lengths).all()

    @pytest.mark.parametrize("kind", ["epochs", "trace"])
    def test_wrong_kind_file_rebuilt_not_served(self, tmp_path, kind):
        cache = TraceCache(tmp_path)
        generator = WorkloadGenerator(get_profile("wget"))
        expected = (generator.epoch_stream(100_000) if kind == "epochs"
                    else generator.access_trace(100_000))
        path = cache.path_for(generator, kind, 100_000)
        path.parent.mkdir(parents=True, exist_ok=True)
        if kind == "epochs":  # an access trace where epochs belong
            save_columnar_trace(generator.access_trace(2_000), path)
            served = cache.epoch_stream(generator, 100_000)
            assert (served.lengths == expected.lengths).all()
        else:  # an epoch stream where the trace belongs
            write_columnar(path, "epoch-stream", {
                "lengths": np.ones(3, dtype=np.int64),
                "tainted_counts": np.zeros(3, dtype=np.int64),
            })
            served = cache.access_trace(generator, 100_000)
            assert (served.addresses == expected.addresses).all()
        assert len(cache) == 1

    def test_clear(self, tmp_path):
        cache = TraceCache(tmp_path)
        generator = WorkloadGenerator(get_profile("wget"))
        cache.epoch_stream(generator, 50_000)
        cache.access_trace(generator, 2_000)
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_clear_covers_every_file_including_old_formats(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.epoch_stream(WorkloadGenerator(get_profile("wget")), 50_000)
        # Artefacts an earlier build left behind, plus a stray temp file.
        (cache.root / "wget-epochs-0123456789abcdef.npz").write_bytes(b"PK")
        (cache.root / "wget-trace-0123456789abcdef.npz").write_bytes(b"PK")
        (cache.root / "gcc-trace-feed.ltrace.1f2e.tmp").write_bytes(b"")
        assert len(cache) == 4
        assert cache.clear() == 4
        assert len(cache) == 0
        assert list(cache.root.iterdir()) == []


def _snapshots(results):
    assert all(result.ok for result in results.values())
    return {job: result.snapshot.to_dict() for job, result in results.items()}


class TestTraceCacheLoadPath:
    """Artefacts loaded from the trace cache drive every job to the same
    snapshot as freshly generated ones."""

    def test_warm_trace_cache_matches_cold_pass(self, tmp_path):
        # SPEC and network profiles across all four tables/overhead job
        # kinds, at a scale where each pass takes well under a second.
        specs = [
            spec
            for suite in ("tables", "overhead")
            for spec in suite_jobs(
                suite, epoch_scale=20_000, trace_window=1_000,
                benchmarks=("gcc", "mcf", "lbm", "curl", "wget",
                            "mySQL", "apache-25"),
            )
        ]

        def run(cache_dir=None):
            caches = {} if cache_dir is None else {
                "cache": ResultCache(cache_dir),
                "trace_cache": TraceCache(cache_dir),
            }
            results = Runner(
                config=RunnerConfig(max_workers=1), **caches
            ).run(specs)
            assert not any(result.from_cache for result in results.values())
            return json.dumps(_snapshots(results), sort_keys=True)

        cold = run(tmp_path)
        shutil.rmtree(tmp_path / "results")
        assert len(TraceCache(tmp_path)) == 2 * 7
        warm = run(tmp_path)  # every artefact now comes off disk
        assert warm == cold
        assert warm == run()  # and matches a pass with no trace cache
