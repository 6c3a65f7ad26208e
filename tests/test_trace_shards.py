"""Property battery for sharded columnar replay.

The merge algebra's contract is *exactness for any split*: run-
compressed shard summaries fed through one carry-over LRU state must
reproduce the single-core scalar replay bit for bit, no matter where
the cuts land.  hypothesis is deliberately not a dependency here, so
the randomized splits are hand-rolled with seeded ``random.Random``
generators — failures print the seed and the plan, which is all a
reproduction needs.

Coverage:

* seeded random shard plans over the golden gcc/curl windows, including
  empty shards, single-access shards, and cut points at 0/1/n-1/n;
* the per-access oracle (``scalar``, ``tests/kernel_oracles.py``) as
  the reference, with the one-shard product (``vector``: ``run_hlatch``
  / ``run_baseline``) alongside — the columnar result must match both;
* the 32-bit wrap-around reproducers from ``tests/corpus/`` (address
  masking straddles shard boundaries there);
* the planner's partition/snapping invariants and the
  ``REPRO_TRACE_SHARDS`` environment knob;
* the pool fan-out (``replay_columnar_pooled``), which must agree with
  the in-process merge.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np
import pytest

from repro.check.corpus import load_corpus
from repro.check.oracle import run_reference
from repro.hlatch.system import HLATCH_LATCH_CONFIG, HLatchSystem, run_hlatch
from repro.hlatch.baseline import run_baseline
from repro.hlatch.taint_cache import (
    CONVENTIONAL_TAINT_CACHE,
    HLATCH_TAINT_CACHE,
)
from repro.trace.convert import (
    columnar_trace_bytes,
    load_columnar_trace,
    save_columnar_trace,
)
from repro.trace.replay import (
    ShardPartial,
    merge_partials,
    replay_baseline_columnar,
    replay_columnar,
    replay_columnar_pooled,
    shard_partial,
)
from repro.trace.shard import (
    SHARDS_ENV_VAR,
    explicit_plan,
    plan_shards,
    resolve_shard_count,
)

from tests import kernel_oracles

GOLDEN_DIR = Path(__file__).parent / "golden"
CORPUS_DIR = Path(__file__).parent / "corpus"
WORKLOADS = ("gcc", "curl")


def _golden(name):
    with load_columnar_trace(GOLDEN_DIR / f"{name}_w2000_s0.ltrace") as view:
        return view.to_access_trace()


def _random_plan(rng, n):
    """A seeded adversarial plan: random cuts plus injected empty shards."""
    cuts = [rng.randrange(0, n + 1) for _ in range(rng.randrange(0, 8))]
    cuts += rng.sample([0, 1, max(0, n - 1), n], k=2)
    plan = explicit_plan(n, cuts)
    if plan and rng.random() < 0.5:
        at = rng.randrange(len(plan))
        plan.insert(at, (plan[at][0], plan[at][0]))  # empty shard
    return plan or [(0, n)]


class TestPlanner:
    @pytest.mark.parametrize("seed", range(20))
    def test_plan_partitions_window(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 5000)
        shards = rng.randrange(1, 40)
        epochs = sorted(
            rng.sample(range(n), k=min(n, rng.randrange(0, 12)))
        ) or None
        plan = plan_shards(n, shards, epochs)
        assert plan[0][0] == 0 and plan[-1][1] == n
        for (_, stop), (start, _) in zip(plan, plan[1:]):
            assert stop == start
        assert all(start < stop for start, stop in plan)
        assert len(plan) <= shards

    def test_cuts_snap_to_epoch_starts(self):
        plan = plan_shards(100, 4, epoch_starts=[0, 10, 90])
        interior = {start for start, _ in plan[1:]}
        assert interior <= {10, 90}

    def test_degenerate_windows(self):
        assert plan_shards(0, 4) == []
        assert plan_shards(5, 1) == [(0, 5)]
        assert plan_shards(3, 10) == [(0, 1), (1, 2), (2, 3)]

    def test_explicit_plan_dedupes_and_clamps(self):
        assert explicit_plan(10, [3, 3, 0, 10, 7]) == [(0, 3), (3, 7), (7, 10)]
        assert explicit_plan(0, [1, 2]) == []

    def test_resolve_shard_count(self, monkeypatch):
        monkeypatch.delenv(SHARDS_ENV_VAR, raising=False)
        assert resolve_shard_count() == 1
        assert resolve_shard_count(6) == 6
        assert resolve_shard_count("auto") >= 1
        monkeypatch.setenv(SHARDS_ENV_VAR, "3")
        assert resolve_shard_count() == 3
        assert resolve_shard_count(2) == 2  # argument wins
        monkeypatch.setenv(SHARDS_ENV_VAR, "auto")
        assert resolve_shard_count() >= 1
        monkeypatch.setenv(SHARDS_ENV_VAR, "zero")
        with pytest.raises(ValueError, match=SHARDS_ENV_VAR):
            resolve_shard_count()
        with pytest.raises(ValueError, match="positive"):
            resolve_shard_count(0)


class TestShardedEqualsScalar:
    """Sharded merge == object-path replay on the golden windows."""

    @pytest.fixture(scope="class")
    def scalar_snapshots(self):
        snapshots = {}
        for name in WORKLOADS:
            trace = _golden(name)
            system = HLatchSystem()
            system.load_taint(trace.layout)
            for index in range(trace.access_count):
                system.access(
                    int(trace.addresses[index]),
                    int(trace.sizes[index]),
                    bool(trace.is_write[index]),
                )
            snapshots[name] = system.snapshot().to_dict()["metrics"]
        return snapshots

    @pytest.mark.parametrize("name", WORKLOADS)
    @pytest.mark.parametrize("seed", range(8))
    def test_random_plans_bit_identical(self, name, seed, scalar_snapshots):
        trace = _golden(name)
        blob = columnar_trace_bytes(trace)
        rng = random.Random(seed * 1000 + len(name))
        plan = _random_plan(rng, trace.access_count)
        result = replay_columnar(blob, plan=plan, baseline_config=None)
        assert (
            result.system.snapshot().to_dict()["metrics"]
            == scalar_snapshots[name]
        ), f"seed={seed} plan={plan}"

    @pytest.mark.parametrize("name", WORKLOADS)
    @pytest.mark.parametrize("replay_path", ("scalar", "vector"))
    def test_report_matches_both_object_backends(self, name, replay_path):
        trace = _golden(name)
        if replay_path == "scalar":
            object_report = kernel_oracles.run_hlatch(trace)
        else:
            object_report = run_hlatch(trace)
        columnar = replay_columnar(
            columnar_trace_bytes(trace), shards=5, baseline_config=None
        )
        assert columnar.hlatch == object_report

    @pytest.mark.parametrize("name", WORKLOADS)
    @pytest.mark.parametrize("replay_path", ("scalar", "vector"))
    def test_baseline_matches_both_object_backends(self, name, replay_path):
        trace = _golden(name)
        if replay_path == "scalar":
            object_report = kernel_oracles.run_baseline(trace)
        else:
            object_report = run_baseline(trace)
        columnar = replay_baseline_columnar(
            columnar_trace_bytes(trace), shards=7
        )
        assert columnar == object_report

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_single_epoch_trace_collapses_to_one_shard(self, name):
        trace = _golden(name)
        with_epochs = replay_columnar(
            columnar_trace_bytes(trace), shards=4, baseline_config=None
        )
        serial = replay_columnar(
            columnar_trace_bytes(trace), shards=1, baseline_config=None
        )
        # Snapping may reduce the shard count; whatever plan emerges,
        # the counters must not move.
        assert 1 <= with_epochs.shard_count <= 4
        assert serial.shard_count == 1
        assert with_epochs.hlatch == serial.hlatch

    def test_shard_env_var_drives_default(self, monkeypatch):
        trace = _golden("gcc")
        blob = columnar_trace_bytes(trace)
        monkeypatch.setenv(SHARDS_ENV_VAR, "3")
        sharded = replay_columnar(blob, baseline_config=None)
        monkeypatch.setenv(SHARDS_ENV_VAR, "1")
        serial = replay_columnar(blob, baseline_config=None)
        assert serial.shard_count == 1
        assert sharded.hlatch == serial.hlatch

    def test_wire_partials_survive_serialisation(self):
        trace = _golden("gcc")
        blob = columnar_trace_bytes(trace)
        n = trace.access_count
        plan = explicit_plan(n, [n // 2])
        system = HLatchSystem()
        system.load_taint(trace.layout)
        partials = [
            shard_partial(
                trace.addresses[start:stop],
                trace.sizes[start:stop],
                trace.is_write[start:stop],
                system.latch,
                HLATCH_TAINT_CACHE,
                CONVENTIONAL_TAINT_CACHE,
            )
            for start, stop in plan
        ]
        rebuilt = [ShardPartial.from_wire(p.to_wire()) for p in partials]
        merge_partials(rebuilt, system)
        direct = replay_columnar(blob, plan=plan)
        assert (
            system.snapshot().to_dict()["metrics"]
            == direct.system.snapshot().to_dict()["metrics"]
        )


class TestCorpusWrapStraddles:
    """32-bit wrap reproducers with shard cuts through the wrap point.

    The corpus programs were shrunk from real masking bugs; their access
    streams hit addresses near 2**32.  Shard boundaries are driven
    through every access index, so the masked (screen/probe) vs
    unmasked (taint-cache) address handling is exercised on both sides
    of every cut.
    """

    @pytest.fixture(scope="class")
    def corpus_traces(self):
        traces = []
        for cp in load_corpus(CORPUS_DIR):
            engine, collector = run_reference(cp)
            if collector.addresses:
                traces.append((cp, engine, collector))
        assert traces, "corpus must contain programs with memory accesses"
        return traces

    def test_corpus_reaches_wrap_addresses(self, corpus_traces):
        top = max(
            max(collector.addresses)
            for _, _, collector in corpus_traces
        )
        assert top >= 0xFFFF_0000  # the straddles are actually exercised

    @pytest.mark.parametrize("seed", range(6))
    def test_sharded_matches_scalar_stack(self, seed, corpus_traces):
        rng = random.Random(seed)
        for cp, engine, collector in corpus_traces:
            n = len(collector.addresses)
            plan = _random_plan(rng, n)

            def fresh():
                system = HLatchSystem(cp.config, HLATCH_TAINT_CACHE)
                system.latch.bulk_load_from_shadow(engine.shadow)
                return system

            scalar = fresh()
            for address, size, write in zip(
                collector.addresses, collector.sizes, collector.writes
            ):
                scalar.access(address, size, write)

            sharded = fresh()
            addresses = np.asarray(collector.addresses, dtype=np.int64)
            sizes = np.asarray(collector.sizes, dtype=np.int64)
            writes = np.asarray(collector.writes, dtype=bool)
            partials = [
                shard_partial(
                    addresses[start:stop], sizes[start:stop],
                    writes[start:stop], sharded.latch, HLATCH_TAINT_CACHE,
                )
                for start, stop in plan
            ]
            merge_partials(partials, sharded)
            assert (
                sharded.snapshot().to_dict()["metrics"]
                == scalar.snapshot().to_dict()["metrics"]
            ), f"{cp.name} seed={seed} plan={plan}"
            assert (
                sharded.latch.last_exception_address
                == scalar.latch.last_exception_address
            )

    def test_every_cut_point_exhaustively(self, corpus_traces):
        # Exhaustive single-cut sweep: the boundary crosses *every*
        # access index of every wrap reproducer.
        for cp, engine, collector in corpus_traces:
            addresses = np.asarray(collector.addresses, dtype=np.int64)
            sizes = np.asarray(collector.sizes, dtype=np.int64)
            writes = np.asarray(collector.writes, dtype=bool)
            n = len(addresses)
            if n > 40:  # keep the sweep bounded; random plans cover big ones
                continue

            def latch_counters(latch):
                stats = latch.stats
                return (
                    stats.memory_checks, stats.resolved_by_tlb,
                    stats.resolved_by_ctc, stats.sent_to_precise,
                    latch.last_exception_address,
                    latch.ctc.stats.accesses, latch.ctc.stats.hits,
                )

            from repro.core.latch import LatchModule

            reference = LatchModule(cp.config)
            reference.bulk_load_from_shadow(engine.shadow)
            kernel_oracles.check_memory_loop(reference, addresses, sizes)
            want = latch_counters(reference)

            for cut in range(n + 1):
                system = HLatchSystem(cp.config, HLATCH_TAINT_CACHE)
                system.latch.bulk_load_from_shadow(engine.shadow)
                partials = [
                    shard_partial(
                        addresses[start:stop], sizes[start:stop],
                        writes[start:stop], system.latch, HLATCH_TAINT_CACHE,
                    )
                    for start, stop in ((0, cut), (cut, n))
                ]
                merge_partials(partials, system)
                assert latch_counters(system.latch) == want, (
                    f"{cp.name} cut={cut}"
                )


class TestPooledReplay:
    def test_pool_matches_in_process(self, tmp_path):
        from repro.runner import Runner, RunnerConfig

        trace = _golden("gcc")
        path = tmp_path / "gcc.ltrace"
        save_columnar_trace(trace, path)
        local = replay_columnar(path, shards=3)
        runner = Runner(
            config=RunnerConfig(
                max_workers=2, backoff_base=0.0, backoff_max=0.0
            )
        )
        pooled = replay_columnar_pooled(path, shards=3, runner=runner)
        assert pooled.shard_count == local.shard_count
        assert pooled.hlatch == local.hlatch
        assert pooled.baseline == local.baseline
        assert (
            pooled.system.snapshot().to_dict()["metrics"]
            == local.system.snapshot().to_dict()["metrics"]
        )

    def test_single_shard_plan_skips_pool(self, tmp_path):
        trace = _golden("curl")
        path = tmp_path / "curl.ltrace"
        save_columnar_trace(trace, path)
        result = replay_columnar_pooled(path, shards=1, runner=None)
        assert result.shard_count == 1
        assert result.hlatch == replay_columnar(path, shards=1).hlatch


class TestHLatchConfigCoverage:
    def test_no_tlb_bits_config(self):
        # The merge must also hold when the TLB screen is disabled
        # (tlb_bits is None → every access goes to the CTC).
        import dataclasses

        trace = _golden("gcc")
        config = dataclasses.replace(HLATCH_LATCH_CONFIG, use_tlb_bits=False)
        blob = columnar_trace_bytes(trace)
        sharded = replay_columnar(
            blob, latch_config=config, shards=4, baseline_config=None
        )
        serial = replay_columnar(
            blob, latch_config=config, plan=[(0, trace.access_count)],
            baseline_config=None,
        )
        assert (
            sharded.system.snapshot().to_dict()["metrics"]
            == serial.system.snapshot().to_dict()["metrics"]
        )
