"""The repro.check differential soundness oracle.

Covers the tentpole acceptance criteria: the oracle replays the
committed regression corpus plus a batch of freshly generated seeded
programs across byte-precise DIFT, the core mirror (both clear
disciplines), S-LATCH, H-LATCH, and the per-access and batch kernel
replays with zero violations — and the mutation self-test proves the harness can
detect and shrink a planted soundness bug.
"""

import pytest

from repro.check.corpus import DEFAULT_CORPUS, load_corpus, load_program, save_program
from repro.check.generator import CheckProgram, generate_program
from repro.check.mutation import BuggyLatchModule, run_selftest
from repro.check.oracle import (
    OracleReport,
    check_program,
    run_core_mirror,
    run_reference,
    state_signature,
)
from repro.core.latch import LatchConfig


class TestGenerator:
    def test_deterministic(self):
        assert generate_program(7) == generate_program(7)
        assert generate_program(7) != generate_program(8)

    def test_programs_assemble_and_halt(self):
        for seed in range(5):
            cp = generate_program(seed)
            cpu = cp.make_cpu()
            cpu.run(200_000)
            assert cpu.halted

    def test_hazard_coverage_across_seeds(self):
        """The op mix actually emits the hazard families it promises."""
        bodies = "\n".join(
            op for seed in range(40) for op in generate_program(seed).body
        )
        assert "4294967" in bodies      # wrap-region addresses
        assert "sw   r0" in bodies      # taint clears
        assert "syscall" in bodies      # mid-body taint sources

    def test_instruction_count_counts_expanded_pseudos(self):
        cp = generate_program(3)
        assert cp.instruction_count() == len(cp.program().instructions)


class TestOracleCleanOnFixedCode:
    def test_corpus_replays_clean(self):
        programs = load_corpus(DEFAULT_CORPUS)
        assert programs, "committed regression corpus must not be empty"
        report = OracleReport()
        for cp in programs:
            report.merge(check_program(cp))
        assert report.ok, "\n".join(str(v) for v in report.violations)

    @pytest.mark.parametrize("seed", range(12))
    def test_fresh_seeds_clean(self, seed):
        report = check_program(generate_program(seed))
        assert report.ok, "\n".join(str(v) for v in report.violations)

    def test_core_mirror_matches_reference(self):
        cp = generate_program(1)
        reference, _ = run_reference(cp)
        mirror = run_core_mirror(cp, defer_clear=True)
        assert state_signature(mirror.engine) == state_signature(reference)


class TestMutationSelfTest:
    def test_planted_bug_detected_and_shrunk(self):
        result = run_selftest()
        assert result.detected, "oracle failed to see the planted off-by-one"
        assert result.report.violations
        assert result.shrunk is not None
        assert result.shrunk_instructions <= 25

    def test_buggy_module_drops_final_domain(self):
        latch = BuggyLatchModule(LatchConfig(domain_size=8))
        latch.update_memory_tags(4, b"\x01" * 8)  # straddles 0..7 / 8..15
        assert latch.ctt.is_domain_tainted(4)
        assert not latch.ctt.is_domain_tainted(8), "mutation must drop it"

    def test_real_module_passes_where_mutant_fails(self):
        result = run_selftest(shrink=False)
        cp = generate_program(result.seed)
        mutant = check_program(cp, paths=("core",), latch_cls=BuggyLatchModule)
        assert not mutant.ok
        real = check_program(cp, paths=("core",))
        assert real.ok, f"real module flagged on seed {result.seed}"


class TestCorpusRoundTrip:
    def test_save_load_identity(self, tmp_path):
        cp = generate_program(11)
        path = save_program(cp, tmp_path, note="round trip")
        loaded = load_program(path)
        assert loaded == cp

    def test_load_corpus_sorted_and_complete(self):
        programs = load_corpus(DEFAULT_CORPUS)
        names = [cp.name for cp in programs]
        assert names == sorted(names)
        assert "wrap-update-straddle" in names
        assert "straddle-domain-store" in names

    def test_missing_directory_is_empty(self, tmp_path):
        assert load_corpus(tmp_path / "absent") == []


class TestStreamPath:
    def test_stream_path_runs_both_backends(self):
        """The stream path runs the pipeline once per program."""
        from repro.check.oracle import ALL_PATHS

        assert "stream" in ALL_PATHS
        report = check_program(generate_program(2), paths=("stream",))
        assert report.ok, "\n".join(str(v) for v in report.violations)
        assert report.runs == 2  # reference + stream

    def test_env_knobs_reach_the_stream_runs(self, monkeypatch):
        from repro.check.oracle import run_stream

        monkeypatch.setenv("REPRO_PIPELINE_QUEUE_CAPACITY", "4")
        monkeypatch.setenv("REPRO_PIPELINE_DRAIN_BATCH", "64")
        pipeline = run_stream(generate_program(2))
        assert pipeline.config.queue_capacity == 4
        assert pipeline.config.drain_batch == 64
        # The env-sized queue is the one that ran.
        assert pipeline.queue.high_water <= 4

    def test_sampling_env_skips_signature_but_not_invariants(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PIPELINE_SAMPLE_RATE", "0.3")
        monkeypatch.setenv("REPRO_PIPELINE_SAMPLE_WINDOW", "8")
        monkeypatch.setenv("REPRO_PIPELINE_SAMPLE_SEED", "5")
        # Sampling legitimately under-approximates the reference: the
        # oracle must not flag the coverage loss as a divergence, but
        # the coarse/precise containment invariant still has to hold.
        report = check_program(generate_program(2), paths=("stream",))
        assert report.ok, "\n".join(str(v) for v in report.violations)

    def test_stream_obs_accumulates_across_runs(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        for seed in (2, 3):
            check_program(
                generate_program(seed), paths=("stream",), stream_obs=registry
            )
        snapshot = registry.snapshot()
        assert snapshot.get("pipeline.runs") == 2  # one run per program
        assert snapshot.get("pipeline.instructions") > 0
        assert "pipeline.queue.stall_cycles" in snapshot
        assert "pipeline.queue.stalls" in snapshot


class TestColumnarPath:
    def test_columnar_path_is_registered(self):
        from repro.check.oracle import ALL_PATHS

        assert "columnar" in ALL_PATHS

    def test_columnar_path_clean_on_fixed_code(self):
        report = check_program(generate_program(4), paths=("columnar",))
        assert report.ok, "\n".join(str(v) for v in report.violations)
        assert report.runs == 2  # reference + columnar differential

    def test_columnar_path_catches_planted_counter_bug(self):
        # A latch whose CTC stats lie by one: the scalar stack uses the
        # buggy counters while the sharded merge recomputes them from
        # the run algebra, so the differential must flag the mismatch.
        from repro.check.oracle import check_columnar, run_reference
        from repro.core.latch import LatchModule

        class MiscountingLatch(LatchModule):
            def check_memory(self, address, size=1):
                result = super().check_memory(address, size)
                self.ctc.stats.hits += 1  # planted bug
                return result

        cp = generate_program(4)
        engine, trace = run_reference(cp)
        assert trace.addresses, "seed 4 must produce memory accesses"
        violations = check_columnar(
            cp, engine, trace, latch_cls=MiscountingLatch
        )
        assert any(
            v.kind == "columnar-counter-mismatch" for v in violations
        ), [str(v) for v in violations]

    def test_collector_records_write_flags(self):
        from repro.check.oracle import run_reference

        _, trace = run_reference(generate_program(4))
        assert len(trace.writes) == len(trace.addresses)
        assert any(trace.writes) and not all(trace.writes)


class TestCli:
    def test_replay_corpus_exits_zero(self, capsys):
        from repro.check.cli import cli

        assert cli(["replay"]) == 0
        out = capsys.readouterr().out
        assert "replayed" in out and "0 violations" in out

    def test_fuzz_small_batch_exits_zero(self, tmp_path, capsys):
        from repro.check.cli import cli

        assert cli([
            "fuzz", "--seeds", "3", "--out", str(tmp_path / "fails")
        ]) == 0
        assert "3 programs" in capsys.readouterr().out

    def test_selftest_exits_zero(self, capsys):
        from repro.check.cli import cli

        assert cli(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "planted bug detected" in out

    def test_fuzz_stats_out_writes_queue_metrics(self, tmp_path, capsys):
        import json

        from repro.check.cli import cli

        stats_path = tmp_path / "artifacts" / "queue-stats.json"
        assert cli([
            "fuzz", "--seeds", "2", "--out", str(tmp_path / "fails"),
            "--stats-out", str(stats_path),
        ]) == 0
        assert "wrote streaming queue metrics" in capsys.readouterr().out
        payload = json.loads(stats_path.read_text())
        assert payload["meta"]["command"] == "fuzz"
        assert payload["meta"]["programs"] == 2
        names = {record["name"] for record in payload["metrics"]}
        assert "pipeline.runs" in names
        assert "pipeline.queue.stall_cycles" in names

    def test_fuzz_paths_flag_restricts_oracle(self, tmp_path, capsys):
        import json

        from repro.check.cli import cli

        stats_path = tmp_path / "stats.json"
        assert cli([
            "fuzz", "--seeds", "2", "--paths", "columnar",
            "--out", str(tmp_path / "fails"),
            "--stats-out", str(stats_path),
        ]) == 0
        payload = json.loads(stats_path.read_text())
        assert payload["meta"]["paths"] == "columnar"
        # No stream runs happened, so no pipeline metrics accumulated.
        names = {record["name"] for record in payload["metrics"]}
        assert "pipeline.runs" not in names

    def test_fuzz_rejects_unknown_path(self, tmp_path):
        from repro.check.cli import cli

        with pytest.raises(SystemExit, match="unknown oracle path"):
            cli(["fuzz", "--seeds", "1", "--paths", "nope",
                 "--out", str(tmp_path / "fails")])

    def test_stats_out_is_written_atomically(self, tmp_path, monkeypatch):
        # The artifact appears via rename: no partial file is ever
        # visible at the published path, and no .tmp residue remains.
        import json
        from pathlib import Path

        from repro.check import cli as check_cli

        stats_path = tmp_path / "stats.json"
        observed = []
        original = check_cli.os.replace

        def spying_replace(src, dst):
            observed.append((Path(src).name, Path(dst).name))
            return original(src, dst)

        monkeypatch.setattr(check_cli.os, "replace", spying_replace)
        assert check_cli.cli([
            "fuzz", "--seeds", "1", "--paths", "kernels",
            "--out", str(tmp_path / "fails"),
            "--stats-out", str(stats_path),
        ]) == 0
        assert observed == [("stats.json.tmp", "stats.json")]
        assert not stats_path.with_name("stats.json.tmp").exists()
        json.loads(stats_path.read_text())  # complete, parseable artifact
