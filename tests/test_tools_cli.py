"""CLI tool tests: asm, disasm, trace, stats (program runs included)."""

import json

import pytest

from repro.tools.asm import main as asm_main
from repro.tools.disasm import main as disasm_main
from repro.tools.stats import main as stats_main
from repro.tools.trace import main as trace_main

PROGRAM = """
.data
path:   .asciiz "in.txt"
buf:    .space 32
msg:    .ascii "done\\n"
.text
_start:
    li   r3, 3
    li   r4, path
    syscall
    mv   r7, r3
    li   r3, 1
    mv   r4, r7
    li   r5, buf
    li   r6, 32
    syscall
    li   r3, 2
    li   r4, 0
    li   r5, msg
    li   r6, 5
    syscall
    li   r3, 0
    li   r4, 7
    syscall
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text(PROGRAM)
    return path


@pytest.fixture
def payload_file(tmp_path):
    path = tmp_path / "payload.bin"
    path.write_bytes(b"external data")
    return path


class TestAsm:
    def test_assemble_to_binary(self, source_file, tmp_path, capsys):
        output = tmp_path / "prog.bin"
        assert asm_main([str(source_file), "-o", str(output)]) == 0
        blob = output.read_bytes()
        assert len(blob) % 4 == 0 and len(blob) > 0
        assert "instructions" in capsys.readouterr().out

    def test_meta_sidecar(self, source_file, tmp_path):
        meta = tmp_path / "prog.json"
        asm_main([str(source_file), "-o", str(tmp_path / "p.bin"),
                  "--meta", str(meta)])
        payload = json.loads(meta.read_text())
        assert "symbols" in payload and "_start" in payload["symbols"]
        assert bytes.fromhex(payload["data"]).endswith(b"done\n")

    def test_listing(self, source_file, tmp_path, capsys):
        asm_main([str(source_file), "-o", str(tmp_path / "p.bin"), "--listing"])
        out = capsys.readouterr().out
        assert "syscall" in out

    def test_syntax_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.s"
        bad.write_text("frobnicate r1\n")
        assert asm_main([str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert asm_main([str(tmp_path / "missing.s")]) == 2


class TestDisasm:
    def test_roundtrip(self, source_file, tmp_path, capsys):
        binary = tmp_path / "prog.bin"
        asm_main([str(source_file), "-o", str(binary)])
        capsys.readouterr()
        assert disasm_main([str(binary)]) == 0
        out = capsys.readouterr().out
        assert "syscall" in out and "0x00001000" in out

    def test_bad_binary(self, tmp_path, capsys):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00\x01\x02")  # not a multiple of 4
        assert disasm_main([str(path)]) == 1


class TestRun:
    """Running a program under each monitor (``repro-stats`` program mode)."""

    def _run(self, capsys, source, *extra):
        from repro.obs import StatsSnapshot

        code = stats_main([str(source), "--format", "json", *extra])
        captured = capsys.readouterr()
        return code, StatsSnapshot.from_json(captured.out), captured.err

    def test_plain_run(self, source_file, payload_file, capsys):
        code, snapshot, console = self._run(
            capsys, source_file, "--monitor", "none",
            "--file", f"in.txt={payload_file}",
        )
        assert code == 0
        assert console == "done\n"
        assert snapshot.meta["exit_code"] == 7 and snapshot.meta["halted"]
        assert snapshot.names() == [
            "cpu.instructions", "cpu.syscalls", "cpu.halted",
        ]

    def test_dift_monitoring(self, source_file, payload_file, capsys):
        _, snapshot, _ = self._run(
            capsys, source_file, "--monitor", "dift",
            "--file", f"in.txt={payload_file}",
        )
        assert "dift.tainted_instructions" in snapshot.names()
        assert snapshot.get("dift.tainted_bytes_live") == 13

    def test_untainted_flag(self, source_file, payload_file, capsys):
        _, snapshot, _ = self._run(
            capsys, source_file, "--monitor", "dift",
            "--file", f"in.txt={payload_file}:untainted",
        )
        assert snapshot.get("dift.tainted_bytes_live") == 0

    def test_slatch_monitoring(self, source_file, payload_file, capsys):
        _, snapshot, _ = self._run(
            capsys, source_file, "--monitor", "slatch", "--timeout", "50",
            "--file", f"in.txt={payload_file}",
        )
        assert "slatch.traps" in snapshot.names()

    def test_platch_monitoring(self, source_file, payload_file, capsys):
        _, snapshot, _ = self._run(
            capsys, source_file, "--monitor", "platch",
            "--file", f"in.txt={payload_file}",
        )
        assert snapshot.get("pipeline.instructions") > 0
        assert "pipeline.queue.stalls" in snapshot.names()

    def test_budget_exhaustion_exit_code(self, tmp_path, capsys):
        loop = tmp_path / "loop.s"
        loop.write_text("spin: j spin\n")
        code, snapshot, _ = self._run(
            capsys, loop, "--monitor", "none", "--max-steps", "100"
        )
        assert code == 0
        assert snapshot.meta["halted"] is False
        assert snapshot.get("cpu.instructions") == 100

    def test_bad_file_spec(self, source_file, capsys):
        assert stats_main([str(source_file), "--file", "nonsense"]) == 2
        assert "bad --file spec" in capsys.readouterr().err

class TestTrace:
    def test_trace_marks_tainted_instructions(
        self, source_file, payload_file, capsys
    ):
        assert trace_main(
            [str(source_file), "--file", f"in.txt={payload_file}"]
        ) == 0
        out = capsys.readouterr().out
        assert "+ input 13 bytes" in out
        assert "syscall" in out
        assert "touched taint" in out

    def test_only_tainted_filter(self, source_file, payload_file, capsys):
        trace_main(
            [str(source_file), "--only-tainted",
             "--file", f"in.txt={payload_file}"]
        )
        out = capsys.readouterr().out
        body = [
            line for line in out.splitlines()
            if line and line[0].isspace() is False and line.startswith(" ") is False
        ]
        # Every instruction line shown carries the taint marker.
        instruction_lines = [
            line for line in out.splitlines()
            if line.strip() and line.lstrip()[0].isdigit()
        ]
        for line in instruction_lines:
            assert " T " in line

    def test_limit(self, source_file, payload_file, capsys):
        trace_main(
            [str(source_file), "--limit", "3",
             "--file", f"in.txt={payload_file}"]
        )
        out = capsys.readouterr().out
        assert "3 lines shown" in out

    def test_trace_bad_source(self, tmp_path, capsys):
        bad = tmp_path / "bad.s"
        bad.write_text("bogus r1\n")
        assert trace_main([str(bad)]) == 2


#: Like PROGRAM, but touches the tainted buffer after reading it so the
#: S-LATCH monitor actually traps and the LATCH module performs checks.
STATS_PROGRAM = """
.data
path:   .asciiz "in.txt"
buf:    .space 32
.text
_start:
    li   r3, 3
    li   r4, path
    syscall
    mv   r7, r3
    li   r3, 1
    mv   r4, r7
    li   r5, buf
    li   r6, 32
    syscall
    li   r8, buf
    lbu  r9, 0(r8)
    addi r9, r9, 1
    sb   r9, 1(r8)
    lbu  r10, 2(r8)
    halt
"""


@pytest.fixture
def stats_source_file(tmp_path):
    path = tmp_path / "stats_prog.s"
    path.write_text(STATS_PROGRAM)
    return path


class TestStats:
    def test_program_markdown(self, stats_source_file, payload_file, capsys):
        code = stats_main(
            [str(stats_source_file), "--file", f"in.txt={payload_file}"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("slatch.traps", "ctc.hit_rate", "cpu.instructions",
                     "slatch.epoch.hw_duration"):
            assert name in out, name

    def test_program_json_snapshot(self, stats_source_file, payload_file, capsys):
        from repro.obs import StatsSnapshot

        assert stats_main(
            [str(stats_source_file), "--format", "json",
             "--file", f"in.txt={payload_file}"]
        ) == 0
        snapshot = StatsSnapshot.from_json(capsys.readouterr().out)
        assert snapshot.meta["mode"] == "program"
        assert snapshot.meta["monitor"] == "slatch"
        assert snapshot.meta["halted"] is True
        assert snapshot.get("cpu.instructions") > 0
        assert snapshot.get("latch.memory_checks") > 0

    def test_dift_monitor(self, stats_source_file, payload_file, capsys):
        from repro.obs import StatsSnapshot

        assert stats_main(
            [str(stats_source_file), "--monitor", "dift", "--format", "json",
             "--file", f"in.txt={payload_file}"]
        ) == 0
        snapshot = StatsSnapshot.from_json(capsys.readouterr().out)
        assert snapshot.get("dift.taint_source_bytes") == 13
        assert snapshot.get("dift.instructions") == snapshot.get(
            "cpu.instructions"
        )

    def test_platch_monitor_with_knobs(
        self, stats_source_file, payload_file, capsys
    ):
        from repro.obs import StatsSnapshot

        assert stats_main(
            [str(stats_source_file), "--monitor", "platch",
             "--format", "json", "--file", f"in.txt={payload_file}",
             "--queue-capacity", "8",
             "--sample-rate", "1.0", "--sample-seed", "7"]
        ) == 0
        snapshot = StatsSnapshot.from_json(capsys.readouterr().out)
        assert snapshot.meta["monitor"] == "platch"
        assert "backend" not in snapshot.meta
        assert snapshot.meta["queue_capacity"] == 8
        assert "gate_batch" not in snapshot.meta
        assert snapshot.meta["sample_seed"] == 7
        assert snapshot.get("pipeline.instructions") > 0
        assert snapshot.get("pipeline.events.enqueued") > 0
        assert "pipeline.queue.stall_cycles" in snapshot
        assert "dift.instructions" in snapshot

    def test_platch_trace_stream(
        self, stats_source_file, payload_file, tmp_path, capsys
    ):
        from repro.obs import read_jsonl

        trace_path = tmp_path / "pipeline.jsonl"
        assert stats_main(
            [str(stats_source_file), "--monitor", "platch",
             "--file", f"in.txt={payload_file}",
             "--queue-capacity", "1",
             "--trace", str(trace_path), "-o", str(tmp_path / "out.md")]
        ) == 0
        capsys.readouterr()
        events = read_jsonl(str(trace_path))
        assert any(e["name"] == "pipeline.stall" for e in events)

    def test_output_file_and_trace(
        self, stats_source_file, payload_file, tmp_path, capsys
    ):
        from repro.obs import read_jsonl

        out_path = tmp_path / "stats.md"
        trace_path = tmp_path / "trace.jsonl"
        assert stats_main(
            [str(stats_source_file), "--file", f"in.txt={payload_file}",
             "--timeout", "5", "-o", str(out_path),
             "--trace", str(trace_path)]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        assert "slatch.traps" in out_path.read_text()
        events = read_jsonl(str(trace_path))
        assert any(e["name"] == "slatch.trap" for e in events)

    def test_profile_mode_json(self, capsys):
        from repro.obs import StatsSnapshot

        assert stats_main(
            ["--profile", "wget", "--epoch-scale", "200000",
             "--trace-window", "5000", "--format", "json"]
        ) == 0
        snapshot = StatsSnapshot.from_json(capsys.readouterr().out)
        assert snapshot.meta == {
            "mode": "profile", "profile": "wget",
            "epoch_scale": 200000, "trace_window": 5000,
        }
        for name in ("ctc.hit_rate", "tlb.screened_frac",
                     "workload.tainted_fraction",
                     "workload.epoch.taint_free_duration",
                     "slatch.model.overhead"):
            assert name in snapshot, name

    def test_list_profiles(self, capsys):
        assert stats_main(["--list-profiles"]) == 0
        out = capsys.readouterr().out
        assert "wget" in out and "astar" in out and "(network)" in out

    def test_usage_errors(self, stats_source_file, capsys):
        assert stats_main([]) == 2
        assert stats_main([str(stats_source_file), "--profile", "wget"]) == 2
        assert stats_main(["--profile", "no-such-profile"]) == 2
        assert "error" in capsys.readouterr().err

    def test_console_entry_point_declared(self):
        import pathlib

        text = (
            pathlib.Path(__file__).parent.parent / "pyproject.toml"
        ).read_text()
        assert 'repro-stats = "repro.tools.stats:cli"' in text

    def test_record_trace_then_ltrace_replay(
        self, stats_source_file, payload_file, tmp_path, capsys
    ):
        from repro.dift.engine import DIFTEngine
        from repro.obs import StatsSnapshot
        from repro.trace.record import replay_events

        event_path = tmp_path / "run.ltrace"
        assert stats_main(
            [str(stats_source_file), "--monitor", "dift", "--format", "json",
             "--file", f"in.txt={payload_file}",
             "--record-trace", str(event_path)]
        ) == 0
        snapshot = StatsSnapshot.from_json(capsys.readouterr().out)
        assert snapshot.meta["recorded_trace"] == str(event_path)
        # The recorded container replays to the same instruction count
        # and taint outcome the live run reported.
        engine = DIFTEngine()
        steps = replay_events(event_path, engine)
        assert steps == snapshot.get("cpu.instructions")
        assert (
            len(list(engine.shadow.iter_tainted_bytes())) > 0
        ) == (snapshot.get("dift.taint_source_bytes") > 0)

    def test_ltrace_mode_json(self, capsys):
        from pathlib import Path as _Path

        from repro.obs import StatsSnapshot
        from repro.trace.convert import load_columnar_trace

        trace_path = _Path(__file__).parent / "golden" / "gcc_w2000_s0.ltrace"
        with load_columnar_trace(trace_path) as source:
            accesses = source.access_count
        assert stats_main(
            ["--ltrace", str(trace_path), "--shards", "3",
             "--format", "json"]
        ) == 0
        snapshot = StatsSnapshot.from_json(capsys.readouterr().out)
        assert snapshot.meta["mode"] == "ltrace"
        assert snapshot.meta["workload"] == "gcc"
        assert snapshot.meta["accesses"] == accesses
        assert 1 <= snapshot.meta["shards"] <= 3
        for name in ("latch.memory_checks", "trace.replays", "trace.shards",
                     "trace.mmap.bytes", "trace.merge.seconds",
                     "baseline.miss_percent"):
            assert name in snapshot, name
        assert snapshot.get("latch.memory_checks") == accesses

    def test_ltrace_mode_excludes_other_modes(self, stats_source_file,
                                              tmp_path, capsys):
        assert stats_main(
            [str(stats_source_file), "--ltrace", str(tmp_path / "x.ltrace")]
        ) == 2
        assert "error" in capsys.readouterr().err

    def test_profile_agrees_with_harness_pipeline(self, capsys):
        """repro-stats output matches the benchmark-harness measurement
        recomputed independently, to within 1e-9."""
        import math

        from repro.core.latch import LatchConfig, LatchModule
        from repro.obs import StatsSnapshot
        from repro.slatch.simulator import measure_hw_rates
        from repro.workloads import WorkloadGenerator, get_profile

        epoch_scale, trace_window = 200000, 5000
        assert stats_main(
            ["--profile", "sphinx", "--epoch-scale", str(epoch_scale),
             "--trace-window", str(trace_window), "--format", "json"]
        ) == 0
        snapshot = StatsSnapshot.from_json(capsys.readouterr().out)

        # Recompute with the same deterministic pipeline the Figure 13/14
        # harness uses.
        profile = get_profile("sphinx")
        generator = WorkloadGenerator(profile)
        trace = generator.access_trace(trace_window)
        stream = generator.epoch_stream(epoch_scale)
        latch = LatchModule(LatchConfig())
        measure_hw_rates(trace, latch=latch)

        ctc = latch.ctc.stats
        assert snapshot.get("ctc.hit_rate") == pytest.approx(
            ctc.hits / ctc.accesses, abs=1e-9
        )
        fractions = latch.stats.level_fractions()
        assert snapshot.get("tlb.screened_frac") == pytest.approx(
            fractions["tlb"], abs=1e-9
        )
        assert snapshot.get("workload.tainted_fraction") == pytest.approx(
            stream.tainted_fraction, abs=1e-9
        )
        lengths = stream.taint_free_lengths().tolist()
        hist = snapshot.get("workload.epoch.taint_free_duration")
        assert hist["count"] == len(lengths)
        assert hist["sum"] == pytest.approx(math.fsum(lengths), abs=1e-9)
        assert hist["mean"] == pytest.approx(
            math.fsum(lengths) / len(lengths), abs=1e-9
        )
