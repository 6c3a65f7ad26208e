"""Every benchmark workload at a tiny size, correctness gates on.

The command line has no size knob (every measured run has the same
length), so these tests call the workload functions directly.
Run with ``PYTHONPATH=src python -m pytest benchmarks -m bench_smoke``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import live_path
import paper_tables
import served
from ledger import COUNT_NAMES, LAYERS

pytestmark = pytest.mark.bench_smoke

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _no_op():
    pass


def _check(result, trace):
    assert result["attempted"] >= 1
    assert result["failed"] == 0, result["errors"]
    if not trace:
        assert result["metrics"]["work_per_s"] > 0
        assert result["metrics"]["latency_p50_ms"] > 0
        return
    layers = result["layers"]
    for layer in LAYERS:
        assert f"{layer}.calls" in layers and f"{layer}.share" in layers
    assert 0.5 < layers["trace.coverage_frac"] < 1.2


@pytest.mark.parametrize("trace", [False, True])
def test_live_clean(trace):
    result = live_path.run_workload(
        live_path.clean_factory(0, 300), live_path.clean_factory(0, 10),
        seconds=0.2, trace=trace, mark_setup_done=_no_op,
    )
    _check(result, trace)


def test_live_taint_traced_counts_repeat():
    def once():
        return live_path.run_workload(
            live_path.taint_factory(1, 4), live_path.taint_factory(1, 1),
            seconds=0.2, trace=True, mark_setup_done=_no_op,
        )

    first, second = once(), once()
    _check(first, True)
    assert first["layers"]["gate.memory_hits"] > 0
    for name in COUNT_NAMES:
        if name in first["layers"]:
            assert first["layers"][name] == second["layers"][name], name


@pytest.mark.parametrize("trace", [False, True])
def test_served_streams(tmp_path, trace):
    result = served.run_workload(
        0, seconds=1.5, trace=trace, mark_setup_done=_no_op,
        out_dir=tmp_path, trace_count=4,
    )
    _check(result, trace)
    assert result["notes"]["stream.count"][0] >= 1
    assert result["layers"]["serve.frames"] > 0
    if trace:
        assert result["layers"]["serve.protocol.calls"] > 0
        assert result["layers"]["serve.client.calls"] > 0
        assert list(tmp_path.glob("spans-*-server.jsonl"))


def test_paper_tables(tmp_path):
    result = paper_tables.run_workload(
        0, seconds=0.1, trace=True, scratch=str(tmp_path),
        mark_setup_done=_no_op, epoch_scale=100_000, trace_window=2_000,
        benchmarks=("gcc", "curl"),
    )
    _check(result, True)
    assert result["layers"]["runner.jobs"] == 8
    assert result["layers"]["hlatch.calls"] > 0


def test_command_prints_the_contract_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "live-clean",
         "--seed", "0", "--seconds", "0.3"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert "removed environment variables" in proc.stdout


def test_command_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "live-clean",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
