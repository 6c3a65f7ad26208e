"""Golden-trace regression tests.

The ``tests/golden/`` directory pins committed workload artefacts and
the exact replay results they must produce (see ``tests/golden/regen.py``
for provenance).  These tests serve two purposes:

* **cross-version drift** — a change to the workload generator, the
  cache models, or the kernels that moves any published counter fails
  loudly against numbers produced by an earlier build, not just against
  code in the same working tree;
* **storage hardening** — the committed ``corrupt_trace.ltrace`` is a
  real truncated container on disk, so the :class:`StorageFormatError`
  path is exercised against genuine on-disk corruption rather than a
  synthetic monkeypatched error.

Every golden trace replays through the per-access oracles in
``tests/kernel_oracles.py`` (``scalar``) and through the product
kernels — the whole window as one shard (``vector``) and cut into
three shards (``sharded``) — and each must match the golden snapshot
byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.temporal import epoch_duration_profile
from repro.hlatch.baseline import run_baseline
from repro.hlatch.system import HLatchSystem
from repro.kernels import merge_partials, shard_partial
from repro.trace.convert import load_columnar_epochs, load_columnar_trace
from repro.trace.format import StorageFormatError

from tests import kernel_oracles

GOLDEN_DIR = Path(__file__).parent / "golden"
WORKLOADS = ("gcc", "curl")
REPLAYS = ("scalar", "vector")

EXPECTED = json.loads((GOLDEN_DIR / "expected.json").read_text())


def _trace_path(name):
    return GOLDEN_DIR / f"{name}_w2000_s0.ltrace"


def load_access_trace(path):
    with load_columnar_trace(path) as view:
        return view.to_access_trace()


def _replay_snapshot(trace, replay_path):
    if replay_path == "scalar":
        return kernel_oracles.hlatch_snapshot(trace)
    system = HLatchSystem()
    system.load_taint(trace.layout)
    n = trace.access_count
    cuts = [0, n] if replay_path == "vector" else [0, n // 3, n // 2, n]
    partials = [
        shard_partial(
            trace.addresses[start:stop], trace.sizes[start:stop],
            trace.is_write[start:stop], system.latch,
            system.tcache.config,
        )
        for start, stop in zip(cuts, cuts[1:])
    ]
    merge_partials(partials, system)
    return system.snapshot()


class TestGoldenReplay:
    @pytest.mark.parametrize("name", WORKLOADS)
    @pytest.mark.parametrize("replay_path", REPLAYS + ("sharded",))
    def test_hlatch_snapshot_matches_golden(self, name, replay_path):
        trace = load_access_trace(_trace_path(name))
        snapshot = _replay_snapshot(trace, replay_path)
        golden = EXPECTED[name]["hlatch_snapshot"]
        assert snapshot.to_dict()["metrics"] == golden["metrics"]

    @pytest.mark.parametrize("name", WORKLOADS)
    @pytest.mark.parametrize("replay_path", REPLAYS)
    def test_baseline_matches_golden(self, name, replay_path):
        trace = load_access_trace(_trace_path(name))
        if replay_path == "scalar":
            report = kernel_oracles.run_baseline(trace)
        else:
            report = run_baseline(trace)
        golden = EXPECTED[name]["baseline"]
        assert report.accesses == golden["accesses"]
        assert report.misses == golden["misses"]

    @pytest.mark.parametrize("name", WORKLOADS)
    @pytest.mark.parametrize("replay_path", REPLAYS)
    def test_epoch_profile_matches_golden(self, name, replay_path):
        stream = load_columnar_epochs(GOLDEN_DIR / f"{name}_epochs_s0.ltrace")
        if replay_path == "scalar":
            profile = kernel_oracles.epoch_duration_profile(stream)
        else:
            profile = epoch_duration_profile(stream)
        golden = EXPECTED[name]["epoch_profile"]
        # The golden floats were serialised through json, so comparing
        # their round-trips checks exact bit patterns, not tolerances.
        assert {str(k): v for k, v in profile.items()} == golden

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_trace_roundtrip_metadata(self, name):
        trace = load_access_trace(_trace_path(name))
        assert trace.name == name
        # The window argument counts instructions; accesses are a subset.
        assert trace.total_instructions == 2_000
        assert 0 < trace.access_count <= 2_000
        assert len(trace.layout.extents)  # golden workloads carry taint


class TestStorageCorruption:
    def test_truncated_archive_raises_storage_error(self):
        path = GOLDEN_DIR / "corrupt_trace.ltrace"
        with pytest.raises(StorageFormatError) as excinfo:
            load_access_trace(path)
        # The error names the offending file so a failed sweep is
        # actionable without a debugger.
        assert "corrupt_trace.ltrace" in str(excinfo.value)

    def test_wrong_kind_raises_storage_error(self):
        # An epoch-stream container is a valid .ltrace but the wrong kind.
        path = GOLDEN_DIR / "gcc_epochs_s0.ltrace"
        with pytest.raises(StorageFormatError, match="access-trace"):
            load_access_trace(path)

    def test_wrong_kind_epoch_reader(self):
        with pytest.raises(StorageFormatError, match="epoch-stream"):
            load_columnar_epochs(_trace_path("gcc"))

    def test_missing_file_is_not_masked(self):
        with pytest.raises(FileNotFoundError):
            load_access_trace(GOLDEN_DIR / "does_not_exist.ltrace")
