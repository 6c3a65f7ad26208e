"""Workload artefact persistence: both ``.ltrace`` kinds and their guards."""

import struct

import numpy as np
import pytest

from repro.trace.convert import (
    ACCESS_KIND,
    EPOCH_KIND,
    load_columnar_epochs,
    load_columnar_trace,
    save_columnar_epochs,
    save_columnar_trace,
)
from repro.trace.format import ColumnarFile, StorageFormatError, write_columnar
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.profiles import get_profile


def load_access_trace(path):
    """The materialised :class:`AccessTrace` a trace cache hands out."""
    with load_columnar_trace(path) as view:
        return view.to_access_trace()


def _rewrite(path, **replacements):
    """Re-encode the container at ``path`` with some sections replaced
    (a consistent, checksummed file whose *contents* are wrong)."""
    with ColumnarFile(path) as handle:
        kind, meta = handle.kind, dict(handle.meta)
        arrays = {name: np.array(handle.array(name))
                  for name in handle.section_names()}
    arrays.update(replacements)
    write_columnar(path, kind, arrays, meta)


class TestAccessTraceRoundTrip:
    def test_roundtrip_preserves_everything(self, tmp_path):
        trace = WorkloadGenerator(get_profile("gcc")).access_trace(30_000)
        path = tmp_path / "gcc.ltrace"
        save_columnar_trace(trace, path)
        loaded = load_access_trace(path)
        assert loaded.name == trace.name
        assert (loaded.addresses == trace.addresses).all()
        assert (loaded.sizes == trace.sizes).all()
        assert (loaded.is_write == trace.is_write).all()
        assert (loaded.tainted == trace.tainted).all()
        assert (loaded.gap_before == trace.gap_before).all()
        assert (loaded.active_epoch == trace.active_epoch).all()
        assert np.array_equal(loaded.layout.extents, trace.layout.extents)
        assert loaded.layout.accessed_pages == trace.layout.accessed_pages

    def test_loaded_trace_feeds_simulations(self, tmp_path):
        from repro.hlatch import run_hlatch

        trace = WorkloadGenerator(get_profile("curl")).access_trace(20_000)
        path = tmp_path / "curl.ltrace"
        save_columnar_trace(trace, path)
        original = run_hlatch(trace)
        replayed = run_hlatch(load_access_trace(path))
        assert replayed.ctc_misses == original.ctc_misses
        assert replayed.tcache_misses == original.tcache_misses

    def test_recorded_trace_roundtrip(self, tmp_path):
        """TraceRecorder output survives persistence too."""
        from repro.dift.engine import DIFTEngine
        from repro.machine.tracing import TraceRecorder
        from repro.workloads.programs import file_filter

        scenario = file_filter()
        cpu = scenario.make_cpu()
        engine = DIFTEngine()
        recorder = TraceRecorder(engine)
        cpu.attach(engine)
        cpu.attach(recorder)
        cpu.run(100_000)
        trace = recorder.access_trace()
        path = tmp_path / "recorded.ltrace"
        save_columnar_trace(trace, path)
        loaded = load_access_trace(path)
        assert loaded.tainted_access_count == trace.tainted_access_count


class TestEpochStreamRoundTrip:
    def test_roundtrip(self, tmp_path):
        stream = WorkloadGenerator(get_profile("apache")).epoch_stream(500_000)
        path = tmp_path / "apache.ltrace"
        save_columnar_epochs(stream, path)
        loaded = load_columnar_epochs(path)
        assert loaded.name == stream.name
        assert (loaded.lengths == stream.lengths).all()
        assert (loaded.tainted_counts == stream.tainted_counts).all()
        assert loaded.tainted_fraction == stream.tainted_fraction

    def test_roundtrip_preserves_derived_statistics(self, tmp_path):
        stream = WorkloadGenerator(get_profile("sphinx")).epoch_stream(200_000)
        path = tmp_path / "sphinx.ltrace"
        save_columnar_epochs(stream, path)
        loaded = load_columnar_epochs(path)
        assert loaded.epoch_count == stream.epoch_count
        assert loaded.total_instructions == stream.total_instructions

    def test_loaded_stream_feeds_analysis_identically(self, tmp_path):
        from repro.analysis import tainted_instruction_fraction

        stream = WorkloadGenerator(get_profile("gcc")).epoch_stream(200_000)
        path = tmp_path / "gcc.ltrace"
        save_columnar_epochs(stream, path)
        assert tainted_instruction_fraction(
            load_columnar_epochs(path)
        ) == tainted_instruction_fraction(stream)

    def test_loaded_stream_outlives_the_file(self, tmp_path):
        stream = WorkloadGenerator(get_profile("gcc")).epoch_stream(100_000)
        path = tmp_path / "gcc.ltrace"
        save_columnar_epochs(stream, path)
        loaded = load_columnar_epochs(path)
        path.unlink()
        assert loaded.lengths.flags.owndata
        assert (loaded.lengths == stream.lengths).all()


class TestFormatGuards:
    def test_kind_mismatch_rejected(self, tmp_path):
        stream = WorkloadGenerator(get_profile("gcc")).epoch_stream(100_000)
        path = tmp_path / "stream.ltrace"
        save_columnar_epochs(stream, path)
        with pytest.raises(StorageFormatError, match=ACCESS_KIND):
            load_access_trace(path)
        trace = WorkloadGenerator(get_profile("gcc")).access_trace(2_000)
        save_columnar_trace(trace, path)
        with pytest.raises(StorageFormatError, match=EPOCH_KIND):
            load_columnar_epochs(path)

    def test_garbage_archive_rejected(self, tmp_path):
        # A valid container of the right kind with foreign sections.
        path = tmp_path / "junk.ltrace"
        write_columnar(path, EPOCH_KIND, {"whatever": np.arange(3)})
        with pytest.raises(StorageFormatError, match="no section"):
            load_columnar_epochs(path)

    def test_future_version_rejected(self, tmp_path):
        stream = WorkloadGenerator(get_profile("gcc")).epoch_stream(100_000)
        path = tmp_path / "future.ltrace"
        save_columnar_epochs(stream, path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<H", blob, 4, 999)
        path.write_bytes(bytes(blob))
        with pytest.raises(StorageFormatError, match="format version 999"):
            load_columnar_epochs(path)

    def test_errors_are_valueerror_subclass(self):
        """Existing except ValueError handlers keep working."""
        assert issubclass(StorageFormatError, ValueError)

    def test_truncated_file_names_the_path(self, tmp_path):
        trace = WorkloadGenerator(get_profile("gcc")).access_trace(5_000)
        path = tmp_path / "gcc.ltrace"
        save_columnar_trace(trace, path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(StorageFormatError, match="gcc.ltrace"):
            load_access_trace(path)

    def test_not_an_archive_at_all(self, tmp_path):
        path = tmp_path / "junk.ltrace"
        path.write_bytes(b"definitely not an ltrace container at all")
        with pytest.raises(StorageFormatError, match="not an .ltrace"):
            load_columnar_epochs(path)

    def test_missing_file_stays_filenotfound(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_columnar_epochs(tmp_path / "absent.ltrace")
        with pytest.raises(FileNotFoundError):
            load_access_trace(tmp_path / "absent.ltrace")

    def test_missing_field_named_in_error(self, tmp_path):
        path = tmp_path / "partial.ltrace"
        write_columnar(
            path, EPOCH_KIND, {"lengths": np.array([1])}, {"name": "x"}
        )  # tainted_counts deliberately absent
        with pytest.raises(StorageFormatError, match="tainted_counts"):
            load_columnar_epochs(path)

    def test_misaligned_epoch_arrays_rejected(self, tmp_path):
        path = tmp_path / "misaligned.ltrace"
        write_columnar(
            path, EPOCH_KIND,
            {"lengths": np.array([10, 20, 30]),
             "tainted_counts": np.array([1])},
            {"name": "x"},
        )
        with pytest.raises(StorageFormatError, match="misaligned") as excinfo:
            load_columnar_epochs(path)
        assert "misaligned.ltrace" in str(excinfo.value)

    def test_misaligned_trace_arrays_rejected(self, tmp_path):
        trace = WorkloadGenerator(get_profile("gcc")).access_trace(5_000)
        path = tmp_path / "trace.ltrace"
        save_columnar_trace(trace, path)
        _rewrite(path, sizes=np.array(trace.sizes[:-3], dtype=np.int64))
        with pytest.raises(StorageFormatError, match="misaligned") as excinfo:
            load_access_trace(path)
        assert "trace.ltrace" in str(excinfo.value)

    def test_bad_extents_shape_rejected(self, tmp_path):
        trace = WorkloadGenerator(get_profile("gcc")).access_trace(5_000)
        path = tmp_path / "trace.ltrace"
        save_columnar_trace(trace, path)
        _rewrite(path, extents=np.arange(9, dtype=np.int64).reshape(3, 3))
        with pytest.raises(StorageFormatError, match="extents") as excinfo:
            load_access_trace(path)
        assert "trace.ltrace" in str(excinfo.value)
