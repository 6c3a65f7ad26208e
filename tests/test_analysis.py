"""Locality-analysis tests (Section 3 metrics) on crafted inputs."""

import numpy as np
import pytest

from repro.analysis.spatial import (
    false_positive_multiplier,
    false_positive_sweep,
    page_taint_distribution,
)
from repro.analysis.temporal import (
    epoch_duration_profile,
    tainted_instruction_fraction,
)
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.profiles import get_profile
from repro.workloads.trace import AccessTrace, Epoch, EpochStream, TaintLayout


def stream(*epochs):
    return EpochStream.from_epochs(
        "s", [Epoch(length=l, tainted_instructions=t) for l, t in epochs]
    )


class TestTemporal:
    def test_fraction(self):
        s = stream((900, 0), (100, 100))
        assert tainted_instruction_fraction(s) == pytest.approx(0.1)

    def test_empty_stream(self):
        s = stream()
        assert tainted_instruction_fraction(s) == 0.0
        assert epoch_duration_profile(s)[100] == 0.0

    def test_duration_profile_cumulative_sets(self):
        # One 2M free epoch + one 500-instr free epoch + taint.
        s = stream((2_000_000, 0), (100, 50), (500, 0))
        profile = epoch_duration_profile(s)
        total = 2_000_600
        # The 2M epoch counts toward every threshold.
        assert profile[1_000_000] == pytest.approx(2_000_000 / total * 100)
        # The 500-instr epoch counts only toward the 100 threshold.
        assert profile[100] == pytest.approx(2_000_500 / total * 100)
        assert profile[1_000] == profile[1_000_000]

    def test_profile_monotone_decreasing(self):
        s = WorkloadGenerator(get_profile("gcc")).epoch_stream(2_000_000)
        profile = epoch_duration_profile(s)
        values = list(profile.values())
        assert values == sorted(values, reverse=True)


class TestSpatialPages:
    def test_page_distribution(self):
        layout = TaintLayout(
            extents=[(0x1000, 16), (0x3000, 4096)],
            accessed_pages={0, 1, 2, 3, 4},
        )
        stats = page_taint_distribution(layout)
        assert stats.pages_accessed == 5
        assert stats.pages_tainted == 2
        assert stats.tainted_percent == pytest.approx(40.0)

    def test_extent_spanning_pages(self):
        layout = TaintLayout(extents=[(0x0FFE, 4)], accessed_pages={0, 1})
        assert page_taint_distribution(layout).pages_tainted == 2

    def test_empty_layout(self):
        stats = page_taint_distribution(TaintLayout())
        assert stats.pages_accessed == 0
        assert stats.tainted_percent == 0.0


class TestFalsePositives:
    def _trace(self, layout, addresses, tainted):
        n = len(addresses)
        return AccessTrace(
            name="t",
            addresses=np.array(addresses, dtype=np.int64),
            sizes=np.ones(n, dtype=np.uint8),
            is_write=np.zeros(n, dtype=bool),
            tainted=np.array(tainted),
            gap_before=np.zeros(n, dtype=np.int64),
            active_epoch=np.array(tainted),
            layout=layout,
        )

    def test_footprint_multiplier_exact(self):
        # 16 tainted bytes in a 64-byte domain → 4x inflation at 64 B.
        layout = TaintLayout(extents=[(0x1000, 16)], accessed_pages={1})
        trace = self._trace(layout, [0x1000], [True])
        assert false_positive_multiplier(trace, 64) == pytest.approx(4.0)
        assert false_positive_multiplier(trace, 16) == pytest.approx(1.0)

    def test_footprint_grows_with_domain_size(self):
        layout = TaintLayout(
            extents=[(0x1000 + i * 128, 8) for i in range(8)],
            accessed_pages={1},
        )
        trace = self._trace(layout, [0x1000], [True])
        sweep = false_positive_sweep(trace, domain_sizes=(8, 64, 1024))
        assert sweep[8] <= sweep[64] <= sweep[1024]

    def test_events_mode(self):
        layout = TaintLayout(extents=[(0x1000, 8)], accessed_pages={1})
        trace = self._trace(
            layout,
            [0x1000, 0x1020, 0x2000],  # tainted, FP-in-domain, clean
            [True, False, False],
        )
        assert false_positive_multiplier(trace, 64, mode="events") == pytest.approx(2.0)

    def test_elements_mode_deduplicates(self):
        layout = TaintLayout(extents=[(0x1000, 8)], accessed_pages={1})
        trace = self._trace(
            layout,
            [0x1000, 0x1000, 0x1020],
            [True, True, False],
        )
        # Unique addresses: 0x1000 (tainted), 0x1020 (coarse FP) → 2/1.
        assert false_positive_multiplier(trace, 64, mode="elements") == pytest.approx(2.0)

    def test_nan_when_no_taint(self):
        layout = TaintLayout(extents=[], accessed_pages={1})
        trace = self._trace(layout, [0x1000], [False])
        assert false_positive_multiplier(trace, 64) != false_positive_multiplier(trace, 64)

    def test_unknown_mode_rejected(self):
        layout = TaintLayout(extents=[(0, 8)], accessed_pages={0})
        trace = self._trace(layout, [0], [True])
        with pytest.raises(ValueError):
            false_positive_multiplier(trace, 64, mode="bogus")

    def test_page_aligned_taint_has_multiplier_one(self):
        trace = WorkloadGenerator(get_profile("bzip2")).access_trace(50_000)
        sweep = false_positive_sweep(trace)
        for value in sweep.values():
            assert value == pytest.approx(1.0)
