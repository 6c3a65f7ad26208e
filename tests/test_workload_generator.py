"""Workload generator tests: calibration, consistency, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.generator import WorkloadGenerator, _ranges
from repro.workloads.profiles import get_profile
from repro.workloads.trace import PAGE_SIZE


class TestLayout:
    def test_page_counts_match_profile(self):
        for name in ("astar", "hmmer", "curl"):
            profile = get_profile(name)
            layout = WorkloadGenerator(profile).layout()
            assert len(layout.accessed_pages) == profile.pages_accessed, name
            assert len(layout.tainted_pages()) == profile.pages_tainted, name

    def test_tainted_pages_subset_of_accessed(self):
        layout = WorkloadGenerator(get_profile("gcc")).layout()
        assert layout.tainted_pages() <= layout.accessed_pages

    def test_extents_sorted_and_nonoverlapping(self):
        layout = WorkloadGenerator(get_profile("perlbench")).layout()
        previous_end = -1
        for start, length in layout.extents:
            assert start > previous_end
            assert length > 0
            previous_end = start + length - 1

    def test_page_aligned_profiles_fully_taint_pages(self):
        layout = WorkloadGenerator(get_profile("bzip2")).layout()
        for start, length in layout.extents:
            assert start % PAGE_SIZE == 0
            assert length == PAGE_SIZE

    def test_layout_memoised(self):
        generator = WorkloadGenerator(get_profile("gcc"))
        assert generator.layout() is generator.layout()

    def test_deterministic_given_seed(self):
        a = WorkloadGenerator(get_profile("gcc"), seed=3).layout()
        b = WorkloadGenerator(get_profile("gcc"), seed=3).layout()
        assert np.array_equal(a.extents, b.extents)

    def test_different_seeds_differ(self):
        a = WorkloadGenerator(get_profile("gcc"), seed=1).layout()
        b = WorkloadGenerator(get_profile("gcc"), seed=2).layout()
        assert not np.array_equal(a.extents, b.extents)


class TestEpochStream:
    @pytest.mark.parametrize("name", ["astar", "bzip2", "apache", "curl"])
    def test_total_instructions_exact(self, name):
        stream = WorkloadGenerator(get_profile(name)).epoch_stream(2_000_000)
        assert stream.total_instructions == 2_000_000

    @pytest.mark.parametrize("name", ["astar", "gcc", "sphinx", "apache-50"])
    def test_taint_fraction_calibrated(self, name):
        profile = get_profile(name)
        stream = WorkloadGenerator(profile).epoch_stream(20_000_000)
        measured = 100 * stream.tainted_fraction
        assert measured == pytest.approx(profile.taint_percent, rel=0.35)

    def test_tainted_counts_bounded_by_lengths(self):
        stream = WorkloadGenerator(get_profile("soplex")).epoch_stream(1_000_000)
        assert (stream.tainted_counts <= stream.lengths).all()

    def test_all_lengths_positive(self):
        stream = WorkloadGenerator(get_profile("mySQL")).epoch_stream(1_000_000)
        assert (stream.lengths > 0).all()

    def test_zero_taint_profile_would_be_all_free(self):
        import dataclasses

        profile = dataclasses.replace(get_profile("gcc"), taint_percent=0.0)
        stream = WorkloadGenerator(profile).epoch_stream(100_000)
        assert stream.tainted_instructions == 0

    def test_deterministic(self):
        a = WorkloadGenerator(get_profile("lbm"), seed=5).epoch_stream(500_000)
        b = WorkloadGenerator(get_profile("lbm"), seed=5).epoch_stream(500_000)
        assert (a.lengths == b.lengths).all()
        assert (a.tainted_counts == b.tainted_counts).all()

    def test_fragmented_profile_has_more_epochs(self):
        astar = WorkloadGenerator(get_profile("astar")).epoch_stream(2_000_000)
        bzip2 = WorkloadGenerator(get_profile("bzip2")).epoch_stream(2_000_000)
        assert astar.epoch_count > bzip2.epoch_count * 5


class TestAccessTrace:
    def test_arrays_aligned(self):
        trace = WorkloadGenerator(get_profile("gcc")).access_trace(100_000)
        n = trace.access_count
        assert len(trace.sizes) == len(trace.is_write) == n
        assert len(trace.tainted) == len(trace.gap_before) == n
        assert len(trace.active_epoch) == n

    def test_total_instructions_close_to_request(self):
        trace = WorkloadGenerator(get_profile("gcc")).access_trace(100_000)
        assert trace.total_instructions == pytest.approx(100_000, rel=0.2)

    def test_tainted_flags_agree_with_layout(self):
        trace = WorkloadGenerator(get_profile("soplex")).access_trace(50_000)
        layout = trace.layout
        tainted_indices = np.flatnonzero(trace.tainted)[:300]
        for index in tainted_indices:
            assert layout.byte_is_tainted(int(trace.addresses[index]))

    def test_clean_flags_agree_with_layout(self):
        trace = WorkloadGenerator(get_profile("soplex")).access_trace(50_000)
        layout = trace.layout
        clean_indices = np.flatnonzero(~trace.tainted)[:300]
        for index in clean_indices:
            assert not layout.byte_is_tainted(int(trace.addresses[index]))

    def test_tainted_accesses_only_in_active_epochs(self):
        trace = WorkloadGenerator(get_profile("apache")).access_trace(100_000)
        assert not (trace.tainted & ~trace.active_epoch).any()

    def test_trace_taint_fraction_tracks_profile(self):
        profile = get_profile("sphinx")
        trace = WorkloadGenerator(profile).access_trace(300_000)
        fraction = trace.tainted_access_count / trace.total_instructions
        assert 100 * fraction == pytest.approx(profile.taint_percent, rel=0.3)

    def test_sizes_are_valid(self):
        trace = WorkloadGenerator(get_profile("gcc")).access_trace(50_000)
        assert set(np.unique(trace.sizes)) <= {1, 2, 4}

    def test_deterministic(self):
        a = WorkloadGenerator(get_profile("wget"), seed=9).access_trace(50_000)
        b = WorkloadGenerator(get_profile("wget"), seed=9).access_trace(50_000)
        assert (a.addresses == b.addresses).all()

    def test_addresses_within_footprint_or_taint(self):
        trace = WorkloadGenerator(get_profile("hmmer")).access_trace(50_000)
        pages = trace.layout.accessed_pages | trace.layout.tainted_pages()
        access_pages = set((trace.addresses // PAGE_SIZE).tolist())
        assert access_pages <= pages


class TestHelpers:
    @given(
        st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=30)
    )
    def test_ranges_concatenates_aranges(self, counts):
        counts_array = np.array(counts, dtype=np.int64)
        result = _ranges(counts_array)
        expected = np.concatenate(
            [np.arange(c, dtype=np.int64) for c in counts]
        ) if sum(counts) else np.empty(0, dtype=np.int64)
        assert (result == expected).all()

    @settings(max_examples=100)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_split_total_properties(self, total, parts, seed):
        result = WorkloadGenerator._split_total(
            total, parts, np.random.default_rng(seed)
        )
        if total <= 0 or parts <= 0:
            assert len(result) == 0
            return
        # The split must account for exactly the requested budget: the
        # pre-fix implementation returned ``parts`` ones when
        # ``total <= parts`` (summing to ``parts``, over-counting).
        assert int(result.sum()) == total
        assert (result >= 1).all()
        assert len(result) == min(total, parts)

    def test_split_total_edge_grid(self):
        # Deterministic sweep of the (total, parts) boundary lattice:
        # equality, off-by-one on either side, and degenerate inputs.
        edges = [0, 1, 2, 3, 4, 5, 7, 8, 31, 32, 33, 200, 201]
        for total in edges:
            for parts in edges:
                result = WorkloadGenerator._split_total(
                    total, parts, np.random.default_rng(1234)
                )
                if total <= 0 or parts <= 0:
                    assert len(result) == 0, (total, parts)
                    continue
                assert int(result.sum()) == total, (total, parts)
                assert (result >= 1).all(), (total, parts)
