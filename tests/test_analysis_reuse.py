"""Reuse-distance tests, including equivalence with the LRU cache model
and, by Mattson's inclusion property, with the replay's LRU core."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.reuse_oracle import (
    COLD,
    ReuseProfile,
    lru_hit_rate,
    reuse_distances,
)
from repro.kernels.lru import LruState, run_boundaries
from repro.mem.cache import SetAssociativeCache


class TestDistances:
    def test_first_touch_is_cold(self):
        distances = reuse_distances(np.array([0, 16, 32]), granularity=16)
        assert (distances == COLD).all()

    def test_immediate_reuse_distance_zero(self):
        distances = reuse_distances(np.array([0, 0]), granularity=16)
        assert distances[1] == 0

    def test_one_intervening_granule(self):
        distances = reuse_distances(np.array([0, 16, 0]), granularity=16)
        assert distances[2] == 1

    def test_duplicate_intervening_counts_once(self):
        # A B B A: only one distinct granule between the As.
        distances = reuse_distances(np.array([0, 16, 16, 0]), granularity=16)
        assert distances[3] == 1

    def test_same_line_different_bytes(self):
        distances = reuse_distances(np.array([0, 5, 15]), granularity=16)
        assert distances[1] == 0 and distances[2] == 0

    def test_granularity_validation(self):
        with pytest.raises(ValueError):
            reuse_distances(np.array([0]), granularity=0)


class TestHitRate:
    def test_cold_accesses_never_hit(self):
        distances = np.array([COLD, COLD, 0, 5])
        assert lru_hit_rate(distances, capacity_lines=8) == pytest.approx(0.5)

    def test_capacity_threshold(self):
        distances = np.array([3, 4])
        assert lru_hit_rate(distances, 4) == pytest.approx(0.5)
        assert lru_hit_rate(distances, 5) == pytest.approx(1.0)

    def test_empty(self):
        assert lru_hit_rate(np.array([], dtype=np.int64), 4) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=0x7FF),
            min_size=1,
            max_size=250,
        ),
        st.integers(min_value=1, max_value=32),
    )
    def test_predicts_fully_associative_lru_exactly(self, addresses, capacity):
        """The stack-distance prediction equals a real LRU simulation."""
        array = np.array(addresses, dtype=np.int64)
        distances = reuse_distances(array, granularity=16)
        predicted = lru_hit_rate(distances, capacity)

        cache = SetAssociativeCache(num_sets=1, ways=capacity, line_size=16)
        for address in addresses:
            cache.access(int(address))
        simulated = cache.stats.hit_rate
        assert predicted == pytest.approx(simulated)


class TestProfile:
    def test_histogram_partitions_accesses(self):
        trace = np.array([0, 0, 16, 0, 512, 0] * 10, dtype=np.int64)
        distances = reuse_distances(trace, granularity=16)
        profile = ReuseProfile.from_distances(distances, granularity=16)
        assert sum(profile.histogram.values()) == profile.accesses
        assert 0.0 <= profile.cold_fraction <= 1.0

    def test_workload_locality_ordering(self):
        """Hot-loop traffic has shorter reuse distances than scans."""
        hot = np.tile(np.arange(0, 64, 4, dtype=np.int64), 50)
        scan = np.arange(0, 12800, 4, dtype=np.int64)
        hot_profile = ReuseProfile.from_distances(
            reuse_distances(hot, 16), 16
        )
        scan_profile = ReuseProfile.from_distances(
            reuse_distances(scan, 16), 16
        )
        assert hot_profile.cold_fraction < scan_profile.cold_fraction


#: The fully associative structures the replay runs through LruState:
#: the H-LATCH CTC (16 one-word lines) and the TLB (128 entries).
CTC_ENTRIES = 16
TLB_ENTRIES = 128


def _lru_state_hits(ids, capacity, cuts):
    """Hits of ``ids`` fed through one LruState, chunk by chunk, the way
    the replay merge feeds shard runs."""
    state = LruState(ways=capacity)
    edges = [0, *sorted({c for c in cuts if 0 < c < len(ids)}), len(ids)]
    hits = 0
    for start, stop in zip(edges, edges[1:]):
        runs, _ = run_boundaries(ids[start:stop])
        boundary = state.apply_runs(runs.tolist())
        hits += (stop - start - len(runs)) + boundary.hits
    return hits


class TestMattsonInclusion:
    """A fully associative LRU access hits iff its reuse distance is
    below the capacity, so the Fenwick distances predict LruState's hit
    count exactly — whole or split into chunks."""

    @settings(max_examples=60, deadline=None)
    @given(
        ids=st.lists(
            # Small alphabets make CTC-scale reuse likely; wide ones
            # push distances past the TLB's 128 entries.
            st.one_of(st.integers(0, 24), st.integers(0, 400)),
            max_size=600,
        ),
        capacity=st.sampled_from([CTC_ENTRIES, TLB_ENTRIES]),
        cuts=st.lists(st.integers(0, 600), max_size=5),
    )
    def test_lru_state_hits_match_reuse_distances(self, ids, capacity, cuts):
        array = np.array(ids, dtype=np.int64)
        distances = reuse_distances(array, granularity=1)
        predicted = int(np.count_nonzero(
            (distances >= 0) & (distances < capacity)
        ))
        assert _lru_state_hits(array, capacity, ()) == predicted
        assert _lru_state_hits(array, capacity, cuts) == predicted

    def test_capacity_edge_is_exact(self):
        # A cyclic sweep over exactly `capacity` ids hits from the second
        # lap on; one more id than the capacity never hits under LRU.
        for capacity in (CTC_ENTRIES, TLB_ENTRIES):
            fits = np.tile(np.arange(capacity, dtype=np.int64), 3)
            spills = np.tile(np.arange(capacity + 1, dtype=np.int64), 3)
            assert _lru_state_hits(fits, capacity, (capacity + 3,)) == (
                2 * capacity
            )
            assert _lru_state_hits(spills, capacity, (5,)) == 0
            assert lru_hit_rate(
                reuse_distances(spills, granularity=1), capacity
            ) == 0.0
