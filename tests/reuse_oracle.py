"""Reuse-distance (LRU stack distance) analysis: an independent LRU oracle.

The temporal locality LATCH exploits shows up quantitatively as short
reuse distances: the number of *distinct* cache granules touched between
two accesses to the same granule.  For a fully associative LRU cache of
C lines, an access hits **iff** its reuse distance is < C (Mattson's
inclusion property) — so the histogram computed here predicts the hit
rate of every LRU capacity at once.  That makes it an oracle for the
replay's run-compressed :class:`~repro.kernels.lru.LruState` at the CTC
and TLB capacities, and for the CTC hit rate ``run_hlatch`` measures,
from an algorithm that shares no code with either.

The implementation is the classical O(n log n) algorithm: a Fenwick
tree marks each granule's most recent access position; the number of
marked positions after a granule's previous access is its distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

#: Distance assigned to first-touch (compulsory) accesses.
COLD = -1


class _FenwickTree:
    """Binary indexed tree over access positions (1-based)."""

    def __init__(self, size: int) -> None:
        self._tree = [0] * (size + 1)
        self._size = size

    def add(self, index: int, delta: int) -> None:
        index += 1
        while index <= self._size:
            self._tree[index] += delta
            index += index & (-index)

    def prefix_sum(self, index: int) -> int:
        index += 1
        total = 0
        while index > 0:
            total += self._tree[index]
            index -= index & (-index)
        return total

    def range_sum(self, low: int, high: int) -> int:
        """Sum over positions in (low, high] (exclusive low)."""
        return self.prefix_sum(high) - self.prefix_sum(low)


def reuse_distances(
    addresses: np.ndarray, granularity: int = 16
) -> np.ndarray:
    """LRU stack distance of each access at the given line granularity.

    Returns an int64 array aligned with ``addresses``; first touches get
    :data:`COLD` (−1).
    """
    if granularity < 1:
        raise ValueError("granularity must be positive")
    n = len(addresses)
    granules = np.asarray(addresses, dtype=np.int64) // granularity
    distances = np.empty(n, dtype=np.int64)
    tree = _FenwickTree(n)
    last_position: Dict[int, int] = {}
    for position in range(n):
        granule = int(granules[position])
        previous = last_position.get(granule)
        if previous is None:
            distances[position] = COLD
        else:
            distances[position] = tree.range_sum(previous, position - 1)
            tree.add(previous, -1)
        tree.add(position, 1)
        last_position[granule] = position
    return distances


def lru_hit_rate(distances: np.ndarray, capacity_lines: int) -> float:
    """Predicted hit rate of a fully associative LRU cache.

    An access hits iff its reuse distance is strictly below the
    capacity; cold accesses always miss.
    """
    if len(distances) == 0:
        return 0.0
    hits = np.count_nonzero(
        (distances >= 0) & (distances < capacity_lines)
    )
    return hits / len(distances)


@dataclass
class ReuseProfile:
    """Summary of a trace's reuse behaviour at one granularity."""

    granularity: int
    accesses: int
    cold_fraction: float
    median_distance: float
    histogram: Dict[str, int]

    @classmethod
    def from_distances(
        cls,
        distances: np.ndarray,
        granularity: int,
        bin_edges: Sequence[int] = (1, 4, 16, 64, 256, 1024),
    ) -> "ReuseProfile":
        """Bucket distances into powers-of-course bins."""
        n = len(distances)
        warm = distances[distances >= 0]
        histogram: Dict[str, int] = {}
        previous = 0
        for edge in bin_edges:
            histogram[f"<{edge}"] = int(
                ((warm >= previous) & (warm < edge)).sum()
            )
            previous = edge
        histogram[f">={previous}"] = int((warm >= previous).sum())
        histogram["cold"] = int(n - len(warm))
        return cls(
            granularity=granularity,
            accesses=n,
            cold_fraction=(n - len(warm)) / n if n else 0.0,
            median_distance=float(np.median(warm)) if len(warm) else 0.0,
            histogram=histogram,
        )
