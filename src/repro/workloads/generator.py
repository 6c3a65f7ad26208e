"""Synthesis of epoch streams, taint layouts, and access traces.

The generator turns a :class:`~repro.workloads.profiles.WorkloadProfile`
into concrete artefacts:

* :meth:`WorkloadGenerator.epoch_stream` — the temporal structure at
  program scale (the paper analyses 500 M-instruction windows; the
  default here is 100 M, which preserves every scale-invariant metric
  while keeping array sizes laptop-friendly — pass a larger total for
  full fidelity).  Epochs alternate taint-free / taint-active; the
  taint-free length mixture follows the profile's Figure 5 shape and
  the overall tainted-instruction fraction matches Tables 1/2.
* :meth:`WorkloadGenerator.layout` — tainted extents placed in an
  address space whose accessed/tainted page counts match Tables 3/4,
  with the intra-page run/gap structure that drives Figure 6.
* :meth:`WorkloadGenerator.access_trace` — a scaled window of
  individually addressed memory accesses consistent with the layout
  and the temporal structure, used by the cache simulations.

All sampling is vectorised and deterministic given (profile, seed).
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Tuple

import numpy as np

from repro.workloads.profiles import EPOCH_BUCKETS, WorkloadProfile
from repro.workloads.trace import (
    AccessTrace,
    EpochStream,
    PAGE_SIZE,
    TaintLayout,
)

#: Segment base addresses for page placement (virtual address space).
#: Scales used wherever a caller names none (``repro-run``,
#: ``repro-stats`` profile mode, runner job specs and the zoo
#: characterization): instructions per epoch stream, and the
#: memory-access window of an access trace.
DEFAULT_EPOCH_SCALE = 2_000_000
DEFAULT_TRACE_WINDOW = 50_000

_DATA_BASE_PAGE = 0x0010_0000 // PAGE_SIZE
_HEAP_BASE_PAGE = 0x0800_0000 // PAGE_SIZE
_STACK_BASE_PAGE = 0x7FF0_0000 // PAGE_SIZE

#: Memory coverage of the conventional 4 KB taint cache (one-byte tags
#: per 32-bit word): 4 KB of tags map 16 KB of memory.
_BASELINE_TCACHE_COVERAGE = 16 * 1024

#: How far the streaming taint focus advances per epoch when it stays on
#: the same buffer (bytes of tainted data consumed per epoch).  Small on
#: purpose: real programs revisit the same tainted words many times
#: before moving on, which is what keeps the tiny H-LATCH taint cache
#: warm (its measured miss rates in Table 6 are near zero).
_FOCUS_ADVANCE_BYTES = 2


def _seed_for(profile_name: str, seed: int) -> int:
    digest = hashlib.sha256(f"{profile_name}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class WorkloadGenerator:
    """Deterministic synthesiser for one workload profile.

    Subclasses (the service engines of
    :mod:`repro.workloads.engines`) customise the temporal structure by
    overriding :meth:`epoch_stream` and the spatial structure through
    the :meth:`_epoch_focus` / :meth:`_tainted_addresses` hooks and the
    :attr:`size_splits` mix, while inheriting the layout construction
    and the trace assembly invariants.
    """

    #: Access-size mix: cut points for P(size == 1) and P(size <= 2);
    #: the remainder are 4-byte word accesses.
    size_splits: Tuple[float, float] = (0.15, 0.25)

    def __init__(self, profile: WorkloadProfile, seed: int = 0) -> None:
        self.profile = profile
        self.seed = seed
        self._layout: Optional[TaintLayout] = None

    # ------------------------------------------------------------- layout

    def layout(self) -> TaintLayout:
        """The workload's taint layout (memoised)."""
        if self._layout is None:
            self._layout = self._build_layout()
        return self._layout

    def _build_layout(self) -> TaintLayout:
        profile = self.profile
        rng = np.random.default_rng(_seed_for(profile.name + ":layout", self.seed))

        pages = self._place_pages(profile.pages_accessed)
        tainted_pages = self._pick_tainted_pages(pages, profile.pages_tainted, rng)

        run = profile.taint_run_bytes
        gap = profile.taint_gap_bytes
        starts = tainted_pages.astype(np.int64) * PAGE_SIZE
        if run >= PAGE_SIZE or gap == 0:
            run = PAGE_SIZE
        else:
            # Gaps are heavy-tailed (log-normal around the profile mean):
            # tainted objects cluster, with occasional long clean
            # stretches, so coarse inflation keeps growing with domain
            # size instead of saturating at run+gap (Figure 6's "steady
            # degradation").  Each extent draws the jitter of its step;
            # a page draws as many as could fit, keeps the k that do,
            # then rewinds and redraws k so the stream stays exact.
            per_page = [np.empty(0, dtype=np.int64)]
            for base in starts.tolist():
                offset = int(rng.integers(0, gap + 1))
                state = rng.bit_generator.state
                most = max(0, -(-(PAGE_SIZE - offset) // (run + 1)))
                jitter = rng.lognormal(mean=-0.6, sigma=1.1, size=most)
                steps = run + np.maximum(1, np.rint(gap * jitter).astype(np.int64))
                offsets = offset + np.concatenate(([0], np.cumsum(steps[:-1])))
                offsets = offsets[offsets < PAGE_SIZE]
                rng.bit_generator.state = state
                rng.lognormal(mean=-0.6, sigma=1.1, size=len(offsets))
                per_page.append(base + offsets)
            starts = np.concatenate(per_page)
        lengths = np.minimum(run, PAGE_SIZE - starts % PAGE_SIZE)
        return TaintLayout(
            extents=np.column_stack((starts, lengths)),
            accessed_pages=set(pages.tolist()),
        )

    def _place_pages(self, count: int) -> np.ndarray:
        """Contiguous page runs in data/heap/stack segments."""
        data_count = max(1, count // 10)
        stack_count = max(1, count // 20)
        heap_count = max(1, count - data_count - stack_count)
        pages = np.concatenate(
            [
                np.arange(_DATA_BASE_PAGE, _DATA_BASE_PAGE + data_count),
                np.arange(_HEAP_BASE_PAGE, _HEAP_BASE_PAGE + heap_count),
                np.arange(_STACK_BASE_PAGE - stack_count, _STACK_BASE_PAGE),
            ]
        )
        return pages[:count] if len(pages) >= count else pages

    def _pick_tainted_pages(
        self, pages: np.ndarray, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        if count == 0:
            return np.empty(0, dtype=np.int64)
        heap_pages = pages[(pages >= _HEAP_BASE_PAGE) & (pages < _STACK_BASE_PAGE)]
        pool = heap_pages if len(heap_pages) >= count else pages
        # Contiguous cluster: input buffers sit together in memory, which
        # is the spatial locality LATCH exploits.
        start = int(rng.integers(0, max(1, len(pool) - count + 1)))
        return np.sort(pool[start : start + count])

    # -------------------------------------------------------- epoch stream

    def epoch_stream(self, total_instructions: int = 100_000_000) -> EpochStream:
        """Generate the alternating epoch structure (vectorised)."""
        profile = self.profile
        rng = np.random.default_rng(_seed_for(profile.name + ":epochs", self.seed))

        tainted_total = int(
            round(total_instructions * profile.taint_fraction / profile.taint_density)
        )
        tainted_total = min(tainted_total, total_instructions // 2)
        free_total = total_instructions - tainted_total

        free_lengths = self._free_epoch_lengths(free_total, rng)
        n_free = len(free_lengths)
        if tainted_total == 0 or n_free <= 1:
            lengths = free_lengths
            tainted_counts = np.zeros(len(lengths), dtype=np.int64)
            if tainted_total:
                lengths = np.append(lengths, tainted_total)
                tainted_counts = np.append(
                    tainted_counts,
                    max(1, int(tainted_total * profile.taint_density)),
                )
            return EpochStream(
                name=profile.name,
                lengths=lengths.astype(np.int64),
                tainted_counts=tainted_counts,
            )

        # Taint arrives in bursts of ~episode_marks tainted instructions
        # (a file read, a request); the episode count is also bounded by
        # the number of free/free boundaries and by the total budget.
        marks_budget = max(1, int(round(total_instructions * profile.taint_fraction)))
        episodes = max(1, marks_budget // max(1, profile.episode_marks))
        n_tainted = int(min(n_free - 1, tainted_total, episodes))

        tainted_lengths = self._split_total(tainted_total, n_tainted, rng)
        n_tainted = len(tainted_lengths)
        tainted_marks = np.minimum(
            np.maximum(
                1,
                np.round(tainted_lengths * profile.taint_density).astype(np.int64),
            ),
            tainted_lengths,
        )

        if n_tainted == n_free - 1:
            # Dense alternation: every free/free boundary hosts a taint
            # event (fragmented programs such as astar and apache).
            n_total = n_free + n_tainted
            lengths = np.empty(n_total, dtype=np.int64)
            tainted_counts = np.zeros(n_total, dtype=np.int64)
            lengths[0::2] = free_lengths
            lengths[1::2] = tainted_lengths
            tainted_counts[1::2] = tainted_marks
            return EpochStream(
                name=profile.name, lengths=lengths, tainted_counts=tainted_counts
            )
        return self._clustered_stream(
            free_lengths, tainted_lengths, tainted_marks, rng
        )

    def _clustered_stream(
        self,
        free_lengths: np.ndarray,
        tainted_lengths: np.ndarray,
        tainted_marks: np.ndarray,
        rng: np.random.Generator,
    ) -> EpochStream:
        """Arrange sparse taint events into bursts.

        Taint does not arrive as isolated single-instruction events evenly
        spread through execution: programs ingest untrusted data in
        bursts (a file read, a request), producing *clusters* of
        taint-active epochs separated by the shortest taint-free epochs,
        with the long taint-free epochs in between clusters.  This is the
        temporal-locality structure S-LATCH exploits (Figure 2): without
        it, a low-taint program would still pay thousands of
        hardware/software mode switches.
        """
        n_tainted = len(tainted_lengths)
        order = np.argsort(free_lengths)
        separators = free_lengths[order[: max(0, n_tainted - 1)]]
        background = free_lengths[order[max(0, n_tainted - 1):]]
        rng.shuffle(background)

        per_cluster = max(1, self.profile.cluster_size)
        n_clusters = max(1, min(len(background) - 1, n_tainted // per_cluster))
        cluster_sizes = np.bincount(
            rng.integers(0, n_clusters, size=n_tainted), minlength=n_clusters
        ).tolist()

        lengths_parts = []
        tainted_parts = []
        background_splits = np.array_split(background, n_clusters + 1)
        separator_cursor = 0
        event_cursor = 0
        for cluster_index in range(n_clusters):
            bg = background_splits[cluster_index]
            lengths_parts.append(bg)
            tainted_parts.append(np.zeros(len(bg), dtype=np.int64))
            count = cluster_sizes[cluster_index]
            if count == 0:
                continue
            t_lengths = tainted_lengths[event_cursor : event_cursor + count]
            t_marks = tainted_marks[event_cursor : event_cursor + count]
            seps = separators[separator_cursor : separator_cursor + count - 1]
            event_cursor += count
            separator_cursor += count - 1
            # Interleave: T s T s ... T
            size = 2 * count - 1
            chunk = np.empty(size, dtype=np.int64)
            marks = np.zeros(size, dtype=np.int64)
            chunk[0::2] = t_lengths
            chunk[1::2] = seps
            marks[0::2] = t_marks
            lengths_parts.append(chunk)
            tainted_parts.append(marks)
        tail = background_splits[n_clusters]
        lengths_parts.append(tail)
        tainted_parts.append(np.zeros(len(tail), dtype=np.int64))
        # Any unused separators (clusters that got zero events) rejoin the
        # background at the end.
        if separator_cursor < len(separators):
            rest = separators[separator_cursor:]
            lengths_parts.append(rest)
            tainted_parts.append(np.zeros(len(rest), dtype=np.int64))

        lengths = np.concatenate(lengths_parts)
        tainted_counts = np.concatenate(tainted_parts)
        keep = lengths > 0
        return EpochStream(
            name=self.profile.name,
            lengths=lengths[keep],
            tainted_counts=tainted_counts[keep],
        )

    def _free_epoch_lengths(
        self, free_total: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample taint-free epoch lengths matching the bucket weights."""
        parts: List[np.ndarray] = []
        # Cumulative rounding so the bucket budgets sum to free_total
        # exactly (independent per-bucket rounding loses instructions).
        cumulative_weight = 0.0
        spent = 0
        for (lo, hi), weight in zip(EPOCH_BUCKETS, self.profile.epoch_weights):
            cumulative_weight += weight
            target = int(round(free_total * cumulative_weight))
            budget = target - spent
            spent = target
            if budget <= 0:
                continue
            # Mean of exp(Uniform(ln lo, ln hi)) is (hi-lo)/ln(hi/lo).
            mean = (hi - lo) / np.log(hi / lo)
            collected = 0
            while collected < budget:
                remaining = budget - collected
                n_est = max(8, int(remaining / mean * 1.2))
                lengths = np.exp(
                    rng.uniform(np.log(lo), np.log(hi), n_est)
                ).astype(np.int64)
                np.clip(lengths, lo, hi - 1, out=lengths)
                cumulative = np.cumsum(lengths)
                cut = int(np.searchsorted(cumulative, remaining, side="left"))
                if cut >= len(lengths):
                    parts.append(lengths)
                    collected += int(cumulative[-1])
                    continue
                taken = lengths[: cut + 1].copy()
                overshoot = int(cumulative[cut]) - remaining
                taken[-1] -= overshoot
                if taken[-1] < lo and len(taken) > 1:
                    taken[-2] += taken[-1]
                    taken = taken[:-1]
                parts.append(taken)
                collected = budget
        if not parts:
            return np.array([free_total], dtype=np.int64) if free_total else np.empty(
                0, dtype=np.int64
            )
        lengths = np.concatenate(parts)
        rng.shuffle(lengths)
        return lengths

    @staticmethod
    def _split_total(
        total: int, parts: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Split ``total`` into at most ``parts`` positive integers.

        The result always sums to exactly ``total``: when
        ``total < parts`` the part count is clamped down to ``total``
        (``total`` ones) instead of padding with extra ones, which would
        silently inflate the instruction budget.  Callers that require a
        fixed part count must ensure ``total >= parts``.
        """
        if parts <= 0 or total <= 0:
            return np.empty(0, dtype=np.int64)
        if total <= parts:
            return np.ones(total, dtype=np.int64)
        weights = rng.exponential(1.0, parts)
        lengths = 1 + (weights / weights.sum() * (total - parts)).astype(np.int64)
        deficit = total - int(lengths.sum())
        if deficit > 0:
            lengths[:deficit] += 1
        while deficit < 0:
            # Defensive: the floor rounding above cannot overshoot, but
            # if it ever did, shave the largest entries so no correction
            # can drive an entry below 1 (sum > total >= parts implies
            # the maximum is at least 2).
            lengths[int(np.argmax(lengths))] -= 1
            deficit += 1
        return lengths

    # -------------------------------------------------------- access trace

    def access_trace(
        self,
        total_instructions: int = 500_000,
        layout: Optional[TaintLayout] = None,
    ) -> AccessTrace:
        """Generate a per-access window consistent with the profile.

        Epoch lengths are capped at half the window so the alternating
        structure survives scaling; the tainted-instruction fraction
        matches the profile's Table 1/2 value over the window.
        """
        profile = self.profile
        layout = layout if layout is not None else self.layout()
        rng = np.random.default_rng(_seed_for(profile.name + ":trace", self.seed))

        stream = self.epoch_stream(total_instructions=total_instructions)
        cap = max(1000, total_instructions // 2)
        epoch_lengths = np.minimum(stream.lengths, cap)
        epoch_tainted = np.minimum(stream.tainted_counts, epoch_lengths)
        if not len(layout.extents):
            # Degenerate profile: declared taint activity but no tainted
            # bytes anywhere — the trace must reflect the layout.
            epoch_tainted = np.zeros_like(epoch_tainted)

        # Per-epoch access counts: every tainted instruction is a memory
        # access into tainted data; clean instructions access memory at
        # the profile's rate.
        n_tainted_per_epoch = epoch_tainted
        n_clean_per_epoch = (
            (epoch_lengths - epoch_tainted) * profile.mem_access_fraction
        ).astype(np.int64)
        counts = n_tainted_per_epoch + n_clean_per_epoch
        keep = counts > 0
        epoch_lengths = epoch_lengths[keep]
        n_tainted_per_epoch = n_tainted_per_epoch[keep]
        n_clean_per_epoch = n_clean_per_epoch[keep]
        counts = counts[keep]

        total_accesses = int(counts.sum())
        if total_accesses == 0:
            empty = np.empty(0, dtype=np.int64)
            return AccessTrace(
                name=profile.name,
                addresses=empty,
                sizes=empty.astype(np.uint8),
                is_write=empty.astype(bool),
                tainted=empty.astype(bool),
                gap_before=empty.astype(np.int64),
                active_epoch=empty.astype(bool),
                layout=layout,
            )

        n_epochs = len(counts)
        pool = _AddressPool(profile, layout, rng)

        # Row order: for each epoch, its tainted accesses then its clean
        # accesses; a per-epoch shuffle interleaves them afterwards.
        epoch_of_access = np.repeat(np.arange(n_epochs), counts)
        tainted_flags = np.zeros(total_accesses, dtype=bool)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        tainted_index = (
            np.repeat(starts, n_tainted_per_epoch)
            + _ranges(n_tainted_per_epoch)
        )
        tainted_flags[tainted_index] = True

        addresses = np.empty(total_accesses, dtype=np.int64)
        focus_per_epoch = self._epoch_focus(pool, n_epochs, n_tainted_per_epoch, rng)
        n_taint_total = int(n_tainted_per_epoch.sum())
        if n_taint_total:
            addresses[tainted_flags] = self._tainted_addresses(
                pool, focus_per_epoch, n_tainted_per_epoch, rng
            )
        active_flags = np.repeat(n_tainted_per_epoch > 0, counts)
        n_clean_total = total_accesses - n_taint_total
        if n_clean_total:
            # Clean accesses inside taint-active epochs partly fall next
            # to the tainted focus (same working buffer): the source of
            # coarse false positives.  A (usually tiny) fraction of the
            # clean accesses in taint-FREE epochs also strays near the
            # tainted region — these become hardware-mode false positives
            # in S-LATCH (significant only for poor-spatial-locality
            # programs like astar).
            clean_epoch = epoch_of_access[~tainted_flags]
            in_active = n_tainted_per_epoch[clean_epoch] > 0
            draw = rng.random(n_clean_total)
            near = np.where(
                in_active,
                draw < profile.near_taint_fraction,
                draw < profile.free_near_taint_fraction,
            )
            clean_addresses = np.empty(n_clean_total, dtype=np.int64)
            n_near = int(near.sum())
            if n_near:
                clean_addresses[near] = pool.near_taint(
                    focus_per_epoch[clean_epoch[near]]
                )
            n_far = n_clean_total - n_near
            if n_far:
                clean_addresses[~near] = pool.clean(n_far)
            addresses[~tainted_flags] = clean_addresses

        # Shuffle within each epoch (stable across epochs).
        shuffle_key = rng.random(total_accesses)
        order = np.lexsort((shuffle_key, epoch_of_access))
        addresses = addresses[order]
        active_flags = active_flags[order]
        # Ground truth: the tainted flag is derived from the layout, so
        # it is correct even in degenerate fallback cases (e.g. a fully
        # tainted footprint forcing "clean" draws onto tainted bytes).
        # Any access that touches taint makes its epoch taint-active.
        tainted_flags = layout.bytes_tainted(addresses)
        active_flags = active_flags | tainted_flags

        sizes = np.array([1, 2, 4], dtype=np.uint8)[
            np.searchsorted(list(self.size_splits), rng.random(total_accesses))
        ]
        is_write = rng.random(total_accesses) < profile.write_fraction

        gap_totals = epoch_lengths - counts
        base_gap = gap_totals // counts
        remainder = gap_totals - base_gap * counts
        gap_before = np.repeat(base_gap, counts)
        first_of_epoch = np.concatenate(([0], np.cumsum(counts)[:-1]))
        gap_before[first_of_epoch] += remainder

        return AccessTrace(
            name=profile.name,
            addresses=addresses,
            sizes=sizes,
            is_write=is_write,
            tainted=tainted_flags,
            gap_before=gap_before,
            active_epoch=active_flags,
            layout=layout,
        )

    # ---------------------------------------------------- engine hooks

    def _epoch_focus(
        self,
        pool: "_AddressPool",
        n_epochs: int,
        n_tainted_per_epoch: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Per-epoch focus positions over the linear tainted byte space.

        The default is the streaming focus walk of the calibrated
        profiles; service engines override this with request-structured
        assignment (hot-key skew, buffer rings, per-image picks).
        """
        return pool.focus_walk(n_epochs)

    def _tainted_addresses(
        self,
        pool: "_AddressPool",
        focus_per_epoch: np.ndarray,
        n_tainted_per_epoch: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Addresses of every tainted access, in epoch order."""
        focus_of_access = np.repeat(focus_per_epoch, n_tainted_per_epoch)
        return pool.tainted(focus_of_access)


def _ranges(counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(c)`` for every c in ``counts`` (vectorised)."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    starts = ends - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


class _AddressPool:
    """Vectorised address sampling consistent with a taint layout."""

    def __init__(
        self,
        profile: WorkloadProfile,
        layout: TaintLayout,
        rng: np.random.Generator,
    ) -> None:
        self.profile = profile
        self.layout = layout
        self.rng = rng

        tainted_pages = layout.tainted_pages()
        all_pages = np.fromiter(
            sorted(layout.accessed_pages),
            dtype=np.int64,
            count=len(layout.accessed_pages),
        )
        if tainted_pages:
            tainted_array = np.fromiter(
                sorted(tainted_pages), dtype=np.int64, count=len(tainted_pages)
            )
            clean_mask = ~np.isin(all_pages, tainted_array)
        else:
            clean_mask = np.ones(len(all_pages), dtype=bool)
        self.clean_pages = all_pages[clean_mask]

        self.extent_starts = layout.extents[:, 0]
        self.extent_lengths = layout.extents[:, 1]

        # Clean gaps inside tainted pages (false-positive fuel).  One
        # entry per extent (possibly zero-length), so the arrays stay
        # index-aligned with the extents for focus-local sampling.
        run, gap = profile.taint_run_bytes, profile.taint_gap_bytes
        n_extents = len(self.extent_starts)
        if gap > 0 and run < PAGE_SIZE and n_extents:
            ends = self.extent_starts + self.extent_lengths
            next_starts = np.empty(n_extents, dtype=np.int64)
            next_starts[:-1] = self.extent_starts[1:]
            next_starts[-1] = np.iinfo(np.int64).max
            page_ends = (self.extent_starts // PAGE_SIZE + 1) * PAGE_SIZE
            gap_ends = np.minimum(next_starts, page_ends)
            self.gap_starts = ends
            self.gap_lengths = np.maximum(0, gap_ends - ends)
        else:
            self.gap_starts = np.empty(0, dtype=np.int64)
            self.gap_lengths = np.empty(0, dtype=np.int64)
        # Drop zero-length gaps so linear-position mapping stays bijective.
        nonzero = self.gap_lengths > 0
        self.gap_starts = self.gap_starts[nonzero]
        self.gap_lengths = self.gap_lengths[nonzero]

        # Linear byte-space views for streaming-focus sampling.
        self.taint_cum = np.cumsum(self.extent_lengths)
        self.taint_total = int(self.taint_cum[-1]) if len(self.taint_cum) else 0
        self.gap_cum = np.cumsum(self.gap_lengths)
        self.gap_total = int(self.gap_cum[-1]) if len(self.gap_cum) else 0

        self.hot_pages = self._choose_hot_pages()
        self.p_hot = self._derive_hot_fraction()

    def _choose_hot_pages(self) -> np.ndarray:
        """Pages for the hot working set — clean pages only.

        When (almost) every page is tainted there is no clean page to
        keep hot; :meth:`clean` then routes everything through
        :meth:`_cold`, which knows how to sample clean gap bytes.
        """
        pool = self.clean_pages
        return pool[: max(0, min(2, len(pool)))]

    def _derive_hot_fraction(self) -> float:
        """Back out the hot-set probability from the target baseline miss.

        A conventional taint cache covering C bytes over a footprint of F
        bytes hits hot-set accesses (the hot set fits in C) and misses
        cold accesses with probability ≈ 1 − C/F, so
        ``miss ≈ (1 − p_hot) · (1 − C/F)``.
        """
        target = self.profile.baseline_tcache_miss_percent / 100.0
        footprint = max(1, len(self.layout.accessed_pages)) * PAGE_SIZE
        cold_miss = max(0.02, 1.0 - _BASELINE_TCACHE_COVERAGE / footprint)
        p_cold = min(1.0, target / cold_miss)
        return 1.0 - p_cold

    # ------------------------------------------------------------ sampling

    def focus_walk(self, count: int) -> np.ndarray:
        """Per-epoch focus positions over the tainted byte space.

        The focus is a streaming cursor: consecutive taint-active epochs
        keep working on the same tainted buffer (advancing slowly through
        it) with probability ``1 − focus_switch_prob``, and jump to a new
        random position otherwise.  This cross-epoch persistence is what
        keeps the CTC and the tiny H-LATCH taint cache warm.
        """
        if self.taint_total == 0 or count == 0:
            return np.zeros(count, dtype=np.int64)
        switches = self.rng.random(count) < self.profile.focus_switch_prob
        increments = np.where(
            switches,
            self.rng.exponential(self.profile.focus_jump_bytes, size=count),
            float(_FOCUS_ADVANCE_BYTES),
        ).astype(np.int64)
        start = int(self.rng.integers(0, self.taint_total))
        return (start + np.cumsum(increments)) % self.taint_total

    def tainted(self, focus_of_access: np.ndarray) -> np.ndarray:
        """Addresses of tainted-byte accesses within the focus window."""
        count = len(focus_of_access)
        if self.taint_total == 0:
            return self.clean(count)
        window = min(max(1, self.profile.taint_window_bytes), self.taint_total)
        positions = (
            focus_of_access + self.rng.integers(0, window, size=count)
        ) % self.taint_total
        return self._map_positions(
            positions, self.extent_starts, self.extent_lengths, self.taint_cum
        )

    def near_taint(self, focus_of_access: np.ndarray) -> np.ndarray:
        """Clean addresses adjacent to the tainted focus (FP fuel)."""
        count = len(focus_of_access)
        if self.gap_total == 0 or self.taint_total == 0:
            # No clean bytes near taint (page-aligned layouts): the
            # buffer's neighbourhood is entirely tainted, so the clean
            # traffic goes to the ordinary working set instead.
            return self.clean(count)
        # Project the taint-space focus onto the gap space so the clean
        # neighbours track the same buffer region.  The window is capped:
        # clean traffic near taint clusters just as tightly as the taint
        # traffic itself (same working buffer).
        scale = self.gap_total / self.taint_total
        window = min(
            max(1, int(self.profile.taint_window_bytes * scale)),
            96,
            self.gap_total,
        )
        positions = (
            (focus_of_access * scale).astype(np.int64)
            + self.rng.integers(0, window, size=count)
        ) % self.gap_total
        return self._map_positions(
            positions, self.gap_starts, self.gap_lengths, self.gap_cum
        )

    @staticmethod
    def _map_positions(
        positions: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        cumulative: np.ndarray,
    ) -> np.ndarray:
        """Map linear byte positions back to addresses."""
        slots = np.searchsorted(cumulative, positions, side="right")
        offsets = positions - (cumulative[slots] - lengths[slots])
        return starts[slots] + offsets

    def clean(self, count: int) -> np.ndarray:
        """Addresses of clean-byte accesses (hot set + cold footprint)."""
        if len(self.hot_pages) == 0:
            return self._cold(count)
        hot = self.rng.random(count) < self.p_hot
        out = np.empty(count, dtype=np.int64)
        n_hot = int(hot.sum())
        if n_hot:
            pages = self.rng.choice(self.hot_pages, size=n_hot)
            out[hot] = pages * PAGE_SIZE + self.rng.integers(
                0, PAGE_SIZE - 8, size=n_hot
            )
        n_cold = count - n_hot
        if n_cold:
            out[~hot] = self._cold(n_cold)
        return out

    def _cold(self, count: int) -> np.ndarray:
        """Cold accesses over the clean pages of the footprint.

        Cold traffic deliberately avoids the tainted pages' gap bytes:
        programs touch the neighbourhood of tainted data while working
        on it (modelled by :meth:`near_taint`), not as part of unrelated
        cold traffic — otherwise the coarse-check false-positive rate
        would be inflated far beyond what the paper observes.
        """
        if len(self.clean_pages) == 0:
            if self.gap_total:
                positions = self.rng.integers(0, self.gap_total, size=count)
                return self._map_positions(
                    positions, self.gap_starts, self.gap_lengths, self.gap_cum
                )
            # Everything is tainted (degenerate); sample the tainted space.
            return self.tainted(np.zeros(count, dtype=np.int64))
        pages = self.rng.choice(self.clean_pages, size=count)
        return pages * PAGE_SIZE + self.rng.integers(0, PAGE_SIZE - 8, size=count)
