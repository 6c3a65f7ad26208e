"""Service-shaped workload engines: the production workload zoo.

The calibrated profiles of :mod:`repro.workloads.profiles` reproduce
the paper's batch benchmarks; production DIFT checkers are judged on
*service* traffic.  This module synthesises that traffic on top of the
same ``EpochStream`` / ``AccessTrace`` / ``TaintLayout`` vocabulary, so
every downstream consumer (``repro-run``, ``repro-stats``,
``repro-check``, the ``repro-serve`` loadgen) works unchanged:

* :class:`ServiceWorkload` — request-structured base: epochs mirror
  request handling (a taint-active handling epoch per request,
  inter-arrival think time between them), and tainted accesses target
  per-request buffers instead of a streaming focus walk.
* :class:`KeyValueWorkload` (``kv-cache``) — memcached-like GET/SET
  mixes with Zipf hot-key skew over the value slabs.
* :class:`RequestParseWorkload` (``http-parse``) — nginx/curl-like
  header scans: byte-sequential taint bursts over a recycled buffer
  ring.
* :class:`ImageLoadWorkload` (``img-serve``) — large clean bodies with
  small tainted metadata blocks at page heads (near-taint FP fuel).
* :class:`TraceReplayWorkload` — replays a recorded ``.ltrace``
  columnar container (:mod:`repro.trace`) as a workload source, with a
  profile synthesised from the recorded stream.
* :class:`DynamicWorkload` — phase-shifts any engine through a
  :class:`PhaseSchedule` (bursty waves, a compressed diurnal cycle, or
  a taint-storm adversary that multiplies the taint rate mid-run).

Every engine is deterministic by ``(profile, seed)`` and registers as a
named profile: :func:`make_generator` is the single dispatch point the
runner, the stats CLI, and the suites use.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from repro.workloads.generator import (
    DEFAULT_EPOCH_SCALE,
    WorkloadGenerator,
    _AddressPool,
    _ranges,
    _seed_for,
)
from repro.workloads.profiles import EPOCH_BUCKETS, WorkloadProfile
from repro.workloads.trace import (
    AccessTrace,
    EpochStream,
    PAGE_SIZE,
    TaintLayout,
)

#: Workload-name prefix that routes :func:`make_generator` to a
#: recorded-trace replay: ``ltrace:path/to/trace.ltrace``.
LTRACE_PREFIX = "ltrace:"

#: Epoch-weight fallback for synthesised replay profiles whose recorded
#: window has no taint-free epochs to histogram.
_REPLAY_EPOCHS = (0.05, 0.15, 0.30, 0.30, 0.15, 0.05)


# ------------------------------------------------------ phase schedules


@dataclass(frozen=True)
class Phase:
    """One segment of a :class:`PhaseSchedule`.

    ``span`` is the fraction of the run (instructions for generators,
    wall clock for the loadgen) the phase occupies; ``intensity``
    multiplies the request rate and ``taint_scale`` the tainted
    fraction while it lasts.
    """

    name: str
    span: float
    intensity: float = 1.0
    taint_scale: float = 1.0


@dataclass(frozen=True)
class PhaseSchedule:
    """An ordered partition of a run into load phases."""

    name: str
    phases: Tuple[Phase, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("a schedule needs at least one phase")
        for phase in self.phases:
            if phase.span <= 0:
                raise ValueError(f"phase {phase.name!r} span must be > 0")
            if phase.intensity < 0 or phase.taint_scale < 0:
                raise ValueError(
                    f"phase {phase.name!r} intensity/taint_scale must be >= 0"
                )
        total = sum(phase.span for phase in self.phases)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"phase spans must sum to 1 (got {total})")

    def mean_taint_scale(self) -> float:
        """Span-weighted taint multiplier (the schedule's steady state)."""
        return sum(p.span * p.taint_scale for p in self.phases)

    def split_budget(self, total: int) -> List[int]:
        """Largest-remainder apportionment of ``total`` across phases."""
        raw = [phase.span * total for phase in self.phases]
        budget = [int(value) for value in raw]
        leftover = total - sum(budget)
        order = sorted(
            range(len(raw)), key=lambda i: raw[i] - budget[i], reverse=True
        )
        for index in order[:leftover]:
            budget[index] += 1
        return budget

    def offsets(self, clients: int, window: float, rng) -> List[float]:
        """Client arrival offsets over ``window`` seconds.

        Clients are apportioned to phases by ``span * intensity``
        (largest remainder, so the count is exact) and arrive uniformly
        within their phase's slice of the window.  ``rng`` is a
        ``random.Random`` — the loadgen's seeded source.
        """
        weights = [phase.span * phase.intensity for phase in self.phases]
        scale = sum(weights)
        if scale <= 0:
            weights = [phase.span for phase in self.phases]
            scale = sum(weights)
        raw = [clients * weight / scale for weight in weights]
        counts = [int(value) for value in raw]
        leftover = clients - sum(counts)
        order = sorted(
            range(len(raw)), key=lambda i: raw[i] - counts[i], reverse=True
        )
        for index in order[:leftover]:
            counts[index] += 1
        offsets: List[float] = []
        start = 0.0
        for phase, count in zip(self.phases, counts):
            width = phase.span * window
            offsets.extend(start + rng.random() * width for _ in range(count))
            start += width
        return offsets


def bursty_schedule(
    waves: int = 4, duty: float = 0.3, surge: float = 4.0
) -> PhaseSchedule:
    """Tight request waves separated by near-idle gaps."""
    span = 1.0 / waves
    phases = []
    for wave in range(waves):
        phases.append(Phase(
            f"surge{wave}", span * duty, intensity=surge, taint_scale=1.5,
        ))
        phases.append(Phase(
            f"idle{wave}", span * (1.0 - duty), intensity=0.25,
            taint_scale=0.5,
        ))
    return PhaseSchedule("bursty", tuple(phases))


def diurnal_schedule(buckets: int = 6) -> PhaseSchedule:
    """A day's raised-cosine load compressed into the run window."""
    span = 1.0 / buckets
    phases = []
    for bucket in range(buckets):
        midpoint = (bucket + 0.5) / buckets
        daytime = 0.5 - 0.5 * math.cos(2.0 * math.pi * midpoint)
        intensity = round(0.1 + 0.9 * daytime, 6)
        phases.append(Phase(
            f"hour{bucket}", span, intensity=intensity,
            taint_scale=round(0.5 + daytime, 6),
        ))
    return PhaseSchedule("diurnal", tuple(phases))


def storm_schedule(
    storm_span: float = 0.2, surge: float = 8.0
) -> PhaseSchedule:
    """Taint-storm adversary: a mid-run burst of hostile input."""
    calm = (1.0 - storm_span) / 2.0
    return PhaseSchedule("storm", (
        Phase("calm-in", calm, intensity=1.0),
        Phase("storm", storm_span, intensity=3.0, taint_scale=surge),
        Phase("calm-out", calm, intensity=1.0),
    ))


# ---------------------------------------------------------- service base


class ServiceWorkload(WorkloadGenerator):
    """Request-structured generator: epochs mirror request handling.

    The temporal structure is a request plan instead of the Figure 5
    bucket mixture: each request contributes one taint-active handling
    epoch (its tainted payload) and the taint-free epochs are the
    inter-arrival think time, with burst structure from
    :attr:`burst_requests` / :attr:`idle_factor`.  The spatial
    structure replaces the streaming focus walk with per-request buffer
    assignment (:attr:`assignment`) and an intra-buffer scan pattern
    (:attr:`scan`).
    """

    family = "service"

    #: How successive requests pick their tainted extent: ``"zipf"``
    #: (hot-key skew), ``"ring"`` (recycled buffer pool), ``"uniform"``.
    assignment = "uniform"
    #: How tainted accesses walk the chosen extent: ``"uniform"`` or
    #: ``"sequential"`` (header-scan style).
    scan = "uniform"
    #: Requests per connection burst: the first inter-arrival gap of
    #: each burst is a long idle (``idle_factor`` times heavier).
    burst_requests = 8
    #: Weight multiplier for burst-boundary gaps.
    idle_factor = 40.0
    #: Log-normal sigma of the inter-arrival gap weights.
    gap_sigma = 0.8
    #: Zipf skew exponent for the ``"zipf"`` assignment.
    zipf_alpha = 1.1

    # ----------------------------------------------------- epoch stream

    def epoch_stream(self, total_instructions: int = 100_000_000) -> EpochStream:
        profile = self.profile
        rng = np.random.default_rng(
            _seed_for(profile.name + ":requests", self.seed)
        )
        lengths, marks = self._request_epochs(total_instructions, rng)
        return EpochStream(
            name=profile.name, lengths=lengths, tainted_counts=marks
        )

    def _request_epochs(
        self, total: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The request plan: interleaved gaps and handling epochs."""
        profile = self.profile
        tainted_total = int(
            round(total * profile.taint_fraction / profile.taint_density)
        )
        tainted_total = min(tainted_total, total // 2)
        if tainted_total <= 0:
            return (
                np.array([max(1, total)], dtype=np.int64),
                np.zeros(1, dtype=np.int64),
            )
        free_total = total - tainted_total

        marks_budget = max(1, int(round(total * profile.taint_fraction)))
        target = max(1, marks_budget // max(1, profile.episode_marks))
        handles = self._split_total(
            tainted_total, int(min(tainted_total, target)), rng
        )
        n_requests = len(handles)
        marks = np.minimum(
            np.maximum(
                1, np.round(handles * profile.taint_density).astype(np.int64)
            ),
            handles,
        )
        gaps = self._interarrival_gaps(free_total, n_requests + 1, rng)

        # Interleave: gap0 H0 gap1 H1 ... H(n-1) gapN; zero-length gaps
        # (back-to-back requests on one connection) are dropped.
        n_epochs = 2 * n_requests + 1
        lengths = np.empty(n_epochs, dtype=np.int64)
        counts = np.zeros(n_epochs, dtype=np.int64)
        lengths[0::2] = gaps
        lengths[1::2] = handles
        counts[1::2] = marks
        keep = lengths > 0
        return lengths[keep], counts[keep]

    def _interarrival_gaps(
        self, free_total: int, n_gaps: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Exact-sum split of the think time across arrival gaps."""
        if n_gaps <= 0:
            return np.empty(0, dtype=np.int64)
        if free_total <= 0:
            return np.zeros(n_gaps, dtype=np.int64)
        weights = rng.lognormal(0.0, self.gap_sigma, n_gaps)
        boundary = (np.arange(n_gaps) % max(1, self.burst_requests)) == 0
        weights[boundary] *= self.idle_factor
        raw = weights / weights.sum() * free_total
        gaps = raw.astype(np.int64)
        deficit = free_total - int(gaps.sum())
        if deficit > 0:
            order = np.argsort(raw - gaps)[::-1]
            gaps[order[:deficit]] += 1
        return gaps

    # ----------------------------------------------------- trace hooks

    def _epoch_focus(
        self,
        pool: _AddressPool,
        n_epochs: int,
        n_tainted_per_epoch: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Focus = linear start of the extent each request works on."""
        if pool.taint_total == 0 or n_epochs == 0:
            return np.zeros(n_epochs, dtype=np.int64)
        request_ids = np.maximum(
            np.cumsum(n_tainted_per_epoch > 0) - 1, 0
        ).astype(np.int64)
        extent = self._extent_for_requests(
            request_ids, len(pool.extent_lengths), rng
        )
        starts_linear = pool.taint_cum - pool.extent_lengths
        return starts_linear[extent]

    def _tainted_addresses(
        self,
        pool: _AddressPool,
        focus_per_epoch: np.ndarray,
        n_tainted_per_epoch: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        n_accesses = int(n_tainted_per_epoch.sum())
        if pool.taint_total == 0:
            return pool.clean(n_accesses)
        starts_linear = pool.taint_cum - pool.extent_lengths
        extent_of_epoch = (
            np.searchsorted(starts_linear, focus_per_epoch, side="right") - 1
        )
        extent_of_access = np.repeat(extent_of_epoch, n_tainted_per_epoch)
        extent_length = pool.extent_lengths[extent_of_access]
        if self.scan == "sequential":
            offsets = _ranges(n_tainted_per_epoch) % extent_length
        else:
            offsets = rng.integers(0, extent_length)
        return pool.extent_starts[extent_of_access] + offsets

    def _extent_for_requests(
        self,
        request_ids: np.ndarray,
        n_extents: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Map request ordinals to tainted-extent indices."""
        if n_extents <= 1:
            return np.zeros(len(request_ids), dtype=np.int64)
        if self.assignment == "ring":
            return request_ids % n_extents
        n_requests = int(request_ids.max()) + 1 if len(request_ids) else 0
        if n_requests == 0:
            return np.zeros(0, dtype=np.int64)
        if self.assignment == "zipf":
            ranks = np.arange(1, n_extents + 1, dtype=np.float64)
            weights = ranks ** -self.zipf_alpha
            weights /= weights.sum()
            # Which extent holds each popularity rank is itself seeded,
            # so the hot keys are stable but not always extent 0.
            popularity = rng.permutation(n_extents)
            choice = popularity[
                rng.choice(n_extents, size=n_requests, p=weights)
            ]
        else:  # uniform
            choice = rng.integers(0, n_extents, size=n_requests)
        return choice[request_ids]


class KeyValueWorkload(ServiceWorkload):
    """Memcached-like key-value traffic: GET/SET mixes, hot-key skew.

    Tainted extents are the value slabs; a Zipf draw per request keeps
    a few keys hot (the skew every production cache paper measures),
    which is exactly the temporal locality the CTC/CTT exploit.
    """

    family = "kv"
    assignment = "zipf"
    scan = "uniform"
    burst_requests = 8
    idle_factor = 30.0
    size_splits = (0.30, 0.50)


class RequestParseWorkload(ServiceWorkload):
    """nginx/curl-like request parsing: header-scan taint bursts.

    Requests cycle through a small recycled buffer ring and each
    handling epoch walks its buffer byte-sequentially (the header
    scan), so taint bursts are short, dense, and byte-granular.
    """

    family = "parse"
    assignment = "ring"
    scan = "sequential"
    burst_requests = 4
    idle_factor = 80.0
    size_splits = (0.70, 0.85)


class ImageLoadWorkload(ServiceWorkload):
    """Image serving: tainted metadata, long clean body streams.

    Each request picks an image uniformly, parses its small tainted
    metadata block sequentially, then streams the large clean body —
    clean accesses adjacent to taint are the dominant traffic, which is
    the worst case for coarse false positives (Figure 6's gap bytes).
    """

    family = "image"
    assignment = "uniform"
    scan = "sequential"
    burst_requests = 1
    idle_factor = 1.0
    gap_sigma = 1.2
    size_splits = (0.10, 0.20)


# --------------------------------------------------------- trace replay


class TraceReplayWorkload:
    """Replay a recorded ``.ltrace`` access trace as a workload source.

    Quacks like a :class:`WorkloadGenerator` (``profile`` / ``seed`` /
    ``layout()`` / ``epoch_stream()`` / ``access_trace()``) but derives
    everything from the recorded container: the layout is the recorded
    layout, the epoch stream is the recorded epoch sequence tiled (and
    exactly clamped) to the requested total, and the access trace tiles
    the recorded rows the same way — requesting exactly the recorded
    instruction count reproduces the recording bit for bit.

    The profile is synthesised from the recording (taint fraction,
    page counts, epoch-weight histogram, access density), so the
    S-LATCH model and the runner's cache keys work unchanged.
    """

    family = "replay"

    def __init__(
        self,
        source: Union[str, bytes],
        seed: int = 0,
        name: Optional[str] = None,
    ) -> None:
        from repro.trace import load_columnar_trace

        with load_columnar_trace(source) as columnar:
            self._trace = columnar.to_access_trace()
        self.seed = seed
        self.source = (
            "<bytes>" if isinstance(source, (bytes, bytearray))
            else str(source)
        )
        self._epochs = self._epoch_arrays()
        self.profile = self._synthesize_profile(
            name or self._trace.name or "ltrace"
        )

    # ------------------------------------------------------- derivation

    def layout(self) -> TaintLayout:
        return self._trace.layout

    def _epoch_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Recorded per-epoch (instructions, tainted marks) arrays."""
        from repro.trace import epoch_starts

        trace = self._trace
        if trace.access_count == 0:
            return (
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
            )
        starts = epoch_starts(np.asarray(trace.active_epoch, dtype=bool))
        ends = np.concatenate((starts[1:], [trace.access_count]))
        instr = np.concatenate(
            ([0], np.cumsum(trace.gap_before + 1))
        )
        lengths = instr[ends] - instr[starts]
        tainted = np.concatenate(
            ([0], np.cumsum(trace.tainted.astype(np.int64)))
        )
        marks = tainted[ends] - tainted[starts]
        return lengths.astype(np.int64), marks.astype(np.int64)

    def _synthesize_profile(self, name: str) -> WorkloadProfile:
        trace = self._trace
        layout = trace.layout
        lengths, marks = self._epochs
        total = max(1, int(lengths.sum()))

        taint_percent = min(100.0, 100.0 * float(marks.sum()) / total)
        free_lengths = lengths[marks == 0]
        free_total = int(free_lengths.sum())
        if free_total > 0:
            weights = []
            for low, high in EPOCH_BUCKETS:
                bucket = free_lengths[
                    (free_lengths >= low) & (free_lengths < high)
                ]
                weights.append(float(bucket.sum()) / free_total)
            # Epochs outside every bucket (shorter than 20 or beyond 8M
            # instructions) fold into the nearest edge bucket.
            weights[0] += max(0.0, 1.0 - sum(weights))
            scale = sum(weights)
            epoch_weights = tuple(w / scale for w in weights)
        else:
            epoch_weights = _REPLAY_EPOCHS

        starts, extent_lengths = layout.extents.T
        if len(starts):
            run = max(1, int(np.median(extent_lengths)))
            if len(starts) > 1:
                gap = max(0, int(np.median(np.diff(starts))) - run)
            else:
                gap = 0
        else:
            run, gap = 256, 256

        pages_tainted = len(layout.tainted_pages())
        pages_accessed = max(
            1, len(layout.accessed_pages), pages_tainted
        )
        active = np.asarray(trace.active_epoch, dtype=bool)
        active_instr = int(active.sum() + trace.gap_before[active].sum())
        density = min(
            1.0,
            max(0.01, trace.tainted_access_count / max(1, active_instr)),
        )
        n_active = max(1, int((marks > 0).sum()))
        return WorkloadProfile(
            name=name,
            kind="replay",
            taint_percent=taint_percent,
            pages_accessed=pages_accessed,
            pages_tainted=pages_tainted,
            epoch_weights=epoch_weights,
            taint_run_bytes=run,
            taint_gap_bytes=gap,
            baseline_tcache_miss_percent=10.0,
            libdft_slowdown=5.0,
            mem_access_fraction=min(1.0, trace.access_count / total),
            taint_density=density,
            episode_marks=max(1, int(marks.sum()) // n_active),
            description=f"replayed from {self.source}",
        )

    # -------------------------------------------------------- artefacts

    def epoch_stream(self, total_instructions: int = 100_000_000) -> EpochStream:
        lengths, marks = self._epochs
        recorded = int(lengths.sum())
        if recorded == 0 or total_instructions <= 0:
            return EpochStream(
                name=self.profile.name,
                lengths=np.array([max(1, total_instructions)], dtype=np.int64),
                tainted_counts=np.zeros(1, dtype=np.int64),
            )
        repeats = total_instructions // recorded
        parts_l = [np.tile(lengths, repeats)] if repeats else []
        parts_m = [np.tile(marks, repeats)] if repeats else []
        remainder = total_instructions - repeats * recorded
        if remainder:
            cumulative = np.cumsum(lengths)
            cut = int(np.searchsorted(cumulative, remainder, side="left"))
            head_l = lengths[: cut + 1].copy()
            head_m = marks[: cut + 1].copy()
            head_l[-1] -= int(cumulative[cut]) - remainder
            head_m[-1] = min(head_m[-1], head_l[-1])
            keep = head_l > 0
            parts_l.append(head_l[keep])
            parts_m.append(head_m[keep])
        return EpochStream(
            name=self.profile.name,
            lengths=np.concatenate(parts_l),
            tainted_counts=np.concatenate(parts_m),
        )

    def access_trace(
        self,
        total_instructions: int = 500_000,
        layout: Optional[TaintLayout] = None,
    ) -> AccessTrace:
        trace = self._trace
        layout = layout if layout is not None else trace.layout
        recorded = trace.total_instructions
        columns = ("addresses", "sizes", "is_write", "gap_before")
        if trace.access_count == 0 or total_instructions <= 0 or recorded == 0:
            empty = np.empty(0, dtype=np.int64)
            return AccessTrace(
                name=self.profile.name,
                addresses=empty,
                sizes=empty.astype(np.uint8),
                is_write=empty.astype(bool),
                tainted=empty.astype(bool),
                gap_before=empty.astype(np.int64),
                active_epoch=empty.astype(bool),
                layout=layout,
            )
        repeats = total_instructions // recorded
        remainder = total_instructions - repeats * recorded
        tail_gap = None
        cut = -1
        if remainder:
            instr = np.cumsum(trace.gap_before + 1)
            cut = int(np.searchsorted(instr, remainder, side="left"))
            if cut >= trace.access_count:
                cut = trace.access_count - 1
            overshoot = int(instr[cut]) - remainder
            tail_gap = int(trace.gap_before[cut]) - overshoot

        def tiled(column: str) -> np.ndarray:
            recorded_column = np.asarray(getattr(trace, column))
            pieces = [recorded_column] * repeats
            if remainder:
                pieces.append(recorded_column[: cut + 1])
            if not pieces:
                return recorded_column[:0].copy()
            return np.concatenate(pieces)

        arrays = {column: tiled(column) for column in columns}
        active = tiled("active_epoch")
        if tail_gap is not None:
            arrays["gap_before"] = arrays["gap_before"].copy()
            arrays["gap_before"][-1] = tail_gap
        tainted = layout.bytes_tainted(arrays["addresses"])
        return AccessTrace(
            name=self.profile.name,
            addresses=arrays["addresses"],
            sizes=arrays["sizes"],
            is_write=arrays["is_write"],
            tainted=tainted,
            gap_before=arrays["gap_before"],
            active_epoch=active | tainted,
            layout=layout,
        )


# ------------------------------------------------------ dynamic wrapper


class DynamicWorkload:
    """Phase-shift any engine through a :class:`PhaseSchedule`.

    The run budget is apportioned across phases (largest remainder, so
    the stream still sums exactly to the request); each phase runs the
    inner engine with its taint fraction scaled by the phase's
    ``taint_scale`` and its request size shrunk by ``intensity`` (a
    hotter phase means more, smaller requests in the same instruction
    budget).  All phases share one spatial layout — the address space
    does not reshuffle when load changes.
    """

    family = "dynamic"

    def __init__(
        self,
        engine_cls: Type[ServiceWorkload],
        base_profile: WorkloadProfile,
        schedule: PhaseSchedule,
        name: Optional[str] = None,
        seed: int = 0,
    ) -> None:
        self.engine_cls = engine_cls
        self.schedule = schedule
        self.seed = seed
        self._base_profile = base_profile
        resolved = name or f"{base_profile.name}@{schedule.name}"
        self.profile = dataclasses.replace(
            base_profile,
            name=resolved,
            kind="service",
            taint_percent=min(
                50.0, base_profile.taint_percent * schedule.mean_taint_scale()
            ),
        )
        self._anchor = engine_cls(
            dataclasses.replace(base_profile, name=resolved), seed=seed
        )

    def layout(self) -> TaintLayout:
        return self._anchor.layout()

    def _phase_engines(
        self, total: int
    ) -> List[Tuple[ServiceWorkload, int]]:
        engines: List[Tuple[ServiceWorkload, int]] = []
        base = self._base_profile
        for index, (phase, budget) in enumerate(
            zip(self.schedule.phases, self.schedule.split_budget(total))
        ):
            if budget <= 0:
                continue
            profile = dataclasses.replace(
                base,
                name=f"{self.profile.name}#{index}-{phase.name}",
                taint_percent=min(
                    50.0, base.taint_percent * phase.taint_scale
                ),
                episode_marks=max(
                    1,
                    int(round(base.episode_marks / max(phase.intensity, 1e-6))),
                ),
            )
            engines.append((self.engine_cls(profile, seed=self.seed), budget))
        return engines

    def epoch_stream(self, total_instructions: int = 100_000_000) -> EpochStream:
        parts = [
            engine.epoch_stream(budget)
            for engine, budget in self._phase_engines(total_instructions)
        ]
        if not parts:
            return EpochStream(
                name=self.profile.name,
                lengths=np.empty(0, dtype=np.int64),
                tainted_counts=np.empty(0, dtype=np.int64),
            )
        return EpochStream(
            name=self.profile.name,
            lengths=np.concatenate([p.lengths for p in parts]),
            tainted_counts=np.concatenate([p.tainted_counts for p in parts]),
        )

    def access_trace(
        self,
        total_instructions: int = 500_000,
        layout: Optional[TaintLayout] = None,
    ) -> AccessTrace:
        layout = layout if layout is not None else self.layout()
        parts = [
            engine.access_trace(budget, layout=layout)
            for engine, budget in self._phase_engines(total_instructions)
        ]
        if not parts:
            empty = np.empty(0, dtype=np.int64)
            return AccessTrace(
                name=self.profile.name,
                addresses=empty,
                sizes=empty.astype(np.uint8),
                is_write=empty.astype(bool),
                tainted=empty.astype(bool),
                gap_before=empty.astype(np.int64),
                active_epoch=empty.astype(bool),
                layout=layout,
            )
        return AccessTrace(
            name=self.profile.name,
            addresses=np.concatenate([p.addresses for p in parts]),
            sizes=np.concatenate([p.sizes for p in parts]),
            is_write=np.concatenate([p.is_write for p in parts]),
            tainted=np.concatenate([p.tainted for p in parts]),
            gap_before=np.concatenate([p.gap_before for p in parts]),
            active_epoch=np.concatenate([p.active_epoch for p in parts]),
            layout=layout,
        )


# -------------------------------------------------------- the registry


def _service_profile(
    name: str,
    taint_percent: float,
    pages_accessed: int,
    pages_tainted: int,
    epochs: Tuple[float, ...],
    run: int,
    gap: int,
    baseline_miss: float,
    libdft: float,
    **extra,
) -> WorkloadProfile:
    return WorkloadProfile(
        name=name,
        kind="service",
        taint_percent=taint_percent,
        pages_accessed=pages_accessed,
        pages_tainted=pages_tainted,
        epoch_weights=epochs,
        taint_run_bytes=run,
        taint_gap_bytes=gap,
        baseline_tcache_miss_percent=baseline_miss,
        libdft_slowdown=libdft,
        **extra,
    )


#: The static engine matrix: profile name → (engine class, profile).
_STATIC_ENGINES: Dict[str, Tuple[Type[ServiceWorkload], WorkloadProfile]] = {
    "kv-cache": (KeyValueWorkload, _service_profile(
        "kv-cache", 2.4, 4096, 512,
        (0.18, 0.34, 0.28, 0.14, 0.06, 0.00),
        run=96, gap=160, baseline_miss=9.5, libdft=5.5,
        mem_access_fraction=0.45, write_fraction=0.35,
        near_taint_fraction=0.5, episode_marks=24, cluster_size=8,
        description="memcached-like GET/SET mix with Zipf hot-key skew",
    )),
    "http-parse": (RequestParseWorkload, _service_profile(
        "http-parse", 1.7, 1280, 192,
        (0.25, 0.38, 0.24, 0.09, 0.04, 0.00),
        run=16, gap=48, baseline_miss=10.2, libdft=6.5,
        mem_access_fraction=0.50, write_fraction=0.08,
        near_taint_fraction=0.7, episode_marks=600, cluster_size=4,
        description="nginx/curl-like header scans over a buffer ring",
    )),
    "img-serve": (ImageLoadWorkload, _service_profile(
        "img-serve", 0.6, 24576, 96,
        (0.04, 0.10, 0.22, 0.34, 0.22, 0.08),
        run=384, gap=3712, baseline_miss=14.0, libdft=4.5,
        mem_access_fraction=0.40, write_fraction=0.12,
        near_taint_fraction=0.85, episode_marks=384, cluster_size=1,
        description="image serving: tainted metadata, long clean bodies",
    )),
}

#: Dynamic (phase-shifted) engines: name → (base engine name, schedule).
_DYNAMIC_ENGINES: Dict[str, Tuple[str, PhaseSchedule]] = {
    "kv-bursty": ("kv-cache", bursty_schedule()),
    "http-diurnal": ("http-parse", diurnal_schedule()),
    "kv-storm": ("kv-cache", storm_schedule()),
}


def _dynamic_workload(name: str, seed: int = 0) -> DynamicWorkload:
    base_name, schedule = _DYNAMIC_ENGINES[name]
    engine_cls, profile = _STATIC_ENGINES[base_name]
    return DynamicWorkload(engine_cls, profile, schedule, name=name, seed=seed)


#: Every service-engine profile, static engines first — what
#: :func:`repro.workloads.all_profiles` appends to the paper's tables.
SERVICE_PROFILES: Tuple[WorkloadProfile, ...] = tuple(
    [profile for _, profile in _STATIC_ENGINES.values()]
    + [_dynamic_workload(name).profile for name in _DYNAMIC_ENGINES]
)

#: The zoo's suite ordering (static engines, then dynamic wrappers).
SERVICE_SUITE: Tuple[str, ...] = tuple(
    list(_STATIC_ENGINES) + list(_DYNAMIC_ENGINES)
)


def engine_schedule(name: str) -> PhaseSchedule:
    """The phase schedule of a dynamic engine (KeyError if unknown)."""
    _, schedule = _DYNAMIC_ENGINES[name]
    return schedule


def make_generator(
    workload: Union[str, WorkloadProfile], seed: int = 0
):
    """Generator for any workload source (the single dispatch point).

    Accepts a calibrated profile name, a service-engine name, an
    ``ltrace:PATH`` replay source, or an explicit
    :class:`WorkloadProfile`.  Raises ``KeyError`` for unknown names
    (same contract as :func:`repro.workloads.get_profile`) and
    :class:`~repro.trace.format.StorageFormatError` / ``OSError``
    for unreadable replay containers.
    """
    if isinstance(workload, WorkloadProfile):
        name = workload.name
        if name in _STATIC_ENGINES:
            engine_cls, _ = _STATIC_ENGINES[name]
            return engine_cls(workload, seed=seed)
        if name in _DYNAMIC_ENGINES:
            return _dynamic_workload(name, seed=seed)
        return WorkloadGenerator(workload, seed=seed)
    name = str(workload)
    if name.startswith(LTRACE_PREFIX):
        return TraceReplayWorkload(name[len(LTRACE_PREFIX):], seed=seed)
    if name in _STATIC_ENGINES:
        engine_cls, profile = _STATIC_ENGINES[name]
        return engine_cls(profile, seed=seed)
    if name in _DYNAMIC_ENGINES:
        return _dynamic_workload(name, seed=seed)
    from repro.workloads.profiles import get_profile

    return WorkloadGenerator(get_profile(name), seed=seed)


# ----------------------------------------------------- characterization


def characterize(
    names: Optional[Sequence[str]] = None,
    epoch_scale: int = DEFAULT_EPOCH_SCALE,
    trace_window: int = 20_000,
    seed: int = 0,
) -> Dict[str, Dict[str, object]]:
    """Per-profile epoch/locality characterization (the zoo sweep).

    One row per workload: temporal shape (taint fraction, epoch and
    request counts, mean taint-free duration) and spatial shape (page
    footprint, tainted pages, tainted-access rate over a trace
    window).  Covers every registered profile by default — the paper's
    tables plus the service zoo.
    """
    if names is None:
        from repro.workloads.profiles import all_profiles

        names = [profile.name for profile in all_profiles()]
    rows: Dict[str, Dict[str, object]] = {}
    for name in names:
        generator = make_generator(name, seed=seed)
        stream = generator.epoch_stream(epoch_scale)
        trace = generator.access_trace(trace_window)
        layout = generator.layout()
        free = stream.taint_free_lengths()
        rows[name] = {
            "kind": generator.profile.kind,
            "taint_percent": 100.0 * stream.tainted_fraction,
            "epochs": int(stream.epoch_count),
            "requests": int((stream.tainted_counts > 0).sum()),
            "mean_taint_free": float(free.mean()) if len(free) else 0.0,
            "pages_accessed": len(layout.accessed_pages),
            "pages_tainted": len(layout.tainted_pages()),
            "accesses": int(trace.access_count),
            "tainted_access_percent": (
                100.0 * trace.tainted_access_count
                / max(1, trace.access_count)
            ),
        }
    return rows
