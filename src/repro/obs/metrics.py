"""Metric primitives and the :class:`MetricsRegistry`.

Four metric kinds, chosen to cover everything the LATCH evaluation
counts:

* :class:`Counter` — monotonically increasing event count (CTC hits,
  traps, stall cycles).  ``inc()`` is a single integer add, cheap enough
  for the per-instruction hot path.
* :class:`Gauge` — a point-in-time value, either set directly or backed
  by a zero-argument callback evaluated at snapshot time (hit rates,
  screening fractions).  Callback gauges make *derived* metrics free:
  nothing runs until a snapshot is taken.
* :class:`Histogram` — a value distribution with exact count/sum/min/
  max and, in the default ``exact`` mode, exact percentiles (epoch
  durations).  The ``bounded`` mode swaps the retained value list for
  fixed log-spaced buckets plus P²-algorithm streaming quantile
  estimators, so a histogram that lives for the whole lifetime of a
  long-running server — or a queue's occupancy — uses O(1) memory per
  metric.
* :class:`Timer` — a context manager recording wall-clock durations
  into a histogram of seconds.

The registry is the namespace: metrics are addressed by dotted names
(``ctc.hit_rate``, ``slatch.epoch.hw_duration``) documented in
``docs/OBSERVABILITY.md``.  ``counter()`` / ``gauge()`` /
``histogram()`` / ``timer()`` are get-or-create, so instrumented
subsystems can share one registry without coordination.

Usage::

    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    hits = registry.counter("ctc.hits", unit="accesses",
                            description="CTC lookups that hit")
    hits.inc()
    registry.gauge("ctc.hit_rate", unit="fraction",
                   callback=lambda: hits.value / 1.0)
    snapshot = registry.snapshot()
"""

from __future__ import annotations

import copy
import math
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]

#: Percentiles included in histogram snapshots.
SNAPSHOT_PERCENTILES: Sequence[float] = (50.0, 90.0, 95.0, 99.0)

#: Histogram memory disciplines.
HISTOGRAM_MODES = ("exact", "bounded")


def _interpolated_percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile with linear interpolation (numpy default)."""
    rank = (len(ordered) - 1) * (p / 100.0)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return ordered[int(rank)]
    weight = rank - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def default_buckets() -> Tuple[float, ...]:
    """The default bounded-mode bucket ladder.

    A 1-2.5-5 ladder per decade from 1e-6 to 1e6 (with a leading zero
    bucket) covers every unit the tree records — seconds, entries,
    instructions — at ~15% relative resolution, in 40 fixed counters.
    """
    bounds: List[float] = [0.0]
    for exponent in range(-6, 7):
        for mantissa in (1.0, 2.5, 5.0):
            bounds.append(mantissa * (10.0 ** exponent))
    return tuple(bounds)


class P2Quantile:
    """Streaming quantile estimation via the P² algorithm.

    Jain & Chlamtac's extended-P² keeps five markers per tracked
    quantile and adjusts them with piecewise-parabolic interpolation on
    every observation — O(1) memory and time, no retained samples.  The
    first five observations are kept verbatim, so small streams answer
    exactly.
    """

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 100.0:
            raise ValueError("P2 quantile must be within (0, 100)")
        self.p = p / 100.0
        self._initial: List[float] = []
        self._q: List[float] = []
        self._n: List[int] = []
        self._target: List[float] = []
        self._dn = (0.0, self.p / 2.0, self.p,
                    (1.0 + self.p) / 2.0, 1.0)

    def update(self, x: float) -> None:
        """Absorb one observation."""
        if len(self._q) < 5:
            self._initial.append(x)
            if len(self._initial) == 5:
                self._initial.sort()
                self._q = list(self._initial)
                self._n = [0, 1, 2, 3, 4]
                self._target = [0.0, 2.0 * self.p, 4.0 * self.p,
                                2.0 + 2.0 * self.p, 4.0]
            return
        q, n = self._q, self._n
        if x < q[0]:
            q[0] = x
            cell = 0
        elif x >= q[4]:
            q[4] = x
            cell = 3
        else:
            cell = 3
            for i in range(1, 4):
                if x < q[i]:
                    cell = i - 1
                    break
        for i in range(cell + 1, 5):
            n[i] += 1
        for i in range(5):
            self._target[i] += self._dn[i]
        for i in (1, 2, 3):
            drift = self._target[i] - n[i]
            if ((drift >= 1.0 and n[i + 1] - n[i] > 1)
                    or (drift <= -1.0 and n[i - 1] - n[i] < -1)):
                step = 1 if drift > 0 else -1
                candidate = self._parabolic(i, step)
                if not q[i - 1] < candidate < q[i + 1]:
                    candidate = self._linear(i, step)
                q[i] = candidate
                n[i] += step

    def _parabolic(self, i: int, step: int) -> float:
        q, n = self._q, self._n
        return q[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (q[i + 1] - q[i])
            / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (q[i] - q[i - 1])
            / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: int) -> float:
        q, n = self._q, self._n
        return q[i] + step * (q[i + step] - q[i]) / (n[i + step] - n[i])

    def value(self) -> float:
        """The current quantile estimate (nan before any observation)."""
        if len(self._q) == 5:
            return self._q[2]
        if not self._initial:
            return math.nan
        return _interpolated_percentile(sorted(self._initial), self.p * 100.0)


class Metric:
    """Common identity shared by all metric kinds."""

    kind = "metric"

    def __init__(self, name: str, unit: str = "", description: str = "") -> None:
        self.name = name
        self.unit = unit
        self.description = description

    def value_dict(self) -> Dict[str, object]:
        """Serialisable value payload (overridden per kind)."""
        raise NotImplementedError

    def reset(self) -> None:
        """Zero the metric."""
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing event count.

    ``inc`` is the hot-path entry point; ``set`` exists for pull-style
    publication, where a subsystem that already accumulates its own
    counters (e.g. :class:`repro.mem.cache.CacheStats`) copies the
    current totals into the registry at snapshot time.
    """

    kind = "counter"

    def __init__(self, name: str, unit: str = "", description: str = "") -> None:
        super().__init__(name, unit, description)
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (default 1) to the count."""
        self.value += amount

    def set(self, value: Number) -> None:
        """Publish an externally accumulated total."""
        self.value = value

    def value_dict(self) -> Dict[str, object]:
        return {"value": self.value}

    def reset(self) -> None:
        self.value = 0


class Gauge(Metric):
    """A point-in-time value, direct or computed by a callback."""

    kind = "gauge"

    def __init__(
        self,
        name: str,
        unit: str = "",
        description: str = "",
        callback: Optional[Callable[[], Number]] = None,
    ) -> None:
        super().__init__(name, unit, description)
        self.callback = callback
        self._value: Number = 0

    def set(self, value: Number) -> None:
        """Set the gauge directly (detaches any callback)."""
        self.callback = None
        self._value = value

    @property
    def value(self) -> Number:
        """Current value (callback gauges evaluate on read)."""
        if self.callback is not None:
            return self.callback()
        return self._value

    def value_dict(self) -> Dict[str, object]:
        return {"value": self.value}

    def reset(self) -> None:
        if self.callback is None:
            self._value = 0


class Histogram(Metric):
    """A value distribution, in one of two memory disciplines.

    ``exact`` (the default) retains every value, so ``percentile`` is
    exact (nearest-rank with linear interpolation, matching
    ``numpy.percentile``'s default).  Recording is a list append;
    intended volumes are one value per *event* (epoch transition, queue
    sample), not per instruction.

    ``bounded`` keeps O(1) state no matter how long the histogram
    lives: exact count/sum/min/max, a fixed log-spaced bucket ladder
    (cumulative counts, Prometheus-style), and one :class:`P2Quantile`
    streaming estimator per snapshot percentile.  Percentiles outside
    the tracked set are interpolated from the buckets.  ``values()``
    raises in this mode — there is no retained sample list.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        unit: str = "",
        description: str = "",
        mode: str = "exact",
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(name, unit, description)
        if mode not in HISTOGRAM_MODES:
            raise ValueError(
                f"histogram mode must be one of {HISTOGRAM_MODES}, got {mode!r}"
            )
        self.mode = mode
        self._values: List[float] = []
        self._sorted: Optional[List[float]] = None
        # Bounded-mode state (allocated even in exact mode so merge_from
        # and reset stay branch-light; 40 ints + 4 estimators is cheap).
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        if mode == "bounded":
            self._bounds: Tuple[float, ...] = (
                tuple(float(b) for b in buckets) if buckets is not None
                else default_buckets()
            )
            if list(self._bounds) != sorted(set(self._bounds)):
                raise ValueError("histogram buckets must be strictly increasing")
            self._bucket_counts = [0] * (len(self._bounds) + 1)
            self._estimators: Dict[float, P2Quantile] = {
                p: P2Quantile(p) for p in SNAPSHOT_PERCENTILES
            }
        else:
            self._bounds = ()
            self._bucket_counts = []
            self._estimators = {}

    # ----------------------------------------------------------- recording

    def record(self, value: Number) -> None:
        """Record one observation."""
        if self.mode == "exact":
            self._values.append(float(value))
            self._sorted = None
            return
        x = float(value)
        self._count += 1
        self._sum += x
        if x < self._min:
            self._min = x
        if x > self._max:
            self._max = x
        self._bucket_counts[self._bucket_index(x)] += 1
        for estimator in self._estimators.values():
            estimator.update(x)

    def record_many(self, values) -> None:
        """Record an iterable of observations (bulk import)."""
        if self.mode == "exact":
            self._values.extend(float(value) for value in values)
            self._sorted = None
        else:
            for value in values:
                self.record(value)

    def _bucket_index(self, x: float) -> int:
        lo, hi = 0, len(self._bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if x <= self._bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    # ---------------------------------------------------------- statistics

    @property
    def count(self) -> int:
        """Number of observations."""
        if self.mode == "bounded":
            return self._count
        return len(self._values)

    @property
    def total(self) -> float:
        """Sum of observations."""
        if self.mode == "bounded":
            return self._sum
        return math.fsum(self._values)

    @property
    def min(self) -> float:
        """Smallest observation (nan when empty)."""
        if self.mode == "bounded":
            return self._min if self._count else math.nan
        return min(self._values) if self._values else math.nan

    @property
    def max(self) -> float:
        """Largest observation (nan when empty)."""
        if self.mode == "bounded":
            return self._max if self._count else math.nan
        return max(self._values) if self._values else math.nan

    @property
    def mean(self) -> float:
        """Arithmetic mean (nan when empty)."""
        if not self.count:
            return math.nan
        return self.total / self.count

    def percentile(self, p: float) -> float:
        """p-th percentile, 0 ≤ p ≤ 100 (nan when empty).

        Exact in ``exact`` mode.  In ``bounded`` mode the snapshot
        percentiles come from their P² estimators; any other ``p``
        falls back to linear interpolation within the bucket ladder.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        if self.mode == "bounded":
            if not self._count:
                return math.nan
            if p == 0.0:
                return self._min
            if p == 100.0:
                return self._max
            estimator = self._estimators.get(p)
            if estimator is not None:
                value = estimator.value()
                if not math.isnan(value):
                    # P² can't leave the observed range, but clamp the
                    # small-stream path anyway for belt and braces.
                    return min(max(value, self._min), self._max)
            return self._bucket_percentile(p)
        if not self._values:
            return math.nan
        if self._sorted is None:
            self._sorted = sorted(self._values)
        return _interpolated_percentile(self._sorted, p)

    def _bucket_percentile(self, p: float) -> float:
        target = self._count * (p / 100.0)
        cumulative = 0
        for i, n in enumerate(self._bucket_counts):
            if not n:
                continue
            prev_cumulative = cumulative
            cumulative += n
            if cumulative >= target:
                lower = (self._bounds[i - 1] if i > 0 else self._min)
                upper = (self._bounds[i] if i < len(self._bounds)
                         else self._max)
                lower = max(lower, self._min)
                upper = min(upper, self._max)
                fraction = (target - prev_cumulative) / n
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        return self._max

    def values(self) -> List[float]:
        """Copy of the raw observations (exact mode only)."""
        if self.mode == "bounded":
            raise RuntimeError(
                f"histogram {self.name!r} is bounded: raw values are not retained"
            )
        return list(self._values)

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs (bounded mode only).

        The final pair's bound is ``inf`` — the overflow bucket, whose
        cumulative count equals ``count``.
        """
        if self.mode != "bounded":
            raise RuntimeError(
                f"histogram {self.name!r} is exact: no bucket ladder"
            )
        pairs: List[Tuple[float, int]] = []
        cumulative = 0
        for bound, n in zip(self._bounds, self._bucket_counts):
            cumulative += n
            pairs.append((bound, cumulative))
        pairs.append((math.inf, cumulative + self._bucket_counts[-1]))
        return pairs

    def merge_from(self, other: "Histogram") -> None:
        """Absorb another histogram's observations into this one.

        An exact source replays its retained values.  A bounded source
        can only be absorbed by a *freshly reset* bounded histogram with
        the same bucket ladder — the P² marker state is copied over
        wholesale, which reproduces the source exactly but cannot be
        combined with prior observations.
        """
        if other.mode == "exact":
            self.record_many(other._values)
            return
        if self.mode != "bounded":
            raise RuntimeError(
                "cannot merge a bounded histogram into an exact one"
            )
        if self._bounds != other._bounds:
            raise ValueError("bucket ladders differ; cannot merge")
        if self._count:
            raise RuntimeError(
                "bounded merge target must be freshly reset (P² marker "
                "state cannot be combined)"
            )
        self._count = other._count
        self._sum = other._sum
        self._min = other._min
        self._max = other._max
        self._bucket_counts = list(other._bucket_counts)
        self._estimators = {
            p: copy.deepcopy(est) for p, est in other._estimators.items()
        }

    def value_dict(self) -> Dict[str, object]:
        empty = not self.count
        payload: Dict[str, object] = {
            "count": self.count,
            "sum": self.total if not empty else 0.0,
            "min": None if empty else self.min,
            "max": None if empty else self.max,
            "mean": None if empty else self.mean,
        }
        payload["percentiles"] = {
            f"p{int(p) if float(p).is_integer() else p}": (
                None if empty else self.percentile(p)
            )
            for p in SNAPSHOT_PERCENTILES
        }
        payload["mode"] = self.mode
        if self.mode == "bounded":
            payload["buckets"] = [
                ["+Inf" if math.isinf(bound) else bound, cumulative]
                for bound, cumulative in self.bucket_counts()
            ]
        return payload

    def reset(self) -> None:
        self._values.clear()
        self._sorted = None
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        if self.mode == "bounded":
            self._bucket_counts = [0] * (len(self._bounds) + 1)
            self._estimators = {
                p: P2Quantile(p) for p in SNAPSHOT_PERCENTILES
            }


class Timer(Metric):
    """Wall-clock span timer backed by a histogram of seconds.

    Usage::

        with registry.timer("report.render_seconds"):
            render()
    """

    kind = "timer"

    def __init__(
        self,
        name: str,
        unit: str = "seconds",
        description: str = "",
        clock: Callable[[], float] = time.perf_counter,
        mode: str = "exact",
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(name, unit, description)
        self.histogram = Histogram(name, unit, description,
                                   mode=mode, buckets=buckets)
        self._clock = clock
        self._start: Optional[float] = None

    @property
    def mode(self) -> str:
        """The backing histogram's memory discipline."""
        return self.histogram.mode

    def __enter__(self) -> "Timer":
        self._start = self._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._start is not None:
            self.histogram.record(self._clock() - self._start)
            self._start = None

    def record(self, seconds: Number) -> None:
        """Record an externally measured duration."""
        self.histogram.record(seconds)

    @property
    def count(self) -> int:
        """Number of completed spans."""
        return self.histogram.count

    @property
    def total(self) -> float:
        """Total seconds across spans."""
        return self.histogram.total

    def value_dict(self) -> Dict[str, object]:
        return self.histogram.value_dict()

    def reset(self) -> None:
        self.histogram.reset()


class MetricsRegistry:
    """Named collection of metrics with get-or-create accessors.

    The accessors are idempotent: requesting an existing name returns
    the existing instance (and raises :class:`TypeError` if the kind
    differs), so independent subsystems can publish into one registry.
    Iteration order is insertion order, which the snapshot and the
    rendered tables preserve.

    Two *instances* of one subsystem (e.g. two pipelines in a
    multi-tenant server process) would collide on the shared names, so
    each should publish through :meth:`scoped`, which namespaces every
    metric under an instance prefix instead of silently sharing.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        # Guards the name→metric map only.  Metric *updates* stay
        # lock-free (single bytecode ops under the GIL); the telemetry
        # exporter thread races creation with the serving loop, and a
        # torn dict insert is the one structural hazard.
        self._lock = threading.Lock()

    # ------------------------------------------------------------ creation

    def _get_or_create(self, cls, name: str, **kwargs) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if not isinstance(metric, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as {metric.kind}"
                    )
                return metric
            metric = cls(name, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, unit: str = "count", description: str = ""
    ) -> Counter:
        """Get or create a counter."""
        return self._get_or_create(
            Counter, name, unit=unit, description=description
        )

    def gauge(
        self,
        name: str,
        unit: str = "",
        description: str = "",
        callback: Optional[Callable[[], Number]] = None,
    ) -> Gauge:
        """Get or create a gauge; ``callback`` re-binds a derived value."""
        gauge = self._get_or_create(
            Gauge, name, unit=unit, description=description
        )
        if callback is not None:
            gauge.callback = callback
        return gauge

    def histogram(
        self,
        name: str,
        unit: str = "",
        description: str = "",
        mode: str = "exact",
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        """Get or create a histogram (``mode`` applies on creation only)."""
        return self._get_or_create(
            Histogram, name, unit=unit, description=description,
            mode=mode, buckets=buckets,
        )

    def timer(
        self,
        name: str,
        unit: str = "seconds",
        description: str = "",
        mode: str = "exact",
        buckets: Optional[Sequence[float]] = None,
    ) -> Timer:
        """Get or create a timer (``mode`` applies on creation only)."""
        return self._get_or_create(
            Timer, name, unit=unit, description=description,
            mode=mode, buckets=buckets,
        )

    # ------------------------------------------------------------- access

    def get(self, name: str) -> Metric:
        """Look up a metric; raises :class:`KeyError` if absent."""
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> List[str]:
        """Registered names in insertion order."""
        with self._lock:
            return list(self._metrics)

    def metrics(self) -> List[Metric]:
        """Registered metrics in insertion order."""
        with self._lock:
            return list(self._metrics.values())

    # ------------------------------------------------------------ scoping

    def scoped(self, prefix: str) -> "ScopedRegistry":
        """A namespaced view of this registry.

        Every metric created through the view carries ``prefix.`` in
        front of its name, so N instances of one instrumented subsystem
        (the multi-tenant case: one pipeline per tenant in a single
        server process) publish side by side instead of colliding on
        the registry's shared names.
        """
        return ScopedRegistry(self, prefix)

    # ------------------------------------------------------------ lifecycle

    def reset(self) -> None:
        """Zero every metric (callback gauges are left bound)."""
        for metric in self._metrics.values():
            metric.reset()

    def snapshot(self):
        """Freeze every metric into a :class:`repro.obs.StatsSnapshot`."""
        from repro.obs.snapshot import StatsSnapshot

        return StatsSnapshot.from_registry(self)


class ScopedRegistry:
    """A prefix-namespaced view over a base :class:`MetricsRegistry`.

    The view exposes the full registry surface — ``counter`` /
    ``gauge`` / ``histogram`` / ``timer`` get-or-create accessors,
    lookup, iteration, reset, snapshot — but rewrites every name to
    ``<prefix>.<name>`` before touching the base registry, and filters
    iteration down to its own namespace.  Scopes nest
    (``registry.scoped("serve").scoped("tenant-a")``), and the *metric
    objects* carry their fully qualified names, so snapshots taken from
    the base registry show the namespaced rows directly.
    """

    def __init__(self, base, prefix: str) -> None:
        if not prefix or prefix.endswith("."):
            raise ValueError(f"invalid scope prefix: {prefix!r}")
        self._base = base
        self.prefix = prefix

    def _qualify(self, name: str) -> str:
        return f"{self.prefix}.{name}"

    # ---------------------------------------------------------- accessors

    def counter(self, name: str, unit: str = "count",
                description: str = "") -> Counter:
        """Get or create a counter under this scope's prefix."""
        return self._base.counter(
            self._qualify(name), unit=unit, description=description
        )

    def gauge(
        self,
        name: str,
        unit: str = "",
        description: str = "",
        callback: Optional[Callable[[], Number]] = None,
    ) -> Gauge:
        """Get or create a gauge under this scope's prefix."""
        return self._base.gauge(
            self._qualify(name), unit=unit, description=description,
            callback=callback,
        )

    def histogram(self, name: str, unit: str = "",
                  description: str = "", mode: str = "exact",
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        """Get or create a histogram under this scope's prefix."""
        return self._base.histogram(
            self._qualify(name), unit=unit, description=description,
            mode=mode, buckets=buckets,
        )

    def timer(self, name: str, unit: str = "seconds",
              description: str = "", mode: str = "exact",
              buckets: Optional[Sequence[float]] = None) -> Timer:
        """Get or create a timer under this scope's prefix."""
        return self._base.timer(
            self._qualify(name), unit=unit, description=description,
            mode=mode, buckets=buckets,
        )

    def scoped(self, prefix: str) -> "ScopedRegistry":
        """A nested scope (``<this prefix>.<prefix>.<name>``)."""
        return ScopedRegistry(self._base, self._qualify(prefix))

    # ------------------------------------------------------------- access

    def get(self, name: str) -> Metric:
        """Look up ``name`` within this scope (KeyError if absent)."""
        return self._base.get(self._qualify(name))

    def __contains__(self, name: str) -> bool:
        return self._qualify(name) in self._base

    def __len__(self) -> int:
        return len(self.metrics())

    def names(self) -> List[str]:
        """Fully qualified names registered under this scope."""
        return [metric.name for metric in self.metrics()]

    def metrics(self) -> List[Metric]:
        """Metrics registered under this scope, in insertion order."""
        marker = self.prefix + "."
        return [
            metric for metric in self._base.metrics()
            if metric.name.startswith(marker)
        ]

    # ---------------------------------------------------------- lifecycle

    def reset(self) -> None:
        """Zero every metric under this scope only."""
        for metric in self.metrics():
            metric.reset()

    def snapshot(self):
        """Freeze this scope's metrics into a ``StatsSnapshot``."""
        from repro.obs.snapshot import StatsSnapshot

        return StatsSnapshot.from_registry(self)
