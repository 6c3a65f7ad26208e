"""Load generator: thousands of simulated clients against one server.

The generator pre-records one wire trace per workload scenario and one
local :func:`repro.serve.client.local_reference` result, then fans
out N asyncio clients that each stream a trace and compare the served
result against the reference — so a load run doubles as a soundness
sweep (any divergence is a bug, not noise).

Arrival shaping models the two service-killer patterns:

* ``bursty`` — clients arrive in tight waves separated by idle gaps
  (thundering herd; exercises RETRY under in-flight pressure);
* ``diurnal`` — a day's sinusoidal load compressed into the run
  (``time_scale`` seconds of wall clock per simulated day);
* ``steady`` — uniform arrivals (the control);
* ``engine:NAME`` — the phase schedule of a dynamic workload engine
  (:mod:`repro.workloads.engines`), e.g. ``engine:kv-bursty`` — the
  same wave structure the engine's epoch stream has, driven as wall
  clock.

Everything is deterministic under ``seed``: arrival offsets, tenant
assignment, scenario choice, and every client's retry-jitter stream
all derive from one seed.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.serve.client import (
    AsyncServeClient,
    RetryExhausted,
    ServeError,
    local_reference,
    record_trace,
)
from repro.serve.protocol import canonical_json
from repro.trace.record import TraceRecorder

#: Default workload mix; every entry is a zero-argument scenario
#: factory producing a fresh CPU (device state included).
DEFAULT_SCENARIOS: Tuple[str, ...] = (
    "checksum",
    "file_filter",
    "substitution_cipher",
)


def _scenario_factory(name: str) -> Callable:
    from repro.workloads import programs

    builder = getattr(programs, name)
    return lambda: builder().make_cpu()


@dataclass(frozen=True)
class LoadGenConfig:
    """Shape of one load run."""

    clients: int = 100
    tenants: int = 4
    phase: str = "bursty"           # "bursty" | "diurnal" | "steady" | "engine:NAME"
    duration: float = 2.0           # arrival window, seconds
    burst_count: int = 8            # waves within the window (bursty)
    seed: int = 20260808
    scenarios: Sequence[str] = DEFAULT_SCENARIOS
    max_retries: int = 500
    max_open: int = 128             # local socket cap (fd budget)
    tenant_prefix: str = "load"

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.tenants < 1:
            raise ValueError("tenants must be >= 1")
        if self.phase.startswith("engine:"):
            from repro.workloads.engines import engine_schedule

            name = self.phase[len("engine:"):]
            try:
                engine_schedule(name)
            except KeyError:
                raise ValueError(
                    f"unknown dynamic engine in arrival phase: {name!r}"
                ) from None
        elif self.phase not in ("bursty", "diurnal", "steady"):
            raise ValueError(f"unknown arrival phase: {self.phase!r}")
        if self.duration < 0:
            raise ValueError("duration must be >= 0")
        if self.max_open < 1:
            raise ValueError("max_open must be >= 1")


@dataclass
class ClientOutcome:
    """One simulated client's verdict."""

    tenant: str
    scenario: str
    ok: bool
    divergent: bool = False
    retries: int = 0
    error: Optional[str] = None


@dataclass
class LoadReport:
    """Aggregate of a whole load run."""

    completed: int = 0
    failed: int = 0
    divergences: int = 0
    retries: int = 0
    elapsed: float = 0.0
    per_tenant: Dict[str, Dict[str, int]] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when every client finished with a bit-identical result."""
        return self.failed == 0 and self.divergences == 0

    def absorb(self, outcome: ClientOutcome) -> None:
        row = self.per_tenant.setdefault(
            outcome.tenant,
            {"completed": 0, "failed": 0, "divergences": 0, "retries": 0},
        )
        self.retries += outcome.retries
        row["retries"] += outcome.retries
        if outcome.ok and not outcome.divergent:
            self.completed += 1
            row["completed"] += 1
            return
        if outcome.divergent:
            self.divergences += 1
            row["divergences"] += 1
        self.failed += 1
        row["failed"] += 1
        if outcome.error and len(self.errors) < 20:
            self.errors.append(
                f"{outcome.tenant}/{outcome.scenario}: {outcome.error}"
            )

    def to_dict(self) -> Dict:
        return {
            "completed": self.completed,
            "failed": self.failed,
            "divergences": self.divergences,
            "retries": self.retries,
            "elapsed": self.elapsed,
            "per_tenant": self.per_tenant,
            "errors": list(self.errors),
        }


# -------------------------------------------------------------- arrivals


def arrival_offsets(config: LoadGenConfig) -> List[float]:
    """Deterministic start offset (seconds) for every simulated client.

    ``bursty`` packs arrivals into ``burst_count`` tight waves across
    the window; ``diurnal`` samples a compressed day (two humps via a
    raised cosine over the window); ``steady`` jitters a uniform grid.
    """
    rng = random.Random(config.seed)
    window = config.duration
    offsets: List[float] = []
    if window <= 0:
        return [0.0] * config.clients
    if config.phase.startswith("engine:"):
        from repro.workloads.engines import engine_schedule

        schedule = engine_schedule(config.phase[len("engine:"):])
        return schedule.offsets(config.clients, window, rng)
    if config.phase == "bursty":
        waves = max(1, config.burst_count)
        gap = window / waves
        for index in range(config.clients):
            wave = rng.randrange(waves)
            offsets.append(wave * gap + rng.random() * gap * 0.1)
    elif config.phase == "diurnal":
        # Rejection-sample a raised-cosine "daytime" intensity.
        for _ in range(config.clients):
            while True:
                t = rng.random()
                intensity = 0.5 - 0.5 * math.cos(2 * math.pi * t)
                if rng.random() <= intensity:
                    offsets.append(t * window)
                    break
    else:  # steady
        step = window / config.clients
        for index in range(config.clients):
            offsets.append(index * step + rng.random() * step * 0.5)
    return offsets


# -------------------------------------------------------------- workload


@dataclass
class PreparedTrace:
    """A scenario's shared wire trace and local reference result."""

    name: str
    events: TraceRecorder
    expected_signature: str   # canonical JSON
    expected_stats: str       # canonical JSON


def prepare_traces(names: Sequence[str]) -> List[PreparedTrace]:
    """Record each scenario once; all simulated clients share these."""
    prepared = []
    for name in names:
        factory = _scenario_factory(name)
        events = record_trace(factory)
        reference = local_reference(factory)
        prepared.append(PreparedTrace(
            name=name,
            events=events,
            expected_signature=canonical_json(reference["signature"]),
            expected_stats=canonical_json(reference["stats"]),
        ))
    return prepared


# ------------------------------------------------------------------ run


async def _run_one(
    host: str,
    port: int,
    tenant: str,
    trace: PreparedTrace,
    delay: float,
    gate: "asyncio.Semaphore",
    max_retries: int,
    backoff_seed: Optional[int] = None,
) -> ClientOutcome:
    if delay > 0:
        await asyncio.sleep(delay)
    outcome = ClientOutcome(tenant=tenant, scenario=trace.name, ok=False)
    async with gate:
        client = AsyncServeClient(
            host, port, tenant=tenant, max_retries=max_retries,
            backoff_seed=backoff_seed,
        )
        try:
            await client.connect()
            result = await client.check_trace(trace.events)
            outcome.retries = result.retries
            served = canonical_json(result.signature)
            stats = canonical_json(result.stats)
            if (served != trace.expected_signature
                    or stats != trace.expected_stats):
                outcome.divergent = True
                outcome.error = (
                    f"served result diverged: {served[:120]}..."
                )
            else:
                outcome.ok = True
        except RetryExhausted as error:
            outcome.retries = client.retry_events
            outcome.error = str(error)
        except (ServeError, ConnectionError, OSError,
                asyncio.IncompleteReadError) as error:
            outcome.retries = client.retry_events
            outcome.error = f"{type(error).__name__}: {error}"
        finally:
            await client.close()
    return outcome


async def run_async(
    host: str,
    port: int,
    config: Optional[LoadGenConfig] = None,
    traces: Optional[List[PreparedTrace]] = None,
) -> LoadReport:
    """Drive one full load run against a listening server."""
    config = config if config is not None else LoadGenConfig()
    if traces is None:
        traces = prepare_traces(config.scenarios)
    if not traces:
        raise ValueError("no scenarios to run")
    rng = random.Random(config.seed ^ 0x5EED)
    offsets = arrival_offsets(config)
    gate = asyncio.Semaphore(config.max_open)
    tasks = []
    for index in range(config.clients):
        tenant = (
            f"{config.tenant_prefix}-{index % config.tenants}"
        )
        trace = traces[rng.randrange(len(traces))]
        tasks.append(_run_one(
            host, port, tenant, trace, offsets[index], gate,
            config.max_retries,
            # Per-client decorrelated jitter, reproducible under seed.
            backoff_seed=config.seed * 65537 + index,
        ))
    started = time.monotonic()
    outcomes = await asyncio.gather(*tasks)
    report = LoadReport(elapsed=time.monotonic() - started)
    for outcome in outcomes:
        report.absorb(outcome)
    return report


def run(
    host: str,
    port: int,
    config: Optional[LoadGenConfig] = None,
    traces: Optional[List[PreparedTrace]] = None,
) -> LoadReport:
    """Synchronous wrapper around :func:`run_async`."""
    return asyncio.run(run_async(host, port, config=config, traces=traces))
