"""Configuration for the streaming P-LATCH pipeline.

Every knob is settable three ways, most specific wins:

1. explicit constructor arguments (tests, embedding code);
2. ``REPRO_PIPELINE_*`` environment variables via :meth:`PipelineConfig.
   from_env` (the CLI tools and ``repro-check`` replay read these, so a
   shrunk corpus reproducer re-runs under the same execution mode that
   produced it);
3. the defaults below, which match the paper's P-LATCH parameters
   (1024-entry LBA queue scaled to the toy machine, LBA-simple analysis
   cost).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

#: Per-event monitor cost implied by the LBA-simple 3.38x overhead
#: (``repro.platch.lba.LBA_SIMPLE.analysis_cycles_per_event``); kept as
#: a literal so this module stays import-cycle-free with ``repro.platch``.
DEFAULT_ANALYSIS_CYCLES = 4.38

ENV_QUEUE_CAPACITY = "REPRO_PIPELINE_QUEUE_CAPACITY"
ENV_DRAIN_BATCH = "REPRO_PIPELINE_DRAIN_BATCH"
ENV_SAMPLE_RATE = "REPRO_PIPELINE_SAMPLE_RATE"
ENV_SAMPLE_WINDOW = "REPRO_PIPELINE_SAMPLE_WINDOW"
ENV_SAMPLE_SEED = "REPRO_PIPELINE_SAMPLE_SEED"


@dataclass(frozen=True)
class SamplingConfig:
    """HardTaint-style selective-tracing dial.

    Candidate events (those the LATCH gate would enqueue) are grouped
    into windows of ``window`` events; each window is monitored with
    probability ``rate`` by a private ``random.Random(seed)``, so a
    given (rate, window, seed) triple replays the *same* coverage on
    the same program.  ``rate == 1.0`` disables sampling entirely.

    Sampled-out events are dropped before the queue: no precise
    analysis, no pending-FIFO entry, no conservative TRF marking.
    That is a deliberate coverage loss — the knob trades soundness of
    *coverage* for producer overhead, never correctness of what *is*
    monitored.  Taint-source/sink (INPUT/OUTPUT) events bypass sampling
    so policy state stays well-defined.
    """

    rate: float = 1.0
    window: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.rate <= 1.0):
            raise ValueError(f"sampling rate must be in (0, 1], got {self.rate}")
        if self.window < 1:
            raise ValueError(f"sampling window must be >= 1, got {self.window}")

    @property
    def active(self) -> bool:
        """True when sampling can actually drop events."""
        return self.rate < 1.0


@dataclass(frozen=True)
class PipelineConfig:
    """Structural parameters of one streaming pipeline instance.

    Attributes:
        queue_capacity: shared FIFO depth; a full queue forces an
            immediate partial drain (the producer stall of Figure 11).
        drain_batch: events the monitor stage processes per automatic
            drain episode.
        sampling: the selective-tracing dial.
        analysis_cycles_per_event: monitor cost per queued event for
            the stall model (default: LBA-simple, 4.38 cycles).
    """

    queue_capacity: int = 256
    drain_batch: int = 64
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    analysis_cycles_per_event: float = DEFAULT_ANALYSIS_CYCLES

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.drain_batch < 1:
            raise ValueError("drain_batch must be >= 1")
        if self.analysis_cycles_per_event <= 0:
            raise ValueError("analysis_cycles_per_event must be positive")

    # ------------------------------------------------------------ derived

    @property
    def pending_capacity(self) -> int:
        """Pending-FIFO depth sized so ordinary runs never fill it.

        Outstanding pending entries are bounded by queued step events
        (each instruction writes at most one memory operand), so
        ``4x queue`` leaves the stall-retry path as a belt-and-suspenders
        fallback only.
        """
        return max(4 * self.queue_capacity, self.queue_capacity + 10)

    # ----------------------------------------------------------------- env

    @classmethod
    def from_env(
        cls, env: Optional[Mapping[str, str]] = None, **overrides
    ) -> "PipelineConfig":
        """Build a config from ``REPRO_PIPELINE_*`` variables.

        Unset variables fall back to the dataclass defaults; explicit
        ``overrides`` win over the environment (the CLI flag path).

        Raises:
            ValueError: a variable does not parse as its type; the
                message names the variable.
        """
        env = os.environ if env is None else env

        def _parse(name: str, kind, noun: str):
            raw = env.get(name)
            if raw in (None, ""):
                return None
            try:
                return kind(raw)
            except ValueError:
                raise ValueError(
                    f"{name} must be {noun}, got {raw!r}"
                ) from None

        def _int(name: str):
            return _parse(name, int, "an integer")

        def _float(name: str):
            return _parse(name, float, "a number")

        values = {}
        for key, reader, var in (
            ("queue_capacity", _int, ENV_QUEUE_CAPACITY),
            ("drain_batch", _int, ENV_DRAIN_BATCH),
        ):
            parsed = reader(var)
            if parsed is not None:
                values[key] = parsed

        sampling_values = {}
        rate = _float(ENV_SAMPLE_RATE)
        if rate is not None:
            sampling_values["rate"] = rate
        window = _int(ENV_SAMPLE_WINDOW)
        if window is not None:
            sampling_values["window"] = window
        seed = _int(ENV_SAMPLE_SEED)
        if seed is not None:
            sampling_values["seed"] = seed
        if sampling_values:
            values["sampling"] = SamplingConfig(**sampling_values)

        values.update(overrides)
        return cls(**values)

    def replace(self, **changes) -> "PipelineConfig":
        """A copy with ``changes`` applied (frozen-dataclass helper)."""
        return replace(self, **changes)
