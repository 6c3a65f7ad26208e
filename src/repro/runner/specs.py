"""Job specifications for the experiment runner.

A *job* is the unit of scheduling: one experiment kind applied to one
workload at explicit scales and seed.  Specs are frozen, hashable, and
fully serialisable, because they cross process boundaries (pickled to
pool workers) and name cache entries on disk.

The cache key (:meth:`JobSpec.key`) is content-addressed: it digests
the spec fields together with everything else that could change the
result —

* the job-key schema version (:data:`JOB_KEY_VERSION`),
* the artefact container format (:data:`repro.trace.format.TRACE_VERSION`),
* the snapshot format (:data:`repro.obs.snapshot.SNAPSHOT_VERSION`),
* the package version (:data:`repro.__version__`), and
* a fingerprint of the workload's calibrated profile, so recalibrating
  a benchmark invalidates exactly that benchmark's cells.

Named suites (the paper's table groupings) live in
:mod:`repro.workloads.suites`; :func:`suite_jobs` expands one into
concrete specs at the caller's scales.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.snapshot import SNAPSHOT_VERSION, StatsSnapshot
from repro.workloads.generator import DEFAULT_EPOCH_SCALE, DEFAULT_TRACE_WINDOW
from repro.workloads.profiles import get_profile
from repro.trace.format import TRACE_VERSION

#: Bumped whenever the key payload layout (not the results) changes.
#: v3: the kernel-backend field left the payload (one replay path).
JOB_KEY_VERSION = 3

#: Experiment kinds the worker knows how to execute.  ``epochs`` and
#: ``fp_sweep`` back Figures 5/15 and 6; ``chaos`` is the
#: fault-injection kind used by the fault-tolerance tests and docs;
#: ``trace_shard`` computes one shard's summary of a columnar ``.ltrace``
#: replay (internal to the sharded-replay fan-out), and ``trace_replay``
#: is the user-facing whole-trace columnar replay.
JOB_KINDS = (
    "taint_fraction", "page_taint", "hlatch", "slatch", "epochs",
    "fp_sweep", "chaos", "trace_shard", "trace_replay",
)

ParamValue = Union[int, float, str, bool, None]


def _package_version() -> str:
    from repro import __version__

    return __version__


@dataclass(frozen=True)
class JobSpec:
    """One (experiment kind × workload × scales × seed) cell.

    ``params`` is a sorted tuple of ``(name, value)`` pairs so the spec
    stays hashable and its canonical JSON form is order-independent.
    """

    kind: str
    workload: str
    seed: int = 0
    params: Tuple[Tuple[str, ParamValue], ...] = field(default_factory=tuple)

    @classmethod
    def make(
        cls, kind: str, workload: str, seed: int = 0, **params: ParamValue
    ) -> "JobSpec":
        """Build a spec from keyword params (canonicalised, validated)."""
        if kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {kind!r} (expected one of {JOB_KINDS})"
            )
        return cls(
            kind=kind,
            workload=workload,
            seed=int(seed),
            params=tuple(sorted(params.items())),
        )

    # -------------------------------------------------------------- access

    @property
    def job_id(self) -> str:
        """Human-readable identity used in results, progress, and logs."""
        return f"{self.kind}:{self.workload}"

    def param(self, name: str, default: ParamValue = None) -> ParamValue:
        """Value of one parameter, or ``default``."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    def params_dict(self) -> Dict[str, ParamValue]:
        """Parameters as a plain dict."""
        return dict(self.params)

    # ------------------------------------------------------- serialisation

    def to_dict(self) -> Dict[str, object]:
        """JSON/pickle-ready form."""
        return {
            "kind": self.kind,
            "workload": self.workload,
            "seed": self.seed,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "JobSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kind=payload["kind"],
            workload=payload["workload"],
            seed=int(payload.get("seed", 0)),
            params=tuple(sorted(dict(payload.get("params", {})).items())),
        )

    # ------------------------------------------------------------- hashing

    def _profile_fingerprint(self) -> Optional[str]:
        """Digest of the workload's calibrated profile (None if no profile)."""
        try:
            profile = get_profile(self.workload)
        except KeyError:
            return None
        blob = json.dumps(dataclasses.asdict(profile), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def key(self) -> str:
        """Content-addressed cache key (hex sha256)."""
        payload = {
            "job_key_version": JOB_KEY_VERSION,
            "trace_format_version": TRACE_VERSION,
            "snapshot_version": SNAPSHOT_VERSION,
            "package_version": _package_version(),
            "profile": self._profile_fingerprint(),
            "spec": self.to_dict(),
        }
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class JobResult:
    """Outcome of one job, cached or freshly computed."""

    spec: JobSpec
    status: str  # "ok" | "failed"
    snapshot: Optional[StatsSnapshot] = None
    from_cache: bool = False
    attempts: int = 1
    duration: float = 0.0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the job produced a snapshot."""
        return self.status == "ok"


# ------------------------------------------------------------------ suites


def scale_params(kind: str, epoch_scale: int, trace_window: int):
    """The scale knobs each experiment kind actually consumes."""
    if kind in ("taint_fraction", "epochs"):
        return {"epoch_scale": epoch_scale}
    if kind == "page_taint":
        return {}
    if kind in ("hlatch", "fp_sweep"):
        return {"trace_window": trace_window}
    if kind == "slatch":
        return {"epoch_scale": epoch_scale, "trace_window": trace_window}
    raise ValueError(f"suite expansion does not support kind {kind!r}")


def suite_jobs(
    suite: str,
    epoch_scale: int = DEFAULT_EPOCH_SCALE,
    trace_window: int = DEFAULT_TRACE_WINDOW,
    seed: int = 0,
    benchmarks: Optional[Sequence[str]] = None,
) -> List[JobSpec]:
    """Expand a named suite from :mod:`repro.workloads.suites` into specs.

    Args:
        suite: key of :data:`repro.workloads.suites.EXPERIMENT_SUITES`.
        epoch_scale / trace_window: scales stamped into each spec (and
            therefore into its cache key).
        seed: workload generator seed propagated to every job.
        benchmarks: optional subset filter by workload name.

    Raises:
        KeyError: unknown suite name.
    """
    from repro.workloads.suites import EXPERIMENT_SUITES

    groups = EXPERIMENT_SUITES[suite]
    keep = set(benchmarks) if benchmarks is not None else None
    jobs: List[JobSpec] = []
    seen = set()
    for kind, names in groups:
        for name in names:
            if keep is not None and name not in keep:
                continue
            spec = JobSpec.make(
                kind, name, seed=seed,
                **scale_params(kind, epoch_scale, trace_window),
            )
            if spec.job_id in seen:
                continue
            seen.add(spec.job_id)
            jobs.append(spec)
    return jobs


def positive_int_env(name: str, default: int) -> int:
    """Read a positive-integer environment knob with a clear error.

    Used by the benchmark harness (``REPRO_BENCH_EPOCH_SCALE`` /
    ``REPRO_BENCH_TRACE_WINDOW``) and the ``repro-run`` CLI defaults,
    so a typo fails at startup with the variable's name instead of
    crashing deep inside the workload generator.
    """
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be a positive integer, got {raw!r}"
        ) from None
    if value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return value
