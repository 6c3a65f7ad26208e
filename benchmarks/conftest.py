"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and
prints it (measured next to the paper's value where the paper states
one).  Scale knobs (validated at collection time — a non-positive or
non-integer value fails fast with the variable's name):

* ``REPRO_BENCH_EPOCH_SCALE`` — instructions per benchmark for the
  temporal analyses and performance models (default 20 M; the paper
  used 500 M-instruction windows).
* ``REPRO_BENCH_TRACE_WINDOW`` — memory-access window for the cache
  simulations (default 150 K instructions).
* ``REPRO_BENCH_WORKERS`` — worker processes for the runner-backed
  table and figure benchmarks (default 1: in-process execution).
* ``REPRO_BENCH_CACHE_DIR`` — result/trace cache directory (default
  ``benchmarks/.cache``; delete it or run ``repro-run --clear-cache
  --cache-dir benchmarks/.cache`` to force recomputation).

Every table and figure benchmark takes its numbers from
:func:`run_jobs`: the :class:`repro.runner.Runner` job snapshots that
``repro-run <id>`` renders too, so a benchmark and the CLI cannot
disagree, and a re-run recomputes only cells whose spec changed.  The
ablations and kernel benchmarks read workloads directly through
:func:`epoch_stream_for` / :func:`access_trace_for`, which share the
jobs' :class:`repro.runner.TraceCache`, so one generation pass feeds
every consumer.

Rendered tables are also written to ``benchmarks/out/`` so they survive
pytest's output capture.
"""

from __future__ import annotations

import os
import pathlib
from typing import Dict, Sequence

import pytest

from repro.obs import StatsSnapshot
from repro.runner import (
    JobSpec,
    ResultCache,
    Runner,
    RunnerConfig,
    TraceCache,
    positive_int_env,
)
from repro.runner.specs import scale_params
from repro.workloads import WorkloadGenerator, all_profiles, make_generator


def _scale_env(name: str, default: int) -> int:
    """Validated environment knob (clear failure instead of a deep crash)."""
    try:
        return positive_int_env(name, default)
    except ValueError as error:
        raise pytest.UsageError(str(error))


EPOCH_SCALE = _scale_env("REPRO_BENCH_EPOCH_SCALE", 20_000_000)
TRACE_WINDOW = _scale_env("REPRO_BENCH_TRACE_WINDOW", 150_000)
BENCH_WORKERS = _scale_env("REPRO_BENCH_WORKERS", 1)

_HERE = pathlib.Path(__file__).resolve().parent
_OUT_DIR = _HERE / "out"
_CACHE_DIR = pathlib.Path(
    os.environ.get("REPRO_BENCH_CACHE_DIR", str(_HERE / ".cache"))
)

_TRACE_CACHE = TraceCache(_CACHE_DIR)
_RUNNER = Runner(
    cache=ResultCache(_CACHE_DIR),
    trace_cache=_TRACE_CACHE,
    config=RunnerConfig(max_workers=BENCH_WORKERS),
)

_GENERATORS = {}
_EPOCH_STREAMS = {}
_ACCESS_TRACES = {}


def generator_for(name: str) -> WorkloadGenerator:
    """Cached workload generator (the runner jobs' dispatch)."""
    if name not in _GENERATORS:
        _GENERATORS[name] = make_generator(name)
    return _GENERATORS[name]


def epoch_stream_for(name: str):
    """Full-scale epoch stream, cached in memory and on disk."""
    if name not in _EPOCH_STREAMS:
        _EPOCH_STREAMS[name] = _TRACE_CACHE.epoch_stream(
            generator_for(name), EPOCH_SCALE
        )
    return _EPOCH_STREAMS[name]


def access_trace_for(name: str):
    """Access-trace window, cached in memory and on disk."""
    if name not in _ACCESS_TRACES:
        _ACCESS_TRACES[name] = _TRACE_CACHE.access_trace(
            generator_for(name), TRACE_WINDOW
        )
    return _ACCESS_TRACES[name]


def run_jobs(kind: str, names: Sequence[str]) -> Dict[str, StatsSnapshot]:
    """Run one ``kind`` job per benchmark through the shared runner.

    Returns ``{benchmark name: snapshot}`` in ``names`` order; raises
    if any job failed so a benchmark never silently asserts against
    missing data.
    """
    specs = [
        JobSpec.make(
            kind, name, **scale_params(kind, EPOCH_SCALE, TRACE_WINDOW)
        )
        for name in names
    ]
    results = _RUNNER.run(specs)
    failed = {
        result.spec.workload: result.error
        for result in results.values()
        if not result.ok
    }
    if failed:
        raise RuntimeError(f"runner jobs failed: {failed}")
    return {spec.workload: results[spec.job_id].snapshot for spec in specs}


def metric(snapshots: Dict[str, StatsSnapshot], name: str) -> Dict[str, float]:
    """``{benchmark name: its snapshot's value of metric name}``."""
    return {workload: snap.get(name) for workload, snap in snapshots.items()}


def spec_names():
    return [p.name for p in all_profiles() if p.kind == "spec"]


def network_names():
    return [p.name for p in all_profiles() if p.kind == "network"]


def emit(artifact_name: str, text: str) -> None:
    """Print a rendered table and persist it under benchmarks/out/."""
    print()
    print(text)
    _OUT_DIR.mkdir(exist_ok=True)
    (_OUT_DIR / f"{artifact_name}.txt").write_text(text + "\n")
