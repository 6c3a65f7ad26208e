"""paper-tables: regenerate Tables 1-4, 6, 7 and Figs. 13/14 via the runner.

The ``tables`` and ``overhead`` suites run in-process and serially
through ``repro.runner.Runner`` into a fresh temporary cache per pass,
at explicit scales, exactly as a researcher regenerates the paper's
artefacts.  This workload bypasses the pipeline and serve layers.
Passes repeat while the next one still fits the time budget; every
job must succeed and every pass must produce the same snapshots.
"""

from __future__ import annotations

import tempfile
import time
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Sequence

from ledger import TABLE_TARGETS, Ledger, coverage, layer_metrics, median

from repro.runner import (
    ResultCache,
    Runner,
    RunnerConfig,
    TraceCache,
    suite_jobs,
)

SUITES = ("tables", "overhead")
EPOCH_SCALE = 20_000_000
TRACE_WINDOW = 150_000


def job_specs(seed: int, epoch_scale: int = EPOCH_SCALE,
              trace_window: int = TRACE_WINDOW,
              benchmarks: Optional[Sequence[str]] = None):
    specs = []
    for suite in SUITES:
        specs.extend(suite_jobs(suite, epoch_scale=epoch_scale,
                                trace_window=trace_window, seed=seed,
                                benchmarks=benchmarks))
    return specs


def one_pass(specs, scratch: str, ledger: Optional[Ledger] = None):
    """Run every spec into a fresh cache; returns (seconds, results)."""
    with tempfile.TemporaryDirectory(dir=scratch) as cache_dir:
        runner = Runner(
            cache=ResultCache(cache_dir),
            trace_cache=TraceCache(cache_dir),
            config=RunnerConfig(max_workers=1),
        )
        with nullcontext() if ledger is None else ledger.span("tables.pass"):
            start = time.perf_counter()
            results = runner.run(specs)
            elapsed = time.perf_counter() - start
    return elapsed, results


def passes(specs, seconds: float, scratch: str,
           ledger: Optional[Ledger] = None) -> List:
    """Whole passes while the next one is expected to fit ``seconds``."""
    done: List = []
    spent = 0.0
    while True:
        elapsed, results = one_pass(specs, scratch, ledger)
        done.append((elapsed, results))
        spent += elapsed
        if spent + elapsed > seconds:
            return done


def _snapshots(results) -> Dict[str, Dict]:
    return {
        job: result.snapshot.to_dict()
        for job, result in results.items() if result.ok
    }


def run_workload(
    seed: int, seconds: float, trace: bool, scratch: str,
    mark_setup_done: Callable[[], None], spans_path=None,
    epoch_scale: int = EPOCH_SCALE, trace_window: int = TRACE_WINDOW,
    benchmarks: Optional[Sequence[str]] = None,
) -> Dict:
    specs = job_specs(seed, epoch_scale, trace_window, benchmarks)
    # Warm the imports and first-call paths of every job kind.
    one_pass(job_specs(seed, 100_000, 2_000, ("gcc",)), scratch)
    mark_setup_done()
    out: Dict = {"metrics": {}, "notes": {}, "layers": {}}
    if not trace:
        plain = passes(specs, seconds, scratch)
        checked = plain
    else:
        plain = passes(specs, seconds / 2, scratch)
        ledger = Ledger().install(TABLE_TARGETS)
        try:
            traced = passes(specs, seconds / 2, scratch, ledger)
        finally:
            ledger.restore()
        checked = plain + traced
        traced_wall = sum(elapsed for elapsed, _ in traced)
        layers = layer_metrics([ledger.to_dict()], traced_wall)
        out["layers"].update(layers)
        out["layers"]["trace.coverage_frac"] = coverage(layers)
        out["layers"]["trace_overhead_frac"] = (
            median([elapsed for elapsed, _ in traced])
            / median([elapsed for elapsed, _ in plain]) - 1.0
        )
        if spans_path is not None:
            ledger.write_spans(spans_path)

    attempted = failed = 0
    errors: List[str] = []
    reference = _snapshots(checked[0][1])
    for _, results in checked:
        attempted += len(results)
        snapshots = _snapshots(results)
        for job, result in results.items():
            if not result.ok:
                failed += 1
                errors.append(f"{job}: {result.error}")
            elif snapshots[job] != reference.get(job):
                failed += 1
                errors.append(f"{job}: snapshot differs between passes")
    pass_s = [elapsed for elapsed, _ in plain]
    out["attempted"] = attempted
    out["failed"] = failed
    out["errors"] = errors[:5]
    out["metrics"].update({
        "work_per_s": len(specs) / median(pass_s),
        "latency_p50_ms": median(pass_s) * 1000.0,
    })
    out["notes"].update({
        "tables_s": (median(pass_s), "s"),
        "passes": (len(pass_s), "count"),
        "jobs_per_pass": (len(specs), "count"),
    })
    out["layers"]["runner.jobs"] = len(specs)
    return out
