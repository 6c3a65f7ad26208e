"""``repro-run`` — execute named experiment suites through the runner.

Runs (workload × experiment) job suites from
:data:`repro.workloads.suites.EXPERIMENT_SUITES` on the parallel,
fault-tolerant, cache-aware engine, with live progress on stderr and a
markdown or JSON report on stdout.  A suite named after one of the
paper's 13 artefacts (:data:`repro.report.artefacts.ARTEFACTS`: tables
1-4, 6, 7, figs 5, 6, 13-16 and sec64) renders that artefact; any
other suite reports its jobs::

    repro-run --list-suites
    repro-run smoke
    repro-run table1 fig13 --workers 4 --epoch-scale 5000000
    repro-run tables --benchmarks gcc,astar,curl --format json -o out.json
    repro-run smoke --serial --no-cache
    repro-run --clear-cache

Scale defaults honour the benchmark harness environment knobs
(``REPRO_BENCH_EPOCH_SCALE`` / ``REPRO_BENCH_TRACE_WINDOW``), so CI can
shrink every entry point with two variables.  Results are cached under
``--cache-dir`` (default ``.repro-cache``): a warm re-run performs zero
recomputations, and a killed sweep resumes where it left off.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List

from repro.obs import FlightRecorder, SpanTracer, Tracer
from repro.report import format_snapshot, format_table
from repro.runner.cache import ResultCache, TraceCache
from repro.runner.scheduler import Runner, RunnerConfig
from repro.runner.specs import JobResult, JobSpec, positive_int_env, suite_jobs
from repro.workloads.generator import DEFAULT_EPOCH_SCALE, DEFAULT_TRACE_WINDOW

#: One headline metric per job kind for the summary table.
_HEADLINES = {
    "taint_fraction": "workload.taint_percent",
    "page_taint": "layout.tainted_percent",
    "hlatch": "hlatch.avoided_percent",
    "slatch": "slatch.model.overhead",
    "epochs": "platch.simple.overhead",
    "fp_sweep": "fp.multiplier.64",
    "chaos": "chaos.value",
    "trace_replay": "hlatch.avoided_percent",
    "trace_shard": "trace.shard.accesses",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-run",
        description="Run experiment suites on the parallel cache-aware engine.",
    )
    parser.add_argument(
        "suites", nargs="*",
        help="suite names (see --list-suites)",
    )
    parser.add_argument(
        "--list-suites", action="store_true",
        help="list available suites and exit",
    )
    parser.add_argument(
        "--benchmarks", metavar="NAME[,NAME...]",
        help="restrict suites to these workloads",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: up to 8, one per core)",
    )
    parser.add_argument(
        "--serial", action="store_true",
        help="force in-process serial execution (same as --workers 1)",
    )
    parser.add_argument(
        "--epoch-scale", type=int, default=None,
        help="instructions per epoch stream "
             f"(default REPRO_BENCH_EPOCH_SCALE or {DEFAULT_EPOCH_SCALE})",
    )
    parser.add_argument(
        "--trace-window", type=int, default=None,
        help="memory-access window for cache simulations "
             f"(default REPRO_BENCH_TRACE_WINDOW or {DEFAULT_TRACE_WINDOW})",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload generator seed propagated to every job",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=Path(".repro-cache"),
        help="result/trace cache directory (default .repro-cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="compute everything fresh; do not read or write the cache",
    )
    parser.add_argument(
        "--clear-cache", action="store_true",
        help="delete the cache directory contents and exit",
    )
    parser.add_argument(
        "--timeout", type=float, default=600.0,
        help="per-job timeout in seconds (default 600)",
    )
    parser.add_argument(
        "--retries", type=int, default=2,
        help="retries per failed/timed-out job (default 2)",
    )
    parser.add_argument(
        "--format", choices=["markdown", "json"], default="markdown",
        help="report format (default markdown)",
    )
    parser.add_argument(
        "-o", "--output", type=Path,
        help="write the report to a file instead of stdout",
    )
    parser.add_argument(
        "--trace", type=Path, metavar="DIR",
        help="write per-process JSONL trace shards (scheduler + every "
             "pool worker) into this directory; merge and inspect them "
             "with repro-trace",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-job progress on stderr",
    )
    parser.add_argument(
        "--columnar", action="store_true",
        help="run cache-simulation jobs through the zero-copy columnar "
             "trace path (trace_replay kind) instead of the object path; "
             "results are bit-identical",
    )
    parser.add_argument(
        "--shards", default=None, metavar="N|auto",
        help="with --columnar: shard count per replay "
             "(default REPRO_TRACE_SHARDS, else 1)",
    )
    return parser


def _expand_suites(args) -> Dict[str, List[JobSpec]]:
    """Each requested suite's job specs, in request order."""
    from repro.workloads.suites import EXPERIMENT_SUITES

    epoch_scale = (
        args.epoch_scale
        if args.epoch_scale is not None
        else positive_int_env("REPRO_BENCH_EPOCH_SCALE", DEFAULT_EPOCH_SCALE)
    )
    trace_window = (
        args.trace_window
        if args.trace_window is not None
        else positive_int_env("REPRO_BENCH_TRACE_WINDOW", DEFAULT_TRACE_WINDOW)
    )
    if epoch_scale <= 0 or trace_window <= 0:
        raise ValueError("--epoch-scale and --trace-window must be positive")
    benchmarks = (
        [name.strip() for name in args.benchmarks.split(",") if name.strip()]
        if args.benchmarks
        else None
    )
    suites: Dict[str, List[JobSpec]] = {}
    for suite in args.suites:
        if suite not in EXPERIMENT_SUITES:
            known = ", ".join(sorted(EXPERIMENT_SUITES))
            raise KeyError(
                f"unknown suite {suite!r} (available: {known})"
            )
        specs = suite_jobs(
            suite,
            epoch_scale=epoch_scale,
            trace_window=trace_window,
            seed=args.seed,
            benchmarks=benchmarks,
        )
        if args.columnar:
            specs = [_columnar_spec(spec, args.shards) for spec in specs]
        suites[suite] = specs
    return suites


def _columnar_spec(spec: JobSpec, shards) -> JobSpec:
    """Rewrite an ``hlatch`` job onto the columnar replay path.

    The resolved shard count is stamped into the spec params (never
    read from the environment inside the worker), so the content-
    addressed cache can distinguish runs only when the results could
    actually differ — which, by the merge-exactness invariant, they
    can't; the stamp exists so a cache hit is an honest replay of the
    same computation.
    """
    if spec.kind != "hlatch":
        return spec
    from repro.trace.shard import resolve_shard_count

    params = spec.params_dict()
    params["shards"] = resolve_shard_count(shards)
    return JobSpec.make(
        "trace_replay", spec.workload, seed=spec.seed, **params
    )


def _progress_printer(quiet: bool):
    if quiet:
        return None

    def report(result: JobResult, done: int, total: int) -> None:
        if result.from_cache:
            detail = "cached"
        elif result.ok:
            detail = f"{result.duration:.2f}s"
            if result.attempts > 1:
                detail += f", attempt {result.attempts}"
        else:
            detail = f"FAILED: {result.error}"
        status = "ok " if result.ok else "err"
        print(
            f"[{done}/{total}] {status} {result.spec.job_id} ({detail})",
            file=sys.stderr,
        )

    return report


def _headline(result: JobResult) -> str:
    if result.snapshot is None:
        return result.error or ""
    name = _HEADLINES.get(result.spec.kind)
    value = result.snapshot.get(name) if name else None
    if isinstance(value, float):
        return f"{name}={value:.4g}"
    if value is not None:
        return f"{name}={value}"
    return ""


def _render_artefacts(suites: Dict[str, List[JobSpec]],
                      results: Dict[str, JobResult]) -> Dict[str, str]:
    """Each requested paper artefact whose jobs all succeeded, rendered."""
    from repro.report.artefacts import ARTEFACTS

    rendered = {}
    for suite, specs in suites.items():
        jobs = [results[spec.job_id] for spec in specs]
        if suite in ARTEFACTS and all(job.ok for job in jobs):
            rendered[suite] = ARTEFACTS[suite].render(
                {job.spec.workload: job.snapshot for job in jobs}
            )
    return rendered


def _render_markdown(results: Dict[str, JobResult], runner: Runner,
                     suites: List[str], artefacts: Dict[str, str]) -> str:
    parts = list(artefacts.values())
    if set(suites) <= set(artefacts):
        return "\n\n".join(parts)
    rows = []
    for job_id in sorted(results):
        result = results[job_id]
        rows.append([
            job_id,
            result.status,
            "cache" if result.from_cache else "computed",
            result.attempts,
            _headline(result),
        ])
    jobs_table = format_table(
        ["job", "status", "source", "attempts", "headline"],
        rows,
        title=f"repro-run · {' '.join(suites)}",
    )
    runner_table = format_snapshot(
        runner.registry.snapshot(), title="runner metrics", precision=3
    )
    return "\n\n".join(parts + [jobs_table, runner_table])


def _render_json(results: Dict[str, JobResult], runner: Runner,
                 suites: List[str], artefacts: Dict[str, str]) -> str:
    import json

    payload = {
        "suites": suites,
        "jobs": {
            job_id: {
                "status": result.status,
                "from_cache": result.from_cache,
                "attempts": result.attempts,
                "duration": result.duration,
                "error": result.error,
                "snapshot": (
                    result.snapshot.to_dict() if result.snapshot else None
                ),
            }
            for job_id, result in sorted(results.items())
        },
        "runner": runner.registry.snapshot().to_dict(),
        "artefacts": artefacts,
    }
    return json.dumps(payload, indent=2)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from repro.workloads.suites import EXPERIMENT_SUITES

    if args.list_suites:
        for name, groups in EXPERIMENT_SUITES.items():
            kinds = ", ".join(sorted({kind for kind, _ in groups}))
            count = sum(len(names) for _, names in groups)
            print(f"{name:<12} {count:>3} jobs  ({kinds})")
        return 0

    if args.clear_cache:
        removed = ResultCache(args.cache_dir).clear()
        removed += TraceCache(args.cache_dir).clear()
        print(f"removed {removed} cached entries from {args.cache_dir}")
        return 0

    if not args.suites:
        print("error: no suites requested (try --list-suites)",
              file=sys.stderr)
        return 2

    try:
        suites = _expand_suites(args)
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else error
        print(f"error: {message}", file=sys.stderr)
        return 2
    jobs = list(dict.fromkeys(
        spec for specs in suites.values() for spec in specs
    ))
    # Only a suite that declares jobs (not Section 6.4) can match none.
    if not jobs and any(EXPERIMENT_SUITES[suite] for suite in suites):
        print("error: suite selection matched no jobs", file=sys.stderr)
        return 2

    workers = 1 if args.serial else args.workers
    config = RunnerConfig(
        job_timeout=args.timeout,
        max_retries=args.retries,
    )
    if workers is not None:
        if workers < 1:
            print("error: --workers must be >= 1", file=sys.stderr)
            return 2
        config.max_workers = workers

    tracer = None
    spans = None
    if args.trace:
        if args.trace.exists() and not args.trace.is_dir():
            print(
                f"error: --trace target {args.trace} exists and is not a "
                "directory (the tracer now writes per-process shards; "
                "point --trace at a directory)",
                file=sys.stderr,
            )
            return 2
        tracer = Tracer(shard_dir=str(args.trace))
        # $REPRO_FLIGHT_DIR overrides where the dump lands.
        from repro.obs.flight import flight_path

        flight = FlightRecorder(path=flight_path(str(args.trace)))
        spans = SpanTracer(tracer, flight=flight)
    runner = Runner(
        cache=None if args.no_cache else ResultCache(args.cache_dir),
        trace_cache=None if args.no_cache else TraceCache(args.cache_dir),
        config=config,
        spans=spans,
        progress=_progress_printer(args.quiet),
    )
    try:
        results = runner.run(jobs)
    finally:
        if tracer is not None:
            tracer.close()
            if not args.quiet:
                print(
                    f"trace shards in {args.trace} "
                    f"(inspect with: repro-trace {args.trace})",
                    file=sys.stderr,
                )

    artefacts = _render_artefacts(suites, results)
    if args.format == "json":
        text = _render_json(results, runner, args.suites, artefacts)
    else:
        text = _render_markdown(results, runner, args.suites, artefacts)
    if args.output:
        args.output.write_text(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)

    return 0 if all(result.ok for result in results.values()) else 1


def cli() -> None:  # pragma: no cover - console-script shim
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
