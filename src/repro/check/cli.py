"""``repro-check`` — drive the soundness oracle from the command line.

Subcommands:

* ``fuzz`` — generate and check N seeded programs across every gated
  path; on failure, shrink the reproducer and write it out as a corpus
  JSON (CI uploads these as artifacts).
* ``replay`` — re-run the committed regression corpus through the
  oracle (the bounded CI job and the pre-commit smoke).
* ``selftest`` — mutation self-validation: plant a known off-by-one in
  a copy of the update logic, confirm detection, and shrink.
* ``workloads`` — the production-zoo soundness pass: artifact
  invariants for every service-engine profile, the replay round-trip,
  and one differential-oracle program per engine family.

Exit status is non-zero whenever a violation (or a failed self-test)
occurs, so every mode is CI-gateable.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro.check.corpus import DEFAULT_CORPUS, load_corpus, save_program
from repro.check.generator import generate_program
from repro.check.oracle import ALL_PATHS, check_program
from repro.check.shrink import shrink_program


def _add_fuzz(subparsers) -> None:
    parser = subparsers.add_parser(
        "fuzz", help="generate and check seeded random programs"
    )
    parser.add_argument("--seeds", type=int, default=50,
                        help="number of programs to generate (default 50)")
    parser.add_argument("--start-seed", type=int, default=0,
                        help="first seed (default 0)")
    parser.add_argument("--time-budget", type=float, default=0.0,
                        help="stop after this many seconds (0 = no limit)")
    parser.add_argument("--out", type=Path, default=Path("check-failures"),
                        help="directory for shrunk failing programs")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report failures without delta-debugging them")
    parser.add_argument("--stats-out", type=Path, default=None,
                        help="write aggregated streaming-path queue/stall "
                             "metrics to this JSON file")
    parser.add_argument("--paths", default=None, metavar="PATH[,PATH...]",
                        help="restrict checking to these oracle paths "
                             f"(default all: {','.join(ALL_PATHS)})")


def _add_replay(subparsers) -> None:
    parser = subparsers.add_parser(
        "replay", help="re-run the committed regression corpus"
    )
    parser.add_argument("--corpus", type=Path, default=DEFAULT_CORPUS,
                        help=f"corpus directory (default {DEFAULT_CORPUS})")
    parser.add_argument("--stats-out", type=Path, default=None,
                        help="write aggregated streaming-path queue/stall "
                             "metrics to this JSON file")


def _add_selftest(subparsers) -> None:
    parser = subparsers.add_parser(
        "selftest", help="mutation self-validation of the oracle"
    )
    parser.add_argument("--max-seeds", type=int, default=50,
                        help="seeds to try before declaring failure")
    parser.add_argument("--max-instructions", type=int, default=25,
                        help="shrunk reproducer size budget")


def _add_workloads(subparsers) -> None:
    parser = subparsers.add_parser(
        "workloads", help="soundness pass over the workload-engine zoo"
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for engines and family programs")
    parser.add_argument("--names", default=None, metavar="NAME[,NAME...]",
                        help="restrict to these workload names "
                             "(default: the full service suite)")
    parser.add_argument("--epoch-scale", type=int, default=200_000,
                        help="epoch-stream budget per workload")
    parser.add_argument("--trace-window", type=int, default=20_000,
                        help="access-trace window per workload")
    parser.add_argument("--paths", default=None, metavar="PATH[,PATH...]",
                        help="restrict family programs to these oracle "
                             f"paths (default all: {','.join(ALL_PATHS)})")


def _stream_registry(args):
    """A shared registry for ``--stats-out`` aggregation (or None)."""
    if getattr(args, "stats_out", None) is None:
        return None
    from repro.obs import MetricsRegistry

    return MetricsRegistry()


def _resolve_paths(args):
    """Validate a ``--paths`` selection against :data:`ALL_PATHS`."""
    raw = getattr(args, "paths", None)
    if raw is None:
        return ALL_PATHS
    chosen = tuple(name.strip() for name in raw.split(",") if name.strip())
    unknown = [name for name in chosen if name not in ALL_PATHS]
    if unknown or not chosen:
        raise SystemExit(
            f"error: unknown oracle path(s) {', '.join(unknown) or '(none)'} "
            f"(available: {', '.join(ALL_PATHS)})"
        )
    return chosen


def _write_stats(args, registry, meta) -> None:
    if registry is None:
        return
    snapshot = registry.snapshot()
    snapshot.meta.update(meta)
    args.stats_out.parent.mkdir(parents=True, exist_ok=True)
    # Write-then-rename so a crash (or a parallel reader in CI) never
    # observes a partial artifact at the published path.
    scratch = args.stats_out.with_name(args.stats_out.name + ".tmp")
    scratch.write_text(snapshot.to_json(indent=2) + "\n")
    os.replace(scratch, args.stats_out)
    print(f"wrote streaming queue metrics -> {args.stats_out}")


def _cmd_fuzz(args) -> int:
    failures = 0
    checked = 0
    started = time.monotonic()
    stream_obs = _stream_registry(args)
    paths = _resolve_paths(args)
    for offset in range(args.seeds):
        if args.time_budget and time.monotonic() - started > args.time_budget:
            print(f"time budget reached after {checked} seeds")
            break
        seed = args.start_seed + offset
        cp = generate_program(seed)
        report = check_program(cp, paths=paths, stream_obs=stream_obs)
        checked += 1
        if report.ok:
            continue
        failures += 1
        first = report.violations[0]
        print(f"seed {seed}: {first}")
        if not args.no_shrink:
            shrunk = shrink_program(cp, first)
            path = save_program(shrunk, args.out, note=str(first))
            print(
                f"  shrunk to {len(shrunk.body)} ops / "
                f"{shrunk.instruction_count()} instructions -> {path}"
            )
        else:
            path = save_program(cp, args.out, note=str(first))
            print(f"  saved unshrunk -> {path}")
    elapsed = time.monotonic() - started
    print(f"checked {checked} programs in {elapsed:.1f}s: "
          f"{failures} failing")
    _write_stats(args, stream_obs, {
        "command": "fuzz",
        "programs": checked,
        "start_seed": args.start_seed,
        "paths": ",".join(paths),
    })
    return 1 if failures else 0


def _cmd_replay(args) -> int:
    programs = load_corpus(args.corpus)
    if not programs:
        print(f"no corpus entries under {args.corpus}")
        return 0
    failures = 0
    stream_obs = _stream_registry(args)
    for cp in programs:
        report = check_program(cp, paths=ALL_PATHS, stream_obs=stream_obs)
        status = "ok" if report.ok else "FAIL"
        print(f"{cp.name}: {status} ({report.runs} runs)")
        for violation in report.violations:
            failures += 1
            print(f"  {violation}")
    print(f"replayed {len(programs)} corpus programs: {failures} violations")
    _write_stats(args, stream_obs, {
        "command": "replay",
        "programs": len(programs),
    })
    return 1 if failures else 0


def _cmd_selftest(args) -> int:
    from repro.check.mutation import run_selftest

    result = run_selftest(max_seeds=args.max_seeds)
    if not result.detected:
        print(f"SELFTEST FAILED: planted bug not detected in "
              f"{result.seeds_tried} seeds")
        return 1
    first = result.report.violations[0]
    print(f"planted bug detected at seed {result.seed} "
          f"({result.seeds_tried} seeds tried): {first}")
    if result.shrunk is None:
        print("shrinking skipped")
        return 0
    count = result.shrunk_instructions
    print(f"shrunk reproducer: {len(result.shrunk.body)} body ops, "
          f"{count} instructions")
    if count > args.max_instructions:
        print(f"SELFTEST FAILED: reproducer exceeds "
              f"{args.max_instructions}-instruction budget")
        return 1
    return 0


def _cmd_workloads(args) -> int:
    from repro.check.workloads import run_workloads

    names = None
    if args.names:
        names = [name.strip() for name in args.names.split(",")
                 if name.strip()]
    failures = run_workloads(
        seed=args.seed,
        names=names,
        paths=_resolve_paths(args),
        epoch_scale=args.epoch_scale,
        trace_window=args.trace_window,
    )
    print(f"workload zoo soundness pass: {failures} violations")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="Differential soundness checking of the LATCH stack",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_fuzz(subparsers)
    _add_replay(subparsers)
    _add_selftest(subparsers)
    _add_workloads(subparsers)
    return parser


def cli(argv=None) -> int:
    """Console entry point (``repro-check``)."""
    args = build_parser().parse_args(argv)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "workloads":
        return _cmd_workloads(args)
    return _cmd_selftest(args)


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(cli())


if __name__ == "__main__":  # pragma: no cover
    main()
