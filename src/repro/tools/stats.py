"""``repro-stats`` — run a workload and emit an observability report.

Two modes, one output model (:class:`repro.obs.StatsSnapshot`):

**Program mode** — execute a toy-ISA program under a monitor (or
``--monitor none``) and report the full stack's metrics; the guest's
console output goes to stderr::

    repro-stats program.s --monitor slatch --file in.txt=payload.bin
    repro-stats program.s --monitor dift --format json -o stats.json
    repro-stats program.s --monitor none

**Profile mode** — replay one of the 27 calibrated workload profiles
through the same measurement pipeline the benchmark harness uses
(``measure_hw_rates`` + ``simulate_slatch``) and report CTC hit rate,
TLB screening fraction, the taint-free epoch-duration histogram, and
the Section 6.1 model estimates::

    repro-stats --profile sphinx
    repro-stats --profile wget --epoch-scale 5000000 --format json

``--format markdown`` (default) renders a table via the report layer;
``--format json`` emits the snapshot itself, loadable with
``StatsSnapshot.from_json``.  ``--trace PATH`` additionally streams
JSONL mode-switch events (program mode under ``--monitor slatch``).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from repro.core.latch import LatchConfig, LatchModule
from repro.dift.engine import DIFTEngine
from repro.isa.assembler import AssemblyError, assemble
from repro.machine.cpu import CPU, ExecutionError
from repro.machine.devices import DeviceTable, VirtualFile
from repro.obs import MetricsRegistry, StatsSnapshot, Tracer
from repro.report import format_snapshot
from repro.slatch.controller import SLatchSystem
from repro.slatch.costs import SLatchCostModel
from repro.slatch.simulator import measure_hw_rates, simulate_slatch
from repro.workloads import (
    SERVICE_SUITE,
    all_profiles,
    characterize,
    make_generator,
)
from repro.workloads.generator import DEFAULT_EPOCH_SCALE, DEFAULT_TRACE_WINDOW


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-stats",
        description="Run a workload and emit a metrics report.",
    )
    parser.add_argument(
        "source", nargs="?", type=Path,
        help="assembly source file (program mode)",
    )
    parser.add_argument(
        "--profile", metavar="NAME",
        help="workload name (profile mode): a calibrated profile, a "
             "service engine, or ltrace:PATH to replay a recorded "
             "trace; use --list-profiles to enumerate",
    )
    parser.add_argument(
        "--zoo", nargs="*", metavar="NAME",
        help="zoo mode: per-profile epoch/locality characterization "
             "table; with no names, sweeps the service-engine suite "
             "(pass 'all' for every registered profile)",
    )
    parser.add_argument(
        "--list-profiles", action="store_true",
        help="list available workload profiles and exit",
    )
    parser.add_argument(
        "--monitor", choices=["slatch", "dift", "platch", "none"],
        default="slatch",
        help="program mode: monitoring system to attach, or none "
             "(default slatch)",
    )
    parser.add_argument(
        "--file", action="append", default=[],
        metavar="NAME=PATH[:untainted]",
        help="program mode: register a virtual file backed by a host file",
    )
    parser.add_argument(
        "--timeout", type=int, default=1000,
        help="S-LATCH return-to-hardware timeout in instructions",
    )
    parser.add_argument(
        "--max-steps", type=int, default=5_000_000,
        help="program mode: instruction budget (default 5M)",
    )
    parser.add_argument(
        "--epoch-scale", type=int, default=DEFAULT_EPOCH_SCALE,
        help=f"profile mode: instructions in the epoch stream "
             f"(default {DEFAULT_EPOCH_SCALE})",
    )
    parser.add_argument(
        "--trace-window", type=int, default=DEFAULT_TRACE_WINDOW,
        help=f"profile mode: memory-access window for rate measurement "
             f"(default {DEFAULT_TRACE_WINDOW})",
    )
    parser.add_argument(
        "--ltrace", type=Path, metavar="PATH",
        help="columnar mode: replay a recorded .ltrace access trace "
             "through the H-LATCH stack (zero-copy, sharded)",
    )
    parser.add_argument(
        "--shards", default=None, metavar="N|auto",
        help="columnar mode: shard count for the sharded replay "
             "(default: REPRO_TRACE_SHARDS, else 1)",
    )
    parser.add_argument(
        "--record-trace", type=Path, metavar="PATH",
        help="program mode: additionally record the commit stream as a "
             "columnar .ltrace event trace",
    )
    parser.add_argument(
        "--format", choices=["markdown", "json"], default="markdown",
        help="output format (default markdown)",
    )
    parser.add_argument(
        "-o", "--output", type=Path,
        help="write the report to a file instead of stdout",
    )
    parser.add_argument(
        "--trace", type=Path,
        help="stream JSONL trap/return events to this file "
             "(program mode, --monitor slatch/platch)",
    )
    platch = parser.add_argument_group(
        "p-latch pipeline knobs (program mode, --monitor platch; "
        "each overrides its REPRO_PIPELINE_* environment variable)"
    )
    platch.add_argument(
        "--queue-capacity", type=int, default=None,
        help="bounded event-queue capacity in entries",
    )
    platch.add_argument(
        "--sample-rate", type=float, default=None,
        help="fraction of admitted windows to monitor (0 < rate <= 1)",
    )
    platch.add_argument(
        "--sample-window", type=int, default=None,
        help="sampling window size in admitted events",
    )
    platch.add_argument(
        "--sample-seed", type=int, default=None,
        help="seed for the sampling decision stream",
    )
    return parser


def _parse_file_spec(spec: str) -> VirtualFile:
    name, _, rest = spec.partition("=")
    if not rest:
        raise ValueError(f"bad --file spec {spec!r} (expected NAME=PATH)")
    path, _, flag = rest.partition(":")
    tainted = flag.strip().lower() != "untainted"
    return VirtualFile(name, Path(path).read_bytes(), tainted=tainted)


# ---------------------------------------------------------------- modes


def _platch_config(args):
    """The pipeline config: env knobs with CLI flags layered on top."""
    from repro.pipeline import PipelineConfig

    overrides = {}
    if args.queue_capacity is not None:
        overrides["queue_capacity"] = args.queue_capacity
    config = PipelineConfig.from_env(**overrides)

    sampling = {}
    if args.sample_rate is not None:
        sampling["rate"] = args.sample_rate
    if args.sample_window is not None:
        sampling["window"] = args.sample_window
    if args.sample_seed is not None:
        sampling["seed"] = args.sample_seed
    if sampling:
        config = config.replace(
            sampling=dataclasses.replace(config.sampling, **sampling)
        )
    return config


def run_program(args) -> StatsSnapshot:
    """Program mode: execute under a monitor, return the stack snapshot."""
    program = assemble(args.source.read_text())
    devices = DeviceTable()
    for spec in args.file:
        devices.register_file(_parse_file_spec(spec))
    cpu = CPU(program, devices=devices)

    recorder = None
    if args.record_trace is not None:
        from repro.trace import TraceRecorder

        recorder = TraceRecorder(name=str(args.source))
        cpu.attach(recorder)

    tracer = Tracer(path=str(args.trace)) if args.trace else None
    if args.monitor == "slatch":
        costs = dataclasses.replace(
            SLatchCostModel(), timeout_instructions=args.timeout
        )
        system = SLatchSystem(cpu, costs=costs, tracer=tracer)
        try:
            cpu.run(args.max_steps)
        finally:
            if tracer is not None:
                tracer.close()
        snapshot = system.snapshot()
    elif args.monitor == "platch":
        from repro.pipeline import StreamingPipeline

        config = _platch_config(args)
        pipeline = StreamingPipeline(cpu, config=config, tracer=tracer)
        try:
            cpu.run(args.max_steps)
            pipeline.finish()
        finally:
            if tracer is not None:
                tracer.close()
        snapshot = pipeline.snapshot()
        snapshot.meta.update({
            "queue_capacity": config.queue_capacity,
            "sample_rate": config.sampling.rate,
            "sample_window": config.sampling.window,
            "sample_seed": config.sampling.seed,
        })
    else:
        engine = DIFTEngine() if args.monitor == "dift" else None
        if engine is not None:
            cpu.attach(engine)
        cpu.run(args.max_steps)
        registry = MetricsRegistry()
        if engine is not None:
            engine.publish_metrics(registry)
        cpu.publish_metrics(registry)
        snapshot = registry.snapshot()

    # The guest's console on stderr keeps stdout a parseable report.
    if cpu.console:
        text = cpu.console.decode("latin-1")
        sys.stderr.write(text if text.endswith("\n") else text + "\n")

    if recorder is not None:
        recorder.save(args.record_trace)
        snapshot.meta.update({"recorded_trace": str(args.record_trace)})

    snapshot.meta.update({
        "mode": "program",
        "source": str(args.source),
        "monitor": args.monitor,
        "exit_code": cpu.exit_code,
        "halted": cpu.halted,
    })
    return snapshot


def run_ltrace(args) -> StatsSnapshot:
    """Columnar mode: sharded zero-copy replay of an ``.ltrace`` file.

    Counters are bit-identical to the scalar object path whatever the
    shard count; only the ``trace.*`` rows (and wall clock) vary.
    """
    from repro.trace import publish_trace_metrics, replay_columnar

    registry = MetricsRegistry()
    result = replay_columnar(args.ltrace, shards=args.shards)
    result.system.publish_metrics(registry)
    # An ad-hoc CLI registry may carry wall-clock rows (unlike cached
    # job snapshots, which must stay machine-independent).
    publish_trace_metrics(registry, result, include_timings=True)
    baseline = result.baseline
    if baseline is not None:
        registry.gauge(
            "baseline.miss_percent", unit="percent",
            description="Conventional 4 KB taint-cache miss rate (Tables 6/7)",
        ).set(baseline.miss_percent)
        registry.gauge(
            "baseline.misses", unit="accesses",
            description="Conventional taint-cache miss count",
        ).set(baseline.misses)
    snapshot = registry.snapshot()
    snapshot.meta.update({
        "mode": "ltrace",
        "path": str(args.ltrace),
        "workload": result.hlatch.name,
        "accesses": result.access_count,
        "shards": result.shard_count,
    })
    return snapshot


def run_profile(args) -> StatsSnapshot:
    """Profile mode: the benchmark-harness pipeline, published to obs.

    ``--profile`` accepts calibrated names, service-engine names, and
    ``ltrace:PATH`` replay sources — anything
    :func:`repro.workloads.make_generator` dispatches.
    """
    generator = make_generator(args.profile)
    profile = generator.profile
    trace = generator.access_trace(args.trace_window)
    stream = generator.epoch_stream(args.epoch_scale)

    registry = MetricsRegistry()

    # Hardware-mode rates, measured exactly as the Figure 13/14 harness
    # does — same function, same module, counters published afterwards.
    latch = LatchModule(LatchConfig())
    rates = measure_hw_rates(trace, latch=latch)
    latch.publish_metrics(registry)

    registry.gauge(
        "workload.tainted_fraction", unit="fraction",
        description="Instructions touching tainted data (Tables 1/2)",
    ).set(stream.tainted_fraction)
    registry.histogram(
        "workload.epoch.taint_free_duration", unit="instructions",
        description="Taint-free epoch lengths (Figure 5)",
    ).record_many(stream.taint_free_lengths().tolist())
    registry.gauge(
        "workload.requests", unit="requests",
        description="Taint-active handling epochs (requests for "
                    "service engines)",
    ).set(int((stream.tainted_counts > 0).sum()))

    report = simulate_slatch(profile, stream, rates)
    report.publish_metrics(registry)

    snapshot = registry.snapshot()
    snapshot.meta.update({
        "mode": "profile",
        "profile": profile.name,
        "epoch_scale": args.epoch_scale,
        "trace_window": args.trace_window,
    })
    return snapshot


_ZOO_COLUMNS = (
    ("kind", "kind", "{}"),
    ("taint %", "taint_percent", "{:.2f}"),
    ("epochs", "epochs", "{}"),
    ("requests", "requests", "{}"),
    ("mean free", "mean_taint_free", "{:.0f}"),
    ("pages", "pages_accessed", "{}"),
    ("tainted pg", "pages_tainted", "{}"),
    ("accesses", "accesses", "{}"),
    ("tainted %", "tainted_access_percent", "{:.2f}"),
)


def run_zoo(args) -> str:
    """Zoo mode: the per-profile characterization table (markdown)."""
    import json

    if not args.zoo:
        names = list(SERVICE_SUITE)
    elif args.zoo == ["all"]:
        names = [profile.name for profile in all_profiles()]
    else:
        names = list(args.zoo)
    rows = characterize(
        names,
        epoch_scale=args.epoch_scale,
        trace_window=args.trace_window,
    )
    if args.format == "json":
        return json.dumps(rows, indent=2, sort_keys=True)
    header = "| workload | " + " | ".join(c[0] for c in _ZOO_COLUMNS) + " |"
    rule = "|---" * (len(_ZOO_COLUMNS) + 1) + "|"
    lines = ["# repro-stats · workload zoo", "", header, rule]
    for name, row in rows.items():
        cells = [fmt.format(row[key]) for _, key, fmt in _ZOO_COLUMNS]
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


# ----------------------------------------------------------------- main


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_profiles:
        for profile in all_profiles():
            print(f"{profile.name}  ({profile.kind})")
        return 0
    zoo = args.zoo is not None
    modes = sum(map(bool, (args.source, args.profile, args.ltrace, zoo)))
    if modes != 1:
        print("error: give exactly one of a source file, --profile, "
              "--ltrace, or --zoo", file=sys.stderr)
        return 2

    try:
        if zoo:
            text = run_zoo(args)
            if args.output:
                args.output.write_text(text + "\n")
                print(f"wrote {args.output}")
            else:
                print(text)
            return 0
        if args.profile:
            snapshot = run_profile(args)
        elif args.ltrace:
            snapshot = run_ltrace(args)
        else:
            snapshot = run_program(args)
    except KeyError as error:
        print(f"error: unknown profile {error}", file=sys.stderr)
        return 2
    except (OSError, ValueError, AssemblyError, ExecutionError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.format == "json":
        text = snapshot.to_json(indent=2)
    else:
        subject = (snapshot.meta.get("profile")
                   or snapshot.meta.get("path")
                   or snapshot.meta.get("source"))
        text = format_snapshot(snapshot, title=f"repro-stats · {subject}")

    if args.output:
        args.output.write_text(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def cli() -> None:  # pragma: no cover - console-script shim
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
