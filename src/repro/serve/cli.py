"""``repro-serve`` — run and exercise the taint-checking service.

Subcommands:

* ``serve`` — run a server in the foreground until interrupted
  (``REPRO_SERVE_*`` environment variables feed the defaults).
* ``loadgen`` — point the load generator at a running server and
  report completion/divergence/retry counts.
* ``selftest`` — start an in-process server, drive N concurrent
  simulated clients through it, and assert zero soundness divergence
  plus a clean shutdown; ``--metrics-out`` writes the per-tenant
  metrics snapshot (the CI ``service-smoke`` artifact).

Exit status is non-zero whenever a divergence, failure, or unclean
shutdown occurs, so every mode is CI-gateable — mirroring the
``repro-check`` conventions.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.serve.loadgen import LoadGenConfig, LoadReport, run
from repro.serve.server import ServeConfig, TaintServer, running_server
from repro.serve.tenant import TenantLimits


def _add_loadgen_args(parser, clients_default: int) -> None:
    parser.add_argument("--clients", type=int, default=clients_default,
                        help=f"simulated clients (default "
                             f"{clients_default})")
    parser.add_argument("--tenants", type=int, default=4,
                        help="distinct tenants to spread clients over "
                             "(default 4)")
    parser.add_argument("--phase", default="bursty",
                        help="arrival shaping: bursty, diurnal, steady, "
                             "or engine:NAME for a dynamic workload "
                             "engine's phase schedule, e.g. "
                             "engine:kv-bursty (default bursty)")
    parser.add_argument("--duration", type=float, default=1.0,
                        help="arrival window in seconds (default 1.0)")
    parser.add_argument("--seed", type=int, default=20260808,
                        help="deterministic arrival/workload seed")
    parser.add_argument("--max-open", type=int, default=128,
                        help="simultaneous open sockets cap (default 128)")


def _loadgen_config(args) -> LoadGenConfig:
    return LoadGenConfig(
        clients=args.clients,
        tenants=args.tenants,
        phase=args.phase,
        duration=args.duration,
        seed=args.seed,
        max_open=args.max_open,
    )


def _add_telemetry_args(parser) -> None:
    parser.add_argument("--telemetry-interval", type=float, default=None,
                        help="export tick interval in seconds "
                             "(enables the live telemetry plane)")
    parser.add_argument("--telemetry-jsonl", default=None,
                        help="append one telemetry sample per tick to "
                             "this JSONL file")
    parser.add_argument("--telemetry-port", type=int, default=None,
                        help="plain-TCP Prometheus-style exposition "
                             "port (0 = ephemeral)")
    parser.add_argument("--slo", action="append", default=None,
                        metavar="RULE",
                        help="SLO alert rule, e.g. 'latency_p99 < 250ms' "
                             "(repeatable)")
    parser.add_argument("--flight-dir", type=Path, default=None,
                        help="flight-recorder dump directory "
                             "($REPRO_FLIGHT_DIR overrides)")


def _telemetry_overrides(args) -> dict:
    overrides = {}
    if args.telemetry_interval is not None:
        overrides["telemetry_interval"] = args.telemetry_interval
    if args.telemetry_jsonl is not None:
        overrides["telemetry_jsonl"] = args.telemetry_jsonl
    if args.telemetry_port is not None:
        overrides["telemetry_port"] = args.telemetry_port
    if args.slo:
        overrides["slo_rules"] = tuple(args.slo)
    if args.flight_dir is not None:
        overrides["flight_dir"] = str(args.flight_dir)
    return overrides


def _add_serve(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve", help="run the server in the foreground"
    )
    parser.add_argument("--host", default=None,
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=None,
                        help="bind port (default 0 = ephemeral)")
    parser.add_argument("--max-inflight", type=int, default=None,
                        help="bounded in-flight table size")
    parser.add_argument("--rate", type=float, default=None,
                        help="default tenant refill rate (events/s)")
    parser.add_argument("--burst", type=float, default=None,
                        help="default tenant bucket capacity (events)")
    _add_telemetry_args(parser)


def _add_loadgen(subparsers) -> None:
    parser = subparsers.add_parser(
        "loadgen", help="drive simulated clients at a running server"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    _add_loadgen_args(parser, clients_default=100)
    parser.add_argument("--telemetry-out", type=Path, default=None,
                        help="after the run, scrape the server's "
                             "telemetry verb and write the Prometheus-"
                             "style text here")


def _add_selftest(subparsers) -> None:
    parser = subparsers.add_parser(
        "selftest",
        help="in-process server + concurrent clients, assert soundness",
    )
    _add_loadgen_args(parser, clients_default=50)
    parser.add_argument("--max-inflight", type=int, default=16,
                        help="in-flight table size (small => exercises "
                             "RETRY; default 16)")
    parser.add_argument("--rate", type=float, default=20000.0,
                        help="default tenant refill rate (default 20000)")
    parser.add_argument("--burst", type=float, default=2048.0,
                        help="default tenant burst (default 2048)")
    parser.add_argument("--metrics-out", type=Path, default=None,
                        help="write the final per-tenant metrics "
                             "snapshot to this JSON file")
    _add_telemetry_args(parser)


def _print_report(report: LoadReport) -> None:
    print(f"clients completed: {report.completed}  "
          f"failed: {report.failed}  divergences: {report.divergences}  "
          f"retries: {report.retries}  elapsed: {report.elapsed:.2f}s")
    for tenant in sorted(report.per_tenant):
        row = report.per_tenant[tenant]
        print(f"  {tenant}: completed={row['completed']} "
              f"failed={row['failed']} divergences={row['divergences']} "
              f"retries={row['retries']}")
    for error in report.errors:
        print(f"  error: {error}")


def _cmd_serve(args) -> int:
    overrides = {}
    if args.host is not None:
        overrides["host"] = args.host
    if args.port is not None:
        overrides["port"] = args.port
    if args.max_inflight is not None:
        overrides["max_inflight"] = args.max_inflight
    if args.rate is not None or args.burst is not None:
        base = TenantLimits()
        overrides["default_limits"] = TenantLimits(
            rate=base.rate if args.rate is None else args.rate,
            burst=base.burst if args.burst is None else args.burst,
            max_streams=base.max_streams,
        )
    overrides.update(_telemetry_overrides(args))
    config = ServeConfig.from_env(**overrides)
    server = TaintServer(config)

    import asyncio

    async def main() -> None:
        await server.start()
        host, port = server.address
        print(f"repro-serve listening on {host}:{port}")
        telemetry = server.telemetry_address
        if telemetry is not None:
            print(f"telemetry exposition on {telemetry[0]}:{telemetry[1]}")
        await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("interrupted; shutting down")
    return 0


def _cmd_loadgen(args) -> int:
    report = run(args.host, args.port, config=_loadgen_config(args))
    _print_report(report)
    if args.telemetry_out is not None:
        from repro.serve.client import fetch_telemetry

        text = fetch_telemetry(args.host, args.port)
        args.telemetry_out.parent.mkdir(parents=True, exist_ok=True)
        args.telemetry_out.write_text(text)
        print(f"wrote telemetry exposition -> {args.telemetry_out}")
    return 0 if report.clean else 1


def _cmd_selftest(args) -> int:
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    config = ServeConfig(
        max_inflight=args.max_inflight,
        default_limits=TenantLimits(rate=args.rate, burst=args.burst),
        **_telemetry_overrides(args),
    )
    clean_shutdown = False
    firing_alerts = []
    with running_server(config, registry=registry) as (server, address):
        host, port = address
        print(f"selftest server on {host}:{port}; "
              f"driving {args.clients} clients "
              f"({args.phase} arrivals, {args.tenants} tenants)")
        report = run(host, port, config=_loadgen_config(args))
        if server.exporter is not None:
            # Publish the soundness verdict where the SLO plane sees it
            # ('divergence == 0' fires if the sweep found any), then
            # take one final authoritative tick.
            registry.gauge(
                "serve.divergences", unit="divergences",
                description="Soundness divergences found by the last "
                            "loadgen sweep",
            ).set(report.divergences)
            final = server.exporter.tick()
            firing_alerts = list(final.firing)
            if server.flight is not None and server.flight.path is not None:
                server.flight.dump(reason="selftest")
        snapshot = server.snapshot()
        clean_shutdown = True
    _print_report(report)
    if args.metrics_out is not None:
        args.metrics_out.parent.mkdir(parents=True, exist_ok=True)
        snapshot.meta.update({
            "command": "selftest",
            "clients": args.clients,
            "tenants": args.tenants,
            "phase": args.phase,
        })
        args.metrics_out.write_text(snapshot.to_json(indent=2) + "\n")
        print(f"wrote per-tenant metrics -> {args.metrics_out}")
    if not report.clean:
        print("SELFTEST FAILED: divergences or client failures (see above)")
        return 1
    if firing_alerts:
        for rule in firing_alerts:
            print(f"SLO ALERT FIRING: {rule}")
        print("SELFTEST FAILED: SLO alerts firing at shutdown")
        return 1
    if not clean_shutdown:  # pragma: no cover - contextmanager guarantees
        print("SELFTEST FAILED: unclean shutdown")
        return 1
    print(f"selftest ok: {report.completed}/{args.clients} clients "
          f"bit-identical, clean shutdown")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="LATCH-as-a-service: multi-tenant taint checking",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_serve(subparsers)
    _add_loadgen(subparsers)
    _add_selftest(subparsers)
    return parser


def cli(argv=None) -> int:
    """Console entry point (``repro-serve``)."""
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    return _cmd_selftest(args)


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(cli())


if __name__ == "__main__":  # pragma: no cover
    main()
