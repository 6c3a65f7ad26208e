"""``repro-top`` — the live terminal dashboard for the serving stack.

Reads telemetry samples from either a JSONL sink file (``--jsonl``,
written by the server's exporter) or a running server's ``telemetry``
verb (``--host``/``--port``), and renders a refresh-loop dashboard:
per-tenant throughput, latency percentiles, queue depth, pool
utilisation, and firing SLO alerts.  Curses-free — each refresh is a
plain ANSI clear + reprint, so it works in any terminal and in CI logs.

``--once`` renders a single frame and exits (the CI artifact mode);
``--fail-on-alert PATTERN`` additionally exits non-zero when any firing
alert rule matches the pattern, which is how the ``service-smoke`` job
turns a firing ``divergence`` alert into a red build.

Usage::

    repro-top --jsonl telemetry.jsonl            # follow the file
    repro-top --host 127.0.0.1 --port 4700       # scrape the server
    repro-top --once --jsonl telemetry.jsonl --fail-on-alert divergence
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from datetime import datetime, timezone
from typing import Dict, List, Optional

from repro.obs.exposition import split_tenant
from repro.obs.tracer import read_jsonl

#: ANSI clear-screen + cursor-home, the whole "curses" layer.
_CLEAR = "\x1b[2J\x1b[H"


# ----------------------------------------------------------- data sources


def load_latest_jsonl(path: str) -> Optional[Dict]:
    """Newest sample in a JSONL sink (None when empty).

    Tolerates a concurrently appending exporter: a truncated final line
    is skipped by :func:`~repro.obs.read_jsonl`.
    """
    try:
        records = read_jsonl(path)
    except FileNotFoundError:
        return None
    return records[-1] if records else None


def fetch_from_server(host: str, port: int) -> Dict:
    """One sample straight from a running server's telemetry verb."""
    from repro.serve.client import fetch_telemetry

    return fetch_telemetry(host, port, mode="json")


# ------------------------------------------------------------- rendering


def _index(sample: Dict) -> Dict[str, Dict]:
    return {
        record["name"]: record
        for record in sample.get("snapshot", {}).get("metrics", [])
    }


def _scalar(index: Dict[str, Dict], name: str, default=0):
    record = index.get(name)
    if record is None:
        return default
    value = record.get("data", {}).get("value")
    return default if value is None else value

def _summary(index: Dict[str, Dict], name: str) -> Dict:
    record = index.get(name)
    return record.get("data", {}) if record is not None else {}


def _pct_ms(summary: Dict, label: str) -> Optional[float]:
    value = (summary.get("percentiles") or {}).get(label)
    return None if value is None else value * 1000.0


def _fmt_ms(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.2f}"


def _bar(used: float, capacity: float, width: int = 20) -> str:
    if capacity <= 0:
        return "-" * width
    filled = int(round(width * min(used / capacity, 1.0)))
    return "#" * filled + "." * (width - filled)


def discover_tenants(index: Dict[str, Dict]) -> List[str]:
    """Tenant names present in the sample, in first-seen order."""
    seen: List[str] = []
    for name in index:
        _, tenant = split_tenant(name)
        if tenant is not None and tenant not in seen:
            seen.append(tenant)
    return seen


def render_dashboard(sample: Dict) -> str:
    """One full dashboard frame for a telemetry sample dict."""
    index = _index(sample)
    deltas = sample.get("deltas", {})
    interval = sample.get("interval") or 1.0
    stamp = datetime.fromtimestamp(
        sample.get("ts", 0.0), tz=timezone.utc
    ).strftime("%H:%M:%S")
    lines: List[str] = []
    health = sample.get("health", 1.0)
    lines.append(
        f"repro-top — seq {sample.get('seq', 0)} @ {stamp}Z "
        f"(tick {interval:.2f}s)  health {health:.2f}"
    )
    inflight = _scalar(index, "serve.inflight")
    capacity = _scalar(index, "serve.inflight_capacity")
    req_rate = (deltas.get("serve.requests") or 0) / interval
    lines.append(
        f"pool [{_bar(inflight, capacity)}] {inflight}/{capacity} slots  "
        f"req/s {req_rate:.0f}  "
        f"connections {_scalar(index, 'serve.connections')}  "
        f"retries {_scalar(index, 'serve.retries_sent')}"
    )
    lines.append("")
    header = (f"{'tenant':<16}{'ev/s':>9}{'events':>10}{'streams':>8}"
              f"{'retries':>8}{'p50ms':>8}{'p95ms':>8}{'p99ms':>8}"
              f"{'qdepth':>8}{'stalls':>8}")
    lines.append(header)
    lines.append("-" * len(header))
    for tenant in discover_tenants(index):
        prefix = f"serve.tenant.{tenant}"
        ev_rate = (deltas.get(f"{prefix}.events") or 0) / interval
        rejected = sum(
            _scalar(index, f"{prefix}.rejected.{reason}")
            for reason in ("rate", "inflight", "streams")
        )
        latency = _summary(index, f"{prefix}.latency_seconds")
        occupancy = _summary(index, f"{prefix}.pipeline.queue.occupancy")
        qdepth = occupancy.get("mean")
        lines.append(
            f"{tenant:<16}"
            f"{ev_rate:>9.0f}"
            f"{_scalar(index, f'{prefix}.events'):>10}"
            f"{_scalar(index, f'{prefix}.active_streams'):>8}"
            f"{rejected:>8}"
            f"{_fmt_ms(_pct_ms(latency, 'p50')):>8}"
            f"{_fmt_ms(_pct_ms(latency, 'p95')):>8}"
            f"{_fmt_ms(_pct_ms(latency, 'p99')):>8}"
            f"{('-' if qdepth is None else f'{qdepth:.1f}'):>8}"
            f"{_scalar(index, f'{prefix}.pipeline.queue.stalls'):>8}"
        )
    if not discover_tenants(index):
        lines.append("(no tenants yet)")
    lines.append("")
    firing = sample.get("firing", [])
    if firing:
        lines.append(f"ALERTS FIRING ({len(firing)}):")
        for rule in firing:
            lines.append(f"  ! {rule}")
    else:
        lines.append("alerts: none firing")
    return "\n".join(lines)


# ------------------------------------------------------------------- CLI


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-top",
        description="live dashboard over the serve telemetry plane",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--jsonl", default=None,
                        help="telemetry JSONL sink file to follow")
    source.add_argument("--host", default=None,
                        help="server host to scrape (with --port)")
    parser.add_argument("--port", type=int, default=None,
                        help="server protocol port (telemetry verb)")
    parser.add_argument("--interval", type=float, default=2.0,
                        help="refresh interval in seconds (default 2)")
    parser.add_argument("--once", action="store_true",
                        help="render one frame and exit (CI mode)")
    parser.add_argument("--fail-on-alert", default=None, metavar="PATTERN",
                        help="exit 2 if any firing alert matches this "
                             "regex (use with --once)")
    return parser


def cli(argv=None) -> int:
    """Console entry point (``repro-top``)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.host is not None and args.port is None:
        parser.error("--host requires --port")

    def fetch() -> Optional[Dict]:
        if args.jsonl is not None:
            return load_latest_jsonl(args.jsonl)
        return fetch_from_server(args.host, args.port)

    def frame() -> int:
        sample = fetch()
        if sample is None:
            print(f"no telemetry samples yet in {args.jsonl}")
            return 1
        print(render_dashboard(sample))
        if args.fail_on_alert:
            matcher = re.compile(args.fail_on_alert)
            matched = [
                rule for rule in sample.get("firing", [])
                if matcher.search(rule)
            ]
            if matched:
                for rule in matched:
                    print(f"FAIL: alert firing: {rule}")
                return 2
        return 0

    if args.once:
        return frame()
    try:
        while True:
            sys.stdout.write(_CLEAR)
            status = frame()
            if status == 2:
                return status
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(cli())


if __name__ == "__main__":  # pragma: no cover
    main()
