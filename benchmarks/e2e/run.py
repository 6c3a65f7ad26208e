#!/usr/bin/env python3
"""End-to-end benchmark of the live path, the service and the runner.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --seed 0                      # all workloads
    python3 benchmarks/e2e/run.py --workload live-taint --seed 1 --trace

Options: ``--workload`` (default: all four), ``--seed`` (inputs are
generated from it; 0 is the development seed, 1 is held out),
``--seconds`` (measured time per run, default ``run_seconds`` from
``BENCHMARK.json``) and ``--trace [0|1]`` (per-layer run).

Each workload runs in a fresh subprocess whose environment has every
``REPRO_*`` variable removed, so the product runs on its defaults.
Untraced runs first start two more subprocesses that only set up, and
report ``setup_s`` as the median of the three.  The command prints
every metric by name with its unit, then one JSON line per workload
with the metrics ``BENCHMARK.json`` lists (end-to-end untraced,
per-layer traced).  It exits non-zero when any output is wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

from ledger import COUNT_NAMES, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
WORKLOADS = ("live-clean", "live-taint", "served-streams", "paper-tables")
SETUP_PROBES = 3
#: Every run, set-up probes included, must end well inside 180 s.
RUN_DEADLINE_S = 170.0


class SetupOnly(Exception):
    """Raised in a set-up probe once set-up is complete."""


# ------------------------------------------------------------------ child


def _child(args) -> int:
    setup = {}

    def mark_setup_done() -> None:
        setup.setdefault("setup_s", time.monotonic() - args.t0)
        if args.setup_only:
            raise SetupOnly

    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{args.workload}-s{args.seed}.jsonl"
    trace = bool(args.trace)
    try:
        if args.workload in ("live-clean", "live-taint"):
            import live_path

            if args.workload == "live-clean":
                factory = live_path.clean_factory(args.seed)
                warm = live_path.clean_factory(args.seed, 50)
            else:
                factory = live_path.taint_factory(args.seed)
                warm = live_path.taint_factory(args.seed, 2)
            result = live_path.run_workload(
                factory, warm, args.seconds, trace, mark_setup_done, spans
            )
        elif args.workload == "served-streams":
            import served

            result = served.run_workload(
                args.seed, args.seconds, trace, mark_setup_done, OUT_DIR
            )
        else:
            import paper_tables

            result = paper_tables.run_workload(
                args.seed, args.seconds, trace, str(OUT_DIR),
                mark_setup_done, spans,
            )
    except SetupOnly:
        print(json.dumps({"setup_s": setup["setup_s"]}))
        return 0
    result["setup_s"] = setup["setup_s"]
    for name in COUNT_NAMES + ("machine.native_ips", "dift.alwayson_ips"):
        result["layers"].setdefault(name, 0)  # layers this workload skips
    # served-streams reports its server's peak; the others this process's.
    result["metrics"].setdefault(
        "peak_rss_mb",
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------- parent


def _clean_env():
    env = dict(os.environ)
    removed = sorted(name for name in env if name.startswith("REPRO_"))
    for name in removed:
        del env[name]
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env, removed


def _spawn(args, workload, env, deadline, setup_only=False):
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--t0", repr(time.monotonic()),
    ]
    if setup_only:
        command.append("--setup-only")
    # A session of its own, so a timeout also stops the server the
    # served-streams child may have started.
    child = subprocess.Popen(command, env=env, cwd=str(ROOT),
                             stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} subprocess exited with {child.returncode}"
        )
    return json.loads(lines[-1])


def _number(value):
    finite = isinstance(value, (int, float)) and math.isfinite(value)
    return value if finite else None


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _measure(args, workload, env, spec) -> bool:
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES - 1):
            setups.append(
                _spawn(args, workload, env, deadline, True)["setup_s"]
            )
    result = _spawn(args, workload, env, deadline)
    setups.append(result["setup_s"])
    setup_s = median(setups)

    attempted, failed = result["attempted"], result["failed"]
    print(f"== {workload}  seed={args.seed}  seconds={args.seconds:g}  "
          f"trace={args.trace}")
    print(f"  setup_s = {setup_s:.6g} s  (median of "
          f"{', '.join(f'{s:.4g}' for s in setups)})")
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    values = dict(result["layers"] if args.trace else result["metrics"])
    values["setup_s"] = setup_s
    for name, value in values.items():
        if name != "setup_s":
            unit = units.get(name, "ms" if name.endswith("_ms") else "")
            print(f"  {name} = {_fmt(value)} {unit}".rstrip())
    for name, (value, unit) in result["notes"].items():
        print(f"  {name} = {_fmt(value)} {unit}")
    print(f"  failed_frac = {failed / max(attempted, 1):.6g}  "
          f"({failed} of {attempted} failed)")
    for error in result.get("errors", []):
        print(f"  error: {error}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            raise RuntimeError(f"{workload} did not measure {metric['name']}")
        metrics[metric["name"]] = {
            "value": _number(values[metric["name"]]), "unit": metric["unit"],
        }
    correct = failed == 0 and attempted >= 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end and per-layer benchmark "
                    "(see benchmarks/e2e/README.md)",
    )
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer (traced) run")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return _child(args)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no source tree at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    env, removed = _clean_env()
    print(f"removed environment variables: {', '.join(removed) or 'none'}")
    ok = True
    for workload in ([args.workload] if args.workload else WORKLOADS):
        try:
            ok = _measure(args, workload, env, spec) and ok
        except (RuntimeError, subprocess.TimeoutExpired) as error:
            print(f"error: {error}", file=sys.stderr)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
