"""``repro-serve`` with the benchmark's layer wrappers installed.

Usage (the served-streams workload starts it)::

    python serve_traced.py --ledger-out L.json --spans-out S.jsonl -- \\
        serve --port 0 --rate 1e9

Everything after ``--`` goes to ``repro.serve.cli``.  On SIGTERM the
server shuts down as on Ctrl-C, then this wrapper writes the per-layer
aggregates plus the server's CPU time since the first ``hello`` (the
base the layer shares are taken over) to ``--ledger-out`` and the
request-level spans to ``--spans-out``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ledger import SERVER_TARGETS, Ledger  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ledger-out", type=Path, required=True)
    parser.add_argument("--spans-out", type=Path, required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    from repro.serve import cli
    from repro.serve.server import TaintServer

    first_hello = {}
    hello = TaintServer._do_hello

    def timed_hello(self, message):
        first_hello.setdefault("cpu", time.process_time())
        return hello(self, message)

    TaintServer._do_hello = timed_hello

    def terminate(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, terminate)
    ledger = Ledger().install(SERVER_TARGETS)
    try:
        status = cli.cli(serve_args)
    finally:
        ledger.restore()
        TaintServer._do_hello = hello
        now = time.process_time()
        cpu_s = now - first_hello.get("cpu", now)
        args.ledger_out.write_text(
            json.dumps({"cpu_s": cpu_s, **ledger.to_dict()})
        )
        ledger.write_spans(args.spans_out)
    return status


if __name__ == "__main__":
    sys.exit(main())
