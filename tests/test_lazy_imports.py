"""Package exports resolve lazily, so the live path never loads numpy.

``repro``, ``repro.machine``, ``repro.workloads`` and ``repro.platch``
re-export names from submodules that import numpy.  Resolving the
exports on first access keeps importing (and running) the live path —
CPU, pipeline, DIFT engine, wire protocol, toy programs — numpy-free.
``repro.serve`` does the same for its asyncio server: the wire protocol
alone loads neither.  ``repro.trace`` does it for its numpy-backed
container, so recording a trace and decoding its wire batches stay
numpy-free.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.machine
import repro.platch
import repro.serve
import repro.trace
import repro.workloads

ROOT = Path(__file__).resolve().parent.parent

LIVE_PATH = """
import sys
import repro.pipeline, repro.dift.engine, repro.serve.protocol
import repro.workloads.programs
assert 'numpy' not in sys.modules, 'numpy imported by the live path'
from repro.pipeline import StreamingPipeline
from repro.serve.protocol import canonical_signature
cpu = repro.workloads.programs.phased_compute(clean_iterations=50).make_cpu()
pipeline = StreamingPipeline(cpu)
pipeline.run()
canonical_signature(pipeline.engine)
assert 'numpy' not in sys.modules, 'numpy imported by a monitored run'
"""


PROTOCOL_ONLY = """
import sys
import repro.serve.protocol
for module in ('asyncio', 'repro.serve.server'):
    assert module not in sys.modules, module + ' imported by the protocol'
"""


RECORDING = """
import sys
from repro.serve import ServeClient, record_trace, running_server
from repro.serve.protocol import decode_batch
from repro.workloads import programs
trace = record_trace(lambda: programs.echo_server([b"ping"], [False]).make_cpu())
assert decode_batch(trace[:64]), 'empty first batch'
assert 'numpy' not in sys.modules, 'numpy imported by recording or decoding'
with running_server() as (_server, (host, port)):
    with ServeClient(host, port) as client:
        assert client.check_trace(trace).halted
assert 'numpy' not in sys.modules, 'numpy imported by serving a stream'
"""


def _run_isolated(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_live_path_imports_and_runs_without_numpy():
    _run_isolated(LIVE_PATH)


def test_wire_protocol_imports_without_the_server():
    _run_isolated(PROTOCOL_ONLY)


def test_recording_and_batch_decoding_stay_numpy_free():
    _run_isolated(RECORDING)


@pytest.mark.parametrize(
    "package",
    [repro, repro.machine, repro.platch, repro.serve, repro.trace,
     repro.workloads],
    ids=lambda package: package.__name__,
)
def test_every_export_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None
        assert name in dir(package)
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        getattr(package, "missing")


def test_star_import_and_from_import():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    from repro import CPU, DIFTEngine, simulate_slatch  # noqa: F401
