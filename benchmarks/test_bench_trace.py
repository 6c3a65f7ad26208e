"""Micro-benchmark: object-path vs vector vs zero-copy columnar replay.

Three end-to-end replays of the same window, each measuring everything
a consumer of that path would pay:

* ``test_bench_object_replay`` — the per-event python-object path:
  :meth:`AccessTrace.iter_accesses` materialises a tuple per access and
  the H-LATCH stack is driven one ``system.access`` call at a time.
  This is the watchdog's ``--normalize-by`` reference entry.
* ``test_bench_vector_npz`` — the in-memory vector path: the window's
  numpy arrays (as a materialised :class:`AccessTrace` holds them) are
  replayed as one shard (one :func:`shard_partial` plus
  :func:`merge_partials`, the body of ``run_hlatch``).  The name
  predates the trace cache's move to ``.ltrace`` and is kept so the
  committed baseline still matches.
* ``test_bench_columnar_sharded`` — the ``.ltrace`` path: open the
  mmapped container, plan shards (``REPRO_TRACE_SHARDS`` applies),
  replay them, and merge — i.e. :func:`repro.trace.replay_columnar`
  from a cold file handle.

The H-LATCH stack is constructed and bulk-loaded in each round's setup
for the first two (that cost is identical across backends); the
columnar path builds its own systems from the trace's taint-layout
section, which *is* part of what it must amortise, so it stays inside
the measured region.

Run standalone (the CI job uploads the JSON as ``BENCH_trace.json``)::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_trace.py -q \
        --benchmark-json=BENCH_trace.json

``test_columnar_speedup_floor`` asserts the ISSUE 8 acceptance floor —
columnar replay ≥ 10x over the object path end-to-end — which holds
with wide margin (the kernels alone measure ~19x over a plain scalar
loop, and the object path additionally pays tuple materialisation).
"""

from __future__ import annotations

import time

import conftest
from conftest import access_trace_for, emit
from repro.hlatch.system import HLatchSystem
from repro.kernels import merge_partials, shard_partial
from repro.trace import replay_columnar, save_columnar_trace
from repro.trace.shard import resolve_shard_count

WORKLOAD = "gcc"
MIN_SPEEDUP = 10.0


def _fresh_system(trace) -> HLatchSystem:
    system = HLatchSystem()
    system.load_taint(trace.layout)
    return system


def _object_replay(system, trace) -> None:
    for address, size, is_write, _tainted, _gap in trace.iter_accesses():
        system.access(address, size, is_write)


def _vector_replay(system, trace) -> None:
    # The product path: the whole window as one shard, merged back.
    partial = shard_partial(
        trace.addresses, trace.sizes, trace.is_write, system.latch,
        system.tcache.config,
    )
    merge_partials([partial], system)


def _columnar_replay(path, shard_count) -> None:
    replay_columnar(path, baseline_config=None, shards=shard_count)


def _ltrace_path():
    """The window as a committed-format ``.ltrace``, cached on disk."""
    path = conftest._CACHE_DIR / f"{WORKLOAD}_w{conftest.TRACE_WINDOW}.ltrace"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        save_columnar_trace(access_trace_for(WORKLOAD), path)
    return path


def test_bench_object_replay(benchmark):
    trace = access_trace_for(WORKLOAD)
    benchmark.pedantic(
        _object_replay,
        setup=lambda: ((_fresh_system(trace), trace), {}),
        rounds=3,
    )


def test_bench_vector_npz(benchmark):
    trace = access_trace_for(WORKLOAD)
    benchmark.pedantic(
        _vector_replay,
        setup=lambda: ((_fresh_system(trace), trace), {}),
        rounds=5,
    )


def test_bench_columnar_sharded(benchmark):
    path = _ltrace_path()
    shards = resolve_shard_count(None)
    benchmark.pedantic(_columnar_replay, args=(path, shards), rounds=5)


def test_columnar_speedup_floor():
    """The acceptance floor: columnar replay ≥ 10x over the object path."""
    trace = access_trace_for(WORKLOAD)
    path = _ltrace_path()
    shards = resolve_shard_count(None)

    def best_of(run, rounds: int) -> float:
        times = []
        for _ in range(rounds):
            started = time.perf_counter()
            run()
            times.append(time.perf_counter() - started)
        return min(times)

    def object_round():
        _object_replay(_fresh_system(trace), trace)

    objected = best_of(object_round, 3)
    columnar = best_of(lambda: _columnar_replay(path, shards), 5)
    speedup = objected / columnar
    emit(
        "BENCH_trace_speedup",
        f"end-to-end replay ({WORKLOAD}, {trace.access_count} accesses, "
        f"{shards} shard(s)): object {objected * 1e3:.1f} ms, "
        f"columnar {columnar * 1e3:.1f} ms, "
        f"speedup {speedup:.1f}x (floor {MIN_SPEEDUP:.0f}x)",
    )
    assert speedup >= MIN_SPEEDUP
