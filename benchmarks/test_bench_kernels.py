"""Micro-benchmark: scalar vs vector coarse-taint replay kernels.

Times *only* the replay loop — the H-LATCH stack is constructed and
bulk-loaded in each round's setup, outside the measured region, because
that cost is shared by both backends and would otherwise mask the
kernel difference.

Run standalone (the CI job uploads the JSON as ``BENCH_kernels.json``)::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_kernels.py -q \
        --benchmark-json=BENCH_kernels.json

The window size follows ``REPRO_BENCH_TRACE_WINDOW`` (see conftest);
at the default 150 K-instruction window the trace carries roughly 50 K
accesses, where the vector backend measures ~19x over the scalar loop.
``test_vector_speedup_floor`` asserts a conservative 5x so the check
holds on slow shared CI machines.
"""

from __future__ import annotations

import time

from conftest import access_trace_for, emit
from repro.hlatch.system import HLatchSystem
from repro.kernels import merge_partials, shard_partial

WORKLOAD = "gcc"
MIN_SPEEDUP = 5.0


def _fresh_system(trace) -> HLatchSystem:
    system = HLatchSystem()
    system.load_taint(trace.layout)
    return system


def _scalar_replay(system, trace) -> None:
    addresses = trace.addresses
    sizes = trace.sizes
    writes = trace.is_write
    for index in range(len(addresses)):
        system.access(
            int(addresses[index]), int(sizes[index]), bool(writes[index])
        )


def _vector_replay(system, trace) -> None:
    # The product path: the whole window as one shard, merged back.
    partial = shard_partial(
        trace.addresses, trace.sizes, trace.is_write, system.latch,
        system.tcache.config,
    )
    merge_partials([partial], system)


def test_bench_scalar_replay(benchmark):
    trace = access_trace_for(WORKLOAD)
    benchmark.pedantic(
        _scalar_replay,
        setup=lambda: ((_fresh_system(trace), trace), {}),
        rounds=3,
    )


def test_bench_vector_replay(benchmark):
    trace = access_trace_for(WORKLOAD)
    benchmark.pedantic(
        _vector_replay,
        setup=lambda: ((_fresh_system(trace), trace), {}),
        rounds=5,
    )


def test_vector_speedup_floor():
    """The acceptance floor: vector replay ≥ 5x over the scalar loop."""
    trace = access_trace_for(WORKLOAD)

    def best_of(replay, rounds: int) -> float:
        times = []
        for _ in range(rounds):
            system = _fresh_system(trace)
            started = time.perf_counter()
            replay(system, trace)
            times.append(time.perf_counter() - started)
        return min(times)

    scalar = best_of(_scalar_replay, 3)
    vector = best_of(_vector_replay, 5)
    speedup = scalar / vector
    emit(
        "BENCH_kernels_speedup",
        f"kernel replay ({WORKLOAD}, {trace.access_count} accesses): "
        f"scalar {scalar * 1e3:.1f} ms, vector {vector * 1e3:.1f} ms, "
        f"speedup {speedup:.1f}x (floor {MIN_SPEEDUP:.0f}x)",
    )
    assert speedup >= MIN_SPEEDUP
