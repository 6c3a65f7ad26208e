#!/usr/bin/env python3
"""Record a real execution and push it through the paper's analyses.

Demonstrates the bridge between the two halves of the reproduction:
:class:`repro.machine.TraceRecorder` converts a live run (here, the
echo server handling a batch of requests) into the same trace formats
the calibrated synthetic workloads use, so one recorded program flows
through the Section 3 locality characterisation and the Tables 6/7
cache simulations unchanged.

Run:  python examples/record_and_analyze.py
"""

import random

from repro import DIFTEngine
from repro.analysis import (
    epoch_duration_profile,
    false_positive_sweep,
    page_taint_distribution,
    tainted_instruction_fraction,
)
from repro.hlatch import run_baseline, run_hlatch
from repro.machine import TraceRecorder
from repro.pipeline import StreamingPipeline
from repro.workloads.programs import echo_server


def record_echo_server(requests=60, trusted_percent=50):
    rng = random.Random(11)
    payloads = [
        f"GET /item/{rng.randrange(1000)} HTTP/1.0".encode()
        for _ in range(requests)
    ]
    trusted = [rng.randrange(100) < trusted_percent for _ in range(requests)]
    scenario = echo_server(requests=payloads, trusted_flags=trusted)
    cpu = scenario.make_cpu()
    engine = DIFTEngine()
    recorder = TraceRecorder(engine, name="echo-server-recorded")
    cpu.attach(engine)
    cpu.attach(recorder)
    cpu.run(5_000_000)
    return cpu, engine, recorder


def main() -> None:
    cpu, engine, recorder = record_echo_server()
    stream = recorder.epoch_stream()
    trace = recorder.access_trace()

    print("== recorded run ==")
    print(f"instructions: {cpu.step_count}, epochs: {stream.epoch_count}")
    print(f"taint fraction: {tainted_instruction_fraction(stream):.3%}")

    print("\n== temporal locality (Figure 5 metric) ==")
    for threshold, percent in epoch_duration_profile(
        stream, thresholds=(100, 500, 2_000)
    ).items():
        print(f"  instructions in taint-free epochs >= {threshold}: {percent:.1f}%")

    print("\n== spatial locality (Tables 3/4 + Figure 6 metrics) ==")
    pages = page_taint_distribution(trace.layout)
    print(f"  pages accessed: {pages.pages_accessed}, "
          f"tainted: {pages.pages_tainted} ({pages.tainted_percent:.1f}%)")
    for size, multiplier in false_positive_sweep(
        trace, domain_sizes=(16, 64, 256)
    ).items():
        print(f"  coarse inflation at {size} B domains: {multiplier:.2f}x")

    print("\n== cache study on the recorded trace (Tables 6/7 metrics) ==")
    hlatch = run_hlatch(trace)
    baseline = run_baseline(trace)
    split = hlatch.resolution_split()
    print(f"  conventional 4 KB taint cache miss rate: "
          f"{baseline.miss_percent:.2f}%")
    print(f"  H-LATCH combined miss rate: {hlatch.combined_miss_percent:.2f}%"
          f"  (misses avoided: {hlatch.misses_avoided_percent(baseline.misses):.1f}%)")
    print(f"  resolution split: TLB {split['tlb']:.1%}, CTC {split['ctc']:.1%}, "
          f"precise {split['precise']:.1%}")

    print("\n== same program under functional P-LATCH (two-core) ==")
    rng = random.Random(11)
    payloads = [
        f"GET /item/{rng.randrange(1000)} HTTP/1.0".encode() for _ in range(60)
    ]
    trusted = [rng.randrange(100) < 50 for _ in range(60)]
    scenario = echo_server(requests=payloads, trusted_flags=trusted)
    cpu2 = scenario.make_cpu()
    platch = StreamingPipeline(cpu2)
    cpu2.run(5_000_000)
    platch.drain_all()
    stats = platch.stats
    print(f"  instructions: {stats.instructions}, enqueued to monitor: "
          f"{stats.enqueued} ({stats.enqueue_fraction:.1%})")
    print(f"  monitor found the same taint: "
          f"{platch.engine.shadow.tainted_byte_count == engine.shadow.tainted_byte_count}")


if __name__ == "__main__":
    main()
