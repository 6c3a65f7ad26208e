"""Figure 15: P-LATCH performance overheads relative to native execution.

Applies the paper's analytical model (LBA overheads localised to
taint-active 1000-instruction windows) for both the simple and the
optimised LBA baselines, plus the discrete 2-core queue simulation that
demonstrates the stall mechanism.
"""

import numpy as np

from conftest import emit, epoch_stream_for, network_names, spec_names
from repro.platch import (
    LBA_OPTIMIZED,
    LBA_SIMPLE,
    TwoCoreQueueSimulator,
    analytic_platch,
)
from repro.report import format_table
from repro.report.artefacts import ARTEFACTS
from repro.report.paper_data import PLATCH_AGGREGATES


def regenerate_fig15():
    rows = {}
    for name in spec_names() + network_names():
        stream = epoch_stream_for(name)
        simple = analytic_platch(stream, LBA_SIMPLE)
        optimized = analytic_platch(stream, LBA_OPTIMIZED)
        queue = TwoCoreQueueSimulator(LBA_SIMPLE, filtered=True).run(stream)
        rows[name] = (simple, optimized, queue)
    return rows


def test_fig15_platch_overhead(benchmark):
    rows = benchmark.pedantic(regenerate_fig15, rounds=1, iterations=1)
    table = [
        [
            name,
            100 * simple.monitored_fraction,
            simple.overhead,
            optimized.overhead,
            queue.overhead,
        ]
        for name, (simple, optimized, queue) in rows.items()
    ]
    # The registry's columns plus the discrete queue simulation's.
    fig15 = ARTEFACTS["fig15"]
    emit(
        "fig15",
        format_table(
            [*fig15.headers, "queue-sim stalls"], table,
            title=fig15.title, precision=fig15.precision,
        ),
    )

    simple_overheads = {n: r[0].overhead for n, r in rows.items()}
    # Everyone beats the always-on baselines by a wide margin.
    for name, overhead in simple_overheads.items():
        assert overhead < PLATCH_AGGREGATES["baseline_simple_overhead"], name
    # Low-taint SPEC benchmarks essentially reach native speed.
    for name in ("bzip2", "gobmk", "hmmer", "omnetpp", "sjeng"):
        assert simple_overheads[name] < 0.05, name
    # Mean overheads land well below the baseline (paper: 25.7% overall
    # for the simple scheme; our workload mix is poorer-locality-heavy,
    # see EXPERIMENTS.md).
    overall_mean = np.mean(list(simple_overheads.values()))
    assert overall_mean < 1.0
    # Optimized baseline scales everything down proportionally.
    for name, (simple, optimized, _) in rows.items():
        if simple.overhead > 0:
            ratio = simple.overhead / optimized.overhead
            assert abs(ratio - 3.38 / 0.36) < 1e-6, name
    # The queue simulation agrees that filtering eliminates stalls for
    # quiet workloads.
    assert rows["bzip2"][2].overhead < 0.01
