"""Table 7: H-LATCH cache performance for network applications."""

import numpy as np

from conftest import emit, metric, network_names, run_jobs
from repro.report.artefacts import ARTEFACTS


def regenerate_table7():
    return run_jobs("hlatch", network_names())


def test_table7_hlatch_network(benchmark):
    snapshots = benchmark.pedantic(regenerate_table7, rounds=1, iterations=1)
    emit("table7", ARTEFACTS["table7"].render(snapshots))

    avoided = metric(snapshots, "hlatch.avoided_percent")
    # "As a result of filtering, H-LATCH eliminated ... more than 98% for
    # network applications" — the reproduction lands in the >90% band.
    assert np.mean(list(avoided.values())) > 90.0
    for name, value in avoided.items():
        assert value > 75.0, name
    # Combined misses stay a small fraction of the unfiltered baseline.
    for name in network_names():
        snap = snapshots[name]
        assert (
            snap.get("hlatch.combined_miss_percent")
            < snap.get("baseline.miss_percent") / 3
        ), name
