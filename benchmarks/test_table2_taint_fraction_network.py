"""Table 2: percentage of instructions touching tainted data (network)."""

from conftest import emit, network_names, run_jobs
from repro.report.artefacts import ARTEFACTS


def regenerate_table2():
    snapshots = run_jobs("taint_fraction", network_names())
    return {
        name: snapshots[name].get("workload.taint_percent")
        for name in network_names()
    }


def test_table2_taint_fraction_network(benchmark):
    measured = benchmark.pedantic(regenerate_table2, rounds=1, iterations=1)
    emit("table2", ARTEFACTS["table2"].format(measured))
    # The linear decline with trusted connections (paper Section 3.2.1).
    apache_series = [
        measured["apache"], measured["apache-25"],
        measured["apache-50"], measured["apache-75"],
    ]
    assert apache_series == sorted(apache_series, reverse=True)
    assert all(value < 2.5 for value in measured.values())
