"""Table 4: distribution of taint at page granularity (network)."""

from conftest import emit, network_names, run_jobs
from repro.report.artefacts import ARTEFACTS


def regenerate_table4():
    snapshots = run_jobs("page_taint", network_names())
    rows = {}
    for name in network_names():
        snap = snapshots[name]
        rows[name] = (
            int(snap.get("layout.pages_accessed")),
            int(snap.get("layout.pages_tainted")),
            snap.get("layout.tainted_percent"),
        )
    return snapshots, rows


def test_table4_page_taint_network(benchmark):
    snapshots, measured = benchmark.pedantic(
        regenerate_table4, rounds=1, iterations=1
    )
    emit("table4", ARTEFACTS["table4"].render(snapshots))
    # Tainted pages occupy a minority of memory in all cases; apache the
    # highest, and roughly constant across trust policies (Section 3.3.1).
    for name in network_names():
        assert measured[name][2] < 50.0, name
    apache_percents = [measured[f"apache-{p}"][2] for p in (25, 50, 75)]
    for value in apache_percents:
        assert abs(value - measured["apache"][2]) < 3.0
