"""Table 3: distribution of taint at page granularity (SPEC)."""

from conftest import emit, run_jobs, spec_names
from repro.report.artefacts import ARTEFACTS
from repro.report.paper_data import TABLE3_PAGES


def regenerate_table3():
    snapshots = run_jobs("page_taint", spec_names())
    rows = {}
    for name in spec_names():
        snap = snapshots[name]
        rows[name] = (
            int(snap.get("layout.pages_accessed")),
            int(snap.get("layout.pages_tainted")),
            snap.get("layout.tainted_percent"),
        )
    return snapshots, rows


def test_table3_page_taint_spec(benchmark):
    snapshots, measured = benchmark.pedantic(
        regenerate_table3, rounds=1, iterations=1
    )
    emit("table3", ARTEFACTS["table3"].render(snapshots))
    # "For 17 out of 20 benchmarks, more than 90% of the accessed pages
    # were completely free of taint."  (perlbench sits right on the
    # boundary at 10.84% in the paper's own table, so the threshold is
    # 11% here.)
    mostly_clean = sum(
        1 for name in spec_names() if measured[name][2] < 11.0
    )
    assert mostly_clean >= 17
    for name in spec_names():
        assert measured[name][0] == TABLE3_PAGES[name][0], name
        assert measured[name][1] == TABLE3_PAGES[name][1], name
