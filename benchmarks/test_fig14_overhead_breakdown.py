"""Figure 14: sources of overhead in S-LATCH.

Splits each benchmark's modelled overhead into the paper's four
components: libdft instrumentation, hardware/software control transfer,
false-positive checks, and CTC misses.  The split is read off the
``slatch.model.breakdown.*`` gauges of the same ``slatch`` jobs that
Figure 13 runs, so the two figures share one set of results in the
runner's cache.
"""

from conftest import emit, metric, network_names, run_jobs, spec_names
from repro.report.artefacts import ARTEFACTS

SOURCES = ("libdft", "control_xfer", "fp_checks", "ctc_misses")


def regenerate_fig14():
    return run_jobs("slatch", spec_names() + network_names())


def test_fig14_overhead_breakdown(benchmark):
    snapshots = benchmark.pedantic(regenerate_fig14, rounds=1, iterations=1)
    emit("fig14", ARTEFACTS["fig14"].render(snapshots))
    overhead = metric(snapshots, "slatch.model.overhead")
    splits = {
        name: {
            source: snapshot.get(f"slatch.model.breakdown.{source}")
            for source in SOURCES
        }
        for name, snapshot in snapshots.items()
    }
    # "libdft instrumentation is the primary source of overhead in most
    # programs."
    libdft_dominant = sum(
        1
        for name, split in splits.items()
        if overhead[name] > 0 and split["libdft"] >= 0.5
    )
    assert libdft_dominant >= len(splits) // 2
    # "False-positive checks and CTC misses ... only exerted significant
    # impacts on the performance of astar."
    astar_split = splits["astar"]
    fp_or_ctc_astar = astar_split["fp_checks"] + astar_split["ctc_misses"]
    for name, split in splits.items():
        if name == "astar" or overhead[name] == 0:
            continue
        assert split["fp_checks"] + split["ctc_misses"] <= max(
            fp_or_ctc_astar + 0.05, 0.25
        ), name
    # Every breakdown is a valid partition of the extra cycles.
    for name, split in splits.items():
        if overhead[name] > 0:
            assert abs(sum(split.values()) - 1.0) < 1e-6, name
