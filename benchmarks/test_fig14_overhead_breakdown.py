"""Figure 14: sources of overhead in S-LATCH.

Splits each benchmark's modelled overhead into the paper's four
components: libdft instrumentation, hardware/software control transfer,
false-positive checks, and CTC misses.
"""

from conftest import (
    access_trace_for,
    emit,
    epoch_stream_for,
    network_names,
    spec_names,
)
from repro.report.artefacts import ARTEFACTS
from repro.slatch import measure_hw_rates, simulate_slatch
from repro.workloads import get_profile


def regenerate_fig14():
    breakdowns = {}
    for name in spec_names() + network_names():
        profile = get_profile(name)
        rates = measure_hw_rates(access_trace_for(name))
        report = simulate_slatch(profile, epoch_stream_for(name), rates)
        breakdowns[name] = (report, report.breakdown())
    return breakdowns


def test_fig14_overhead_breakdown(benchmark):
    breakdowns = benchmark.pedantic(regenerate_fig14, rounds=1, iterations=1)
    rows = [
        [
            name,
            report.overhead,
            100 * split["libdft"],
            100 * split["control_xfer"],
            100 * split["fp_checks"],
            100 * split["ctc_misses"],
        ]
        for name, (report, split) in breakdowns.items()
    ]
    emit("fig14", ARTEFACTS["fig14"].format(rows))
    # "libdft instrumentation is the primary source of overhead in most
    # programs."
    libdft_dominant = sum(
        1
        for _, (report, split) in breakdowns.items()
        if report.overhead > 0 and split["libdft"] >= 0.5
    )
    assert libdft_dominant >= len(breakdowns) // 2
    # "False-positive checks and CTC misses ... only exerted significant
    # impacts on the performance of astar."
    astar_report, astar_split = breakdowns["astar"]
    fp_or_ctc_astar = astar_split["fp_checks"] + astar_split["ctc_misses"]
    for name, (report, split) in breakdowns.items():
        if name == "astar" or report.overhead == 0:
            continue
        assert split["fp_checks"] + split["ctc_misses"] <= max(
            fp_or_ctc_astar + 0.05, 0.25
        ), name
    # Every breakdown is a valid partition of the extra cycles.
    for name, (report, split) in breakdowns.items():
        if report.overhead > 0:
            assert abs(sum(split.values()) - 1.0) < 1e-6, name
