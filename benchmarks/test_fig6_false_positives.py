"""Figure 6: taint-detection inflation of coarse-granularity policies.

For each benchmark and taint-domain size, the multiplier by which coarse
tainting inflates the set of memory elements reported tainted relative
to byte-precise taint (1.0 = exact; the paper plots values against
domain sizes up to 4 KiB page granularity).  One ``fp_sweep`` job per
workload runs on the shared :mod:`repro.runner` engine; the series are
the registry's rows over those jobs' ``fp.multiplier.<size>`` gauges.
"""

from conftest import emit, network_names, run_jobs, spec_names
from repro.report.artefacts import ARTEFACTS

#: The paper notes these benchmarks show few or no false positives
#: (substitution tables make their taint page-aligned).
PAGE_ALIGNED = {"bzip2", "gobmk", "lbm"}


def regenerate_fig6():
    return run_jobs("fp_sweep", spec_names() + network_names())


def test_fig6_false_positives(benchmark):
    snapshots = benchmark.pedantic(regenerate_fig6, rounds=1, iterations=1)
    fig6 = ARTEFACTS["fig6"]
    emit("fig6", fig6.render(snapshots))
    series = fig6.rows(snapshots, fig6.paper)
    # Page-aligned taint: no false positives at any granularity.
    for name in PAGE_ALIGNED:
        for value in series[name].values():
            assert value < 1.05, name
    # Degradation is monotone in domain size and "remains useful for most
    # applications for domains of 64 bytes": the suite-median multiplier
    # at 64 B stays small.
    at_64 = []
    for name, sweep in series.items():
        values = list(sweep.values())
        assert values == sorted(values), name  # monotone
        if "64B" in sweep:
            at_64.append(sweep["64B"])
    at_64.sort()
    assert at_64[len(at_64) // 2] < 4.0
    # astar degrades steadily (scattered 4-byte objects).
    assert series["astar"]["4096B"] > 4.0
