"""Figure 5: % of instructions in taint-free epochs of various lengths.

Runs one ``epochs`` job per workload through the shared
:mod:`repro.runner` engine (the jobs ``repro-run fig5`` renders) and
reads each series off its ``epochs.taint_free_percent.<L>`` gauges.
The paper ran 500 M-instruction windows; the epoch scale here is set by
``REPRO_BENCH_EPOCH_SCALE``.  The paper reports the figure graphically;
the assertions below pin its stated qualitative findings.

The curl assertion needs a scale of at least 341,041 instructions
(bisected at seed 0).  Smaller scales cannot populate the >=100K
bucket enough: curl's longest taint-free epochs shrink with the scale,
so the bucket holds 0% of its instructions at 200K and 39% just below
341,041, against the >50% asserted.  CI's smoke step therefore runs
this file at 341,041 rather than at the 200K of the other smoke runs.
"""

from conftest import emit, network_names, run_jobs, spec_names
from repro.report.artefacts import ARTEFACTS

#: Benchmarks the paper singles out as having short, fragmented epochs.
FRAGMENTED = {"astar", "sphinx", "perlbench", "soplex"}


def regenerate_fig5():
    return run_jobs("epochs", spec_names() + network_names())


def test_fig5_epoch_durations(benchmark):
    snapshots = benchmark.pedantic(regenerate_fig5, rounds=1, iterations=1)
    emit("fig5", ARTEFACTS["fig5"].render(snapshots))

    def free(name, threshold):
        return snapshots[name].get(f"epochs.taint_free_percent.{threshold}")

    # "13 of 20 benchmarks executed more than 80% of their instructions
    # during taint-free epochs of 1K instructions or more."
    spec_over_80 = sum(1 for name in spec_names() if free(name, 1000) > 80)
    assert spec_over_80 >= 12
    # The fragmented four have much less mass in >=1K epochs than the
    # long-epoch majority.
    for name in FRAGMENTED:
        assert free(name, 1000) < 60, name
    # Web clients have a high proportion of long epochs; apache under the
    # trusted-client policies sees epoch durations grow with trust.
    assert free("curl", 100000) > 50
    assert (
        free("apache", 1000) < free("apache-50", 1000)
        < free("apache-75", 1000)
    )
