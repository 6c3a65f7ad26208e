"""Figure 5: % of instructions in taint-free epochs of various lengths.

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

from conftest import emit, epoch_stream_for, network_names, spec_names
from repro.analysis import epoch_duration_profile
from repro.report.artefacts import ARTEFACTS

#: Benchmarks the paper singles out as having short, fragmented epochs.
FRAGMENTED = {"astar", "sphinx", "perlbench", "soplex"}


def regenerate_fig5():
    series = {}
    for name in spec_names() + network_names():
        profile = epoch_duration_profile(epoch_stream_for(name))
        series[name] = {f">={t}": v for t, v in profile.items()}
    return series


def test_fig5_epoch_durations(benchmark):
    series = benchmark.pedantic(regenerate_fig5, rounds=1, iterations=1)
    emit("fig5", ARTEFACTS["fig5"].format(series))
    # "13 of 20 benchmarks executed more than 80% of their instructions
    # during taint-free epochs of 1K instructions or more."
    spec_over_80 = sum(
        1 for name in spec_names() if series[name][">=1000"] > 80
    )
    assert spec_over_80 >= 12
    # The fragmented four have much less mass in >=1K epochs than the
    # long-epoch majority.
    for name in FRAGMENTED:
        assert series[name][">=1000"] < 60, name
    # Web clients have a high proportion of long epochs; apache under the
    # trusted-client policies sees epoch durations grow with trust.
    assert series["curl"][">=100000"] > 50
    assert (
        series["apache"][">=1000"]
        < series["apache-50"][">=1000"]
        < series["apache-75"][">=1000"]
    )
