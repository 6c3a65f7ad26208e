"""Table 1: percentage of instructions touching tainted data (SPEC).

Runs one ``taint_fraction`` job per SPEC benchmark through the shared
:mod:`repro.runner` engine and measures the tainted instruction
fraction, printed against the paper's Table 1 values.  Re-runs hit the
result cache under ``benchmarks/.cache`` and recompute nothing.
"""

from conftest import emit, run_jobs, spec_names
from repro.report.artefacts import ARTEFACTS
from repro.report.paper_data import TABLE1_TAINT_PERCENT


def regenerate_table1():
    snapshots = run_jobs("taint_fraction", spec_names())
    return {
        name: snapshots[name].get("workload.taint_percent")
        for name in spec_names()
    }


def test_table1_taint_fraction_spec(benchmark):
    measured = benchmark.pedantic(regenerate_table1, rounds=1, iterations=1)
    emit("table1", ARTEFACTS["table1"].format(measured))
    # Shape assertions: the right benchmarks dominate, within 2x of paper.
    assert measured["astar"] > 15
    assert measured["sphinx"] > 8
    for name, paper_value in TABLE1_TAINT_PERCENT.items():
        assert measured[name] <= max(2.5 * paper_value, 0.05), name
