"""Section 6.4: LATCH area, power, and cycle-time on an AO486-class core.

The paper synthesised LATCH on a DE2-115 FPGA; this regenerates the same
accounting from the structural cost model, for the paper's S-LATCH and
H-LATCH configurations plus capacity-scaled variants.
"""

from conftest import emit
from repro.core.latch import LatchConfig
from repro.hw import estimate_latch_complexity, estimate_power_delta
from repro.report import format_table
from repro.report.artefacts import ARTEFACTS
from repro.report.paper_data import FPGA_RESULTS

CONFIGS = [
    ("S-LATCH/P-LATCH (160 B)", LatchConfig()),
    ("H-LATCH (320 B stack)", LatchConfig(domain_size=64, ctc_entries=16)),
    ("CTC x4 (64 entries)", LatchConfig(ctc_entries=64)),
    ("no TLB taint bits", LatchConfig(use_tlb_bits=False)),
    ("fine domains (16 B)", LatchConfig(domain_size=16)),
]


def regenerate_sec64():
    rows = []
    for name, config in CONFIGS:
        area = estimate_latch_complexity(config, name=name)
        power = estimate_power_delta(config)
        rows.append((name, area, power))
    return rows


def test_sec64_complexity(benchmark):
    rows = benchmark.pedantic(regenerate_sec64, rounds=1, iterations=1)
    table = [
        [
            name,
            area.latch_logic_elements,
            area.logic_percent,
            area.latch_memory_bits,
            area.memory_percent,
            power.dynamic_percent,
            power.static_percent,
            "no" if not area.affects_cycle_time else "yes",
        ]
        for name, area, power in rows
    ]
    # The registry's columns (over more configurations) plus cycle time.
    sec64 = ARTEFACTS["sec64"]
    emit(
        "sec64",
        format_table(
            [*sec64.headers, "cycle-time hit"], table,
            title=sec64.title, precision=sec64.precision,
        ),
    )
    name, area, power = rows[0]
    # Paper: 4% logic, 5% memory, 5% dynamic, 0.2% static, no cycle hit.
    assert abs(area.logic_percent - FPGA_RESULTS["logic_elements_percent"]) < 2.5
    assert abs(area.memory_percent - FPGA_RESULTS["memory_bits_percent"]) < 3.0
    assert abs(power.dynamic_percent - FPGA_RESULTS["dynamic_power_percent"]) < 3.0
    assert power.static_percent < 1.0
    assert not area.affects_cycle_time
    # Scaling sanity: a 4x CTC costs more; dropping TLB bits costs less.
    assert rows[2][1].latch_logic_elements > area.latch_logic_elements
    assert rows[3][1].latch_memory_bits < area.latch_memory_bits
