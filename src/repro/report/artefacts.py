"""The paper's evaluation artefacts, one registry entry each.

The evaluation is 13 artefacts: Tables 1-4, 6 and 7, Figures 5, 6 and
13-16, and the Section 6.4 complexity estimate.  Each
:class:`Artefact` names the :mod:`repro.runner` job kind that computes
its cells and the workload group they span, a rows function over those
jobs' snapshots, and how to render the rows (title, headers, precision
and the paper's own columns).

``repro-run <id>`` runs an artefact's jobs through the runner, cache and
scheduler and prints :meth:`Artefact.render`; the artefact suites of
:data:`repro.workloads.suites.EXPERIMENT_SUITES` are derived from this
registry, and the benchmark harness takes its titles, headers and paper
columns from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.report.paper_data import (
    TABLE1_TAINT_PERCENT,
    TABLE2_TAINT_PERCENT,
    TABLE3_PAGES,
    TABLE4_PAGES,
    TABLE6_HLATCH,
    TABLE7_HLATCH,
)
from repro.report.tables import (
    format_comparison_table,
    format_series,
    format_table,
)

#: Job snapshots keyed by workload name, in the workload group's order.
Snapshots = Mapping[str, object]


@dataclass(frozen=True)
class Artefact:
    """One paper artefact: what computes it and how it renders.

    ``group`` is a key of :data:`repro.workloads.suites.WORKLOAD_GROUPS`
    (``spec``, ``network`` or ``all``).  ``layout`` is ``"table"``
    (``rows`` returns table rows), ``"comparison"`` (``rows`` returns
    ``{name: measured}``, rendered beside ``paper`` with a ratio column)
    or ``"series"`` (``rows`` returns ``{name: {x: y}}``; ``headers[0]``
    labels the x axis).
    """

    id: str
    title: str
    headers: Tuple[str, ...]
    rows: Callable[[Snapshots, Mapping], object]
    kind: Optional[str] = None
    group: str = "all"
    precision: int = 4
    paper: Mapping[str, object] = field(default_factory=dict)
    layout: str = "table"

    def format(self, rows) -> str:
        """Render already computed rows under this artefact's layout."""
        if self.layout == "series":
            return format_series(
                rows, x_label=self.headers[0], title=self.title,
                precision=self.precision,
            )
        if self.layout == "comparison":
            return format_comparison_table(
                list(rows), rows, self.paper, value_label=self.headers[1],
                title=self.title, precision=self.precision,
            )
        return format_table(
            self.headers, rows, title=self.title, precision=self.precision
        )

    def render(self, snapshots: Snapshots) -> str:
        """The artefact's text from its jobs' snapshots."""
        return self.format(self.rows(snapshots, self.paper))


# ------------------------------------------------------------- rows


def _numbered(snapshot, prefix: str) -> Dict[int, float]:
    """``{n: value}`` of the metrics named ``<prefix>.<n>``, ascending."""
    values = {
        int(record.name[len(prefix) + 1:]): record.data["value"]
        for record in snapshot.records
        if record.name.startswith(prefix + ".")
    }
    return dict(sorted(values.items()))


def _taint_rows(snapshots, paper):
    return {
        name: snapshot.get("workload.taint_percent")
        for name, snapshot in snapshots.items()
    }


def _page_rows(snapshots, paper):
    return [
        [name,
         int(snapshot.get("layout.pages_accessed")),
         int(snapshot.get("layout.pages_tainted")),
         snapshot.get("layout.tainted_percent"),
         *paper.get(name, ("", "", ""))]
        for name, snapshot in snapshots.items()
    ]


def _hlatch_rows(snapshots, paper):
    return [
        [name, *(snapshot.get(metric) for metric in (
            "hlatch.ctc_miss_percent", "hlatch.tcache_miss_percent",
            "hlatch.combined_miss_percent", "baseline.miss_percent",
            "hlatch.avoided_percent")),
         *paper.get(name, ("", "", "", "", ""))[3:]]
        for name, snapshot in snapshots.items()
    ]


def _epoch_series(snapshots, paper):
    return {
        name: {
            f">={threshold}": value
            for threshold, value in _numbered(
                snapshot, "epochs.taint_free_percent"
            ).items()
        }
        for name, snapshot in snapshots.items()
    }


def _fp_series(snapshots, paper):
    return {
        name: {
            f"{size}B": value
            for size, value in _numbered(snapshot, "fp.multiplier").items()
        }
        for name, snapshot in snapshots.items()
    }


def _slatch_rows(snapshots, paper):
    from repro.workloads.profiles import get_profile

    return [
        [name, get_profile(name).libdft_slowdown - 1.0,
         snapshot.get("slatch.model.overhead"),
         snapshot.get("slatch.model.speedup_vs_libdft"),
         100 * snapshot.get("slatch.model.sw_fraction")]
        for name, snapshot in snapshots.items()
    ]


def _breakdown_rows(snapshots, paper):
    return [
        [name, snapshot.get("slatch.model.overhead"),
         *(100 * snapshot.get(f"slatch.model.breakdown.{source}")
           for source in ("libdft", "control_xfer", "fp_checks",
                          "ctc_misses"))]
        for name, snapshot in snapshots.items()
    ]


def _platch_rows(snapshots, paper):
    return [
        [name, 100 * snapshot.get("platch.monitored_fraction"),
         snapshot.get("platch.simple.overhead"),
         snapshot.get("platch.optimized.overhead")]
        for name, snapshot in snapshots.items()
    ]


def _resolution_rows(snapshots, paper):
    return [
        [name, *(100 * snapshot.get(f"hlatch.resolved.{level}")
                 for level in ("tlb", "ctc", "precise"))]
        for name, snapshot in snapshots.items()
    ]


def _complexity_rows(snapshots, paper):
    from repro.core.latch import LatchConfig
    from repro.hw import estimate_latch_complexity, estimate_power_delta

    rows = []
    for label, config in [
        ("S-LATCH/P-LATCH (160 B)", LatchConfig()),
        ("CTC x4 (64 entries)", LatchConfig(ctc_entries=64)),
        ("no TLB taint bits", LatchConfig(use_tlb_bits=False)),
    ]:
        area = estimate_latch_complexity(config, name=label)
        power = estimate_power_delta(config)
        rows.append(
            [label, area.latch_logic_elements, area.logic_percent,
             area.latch_memory_bits, area.memory_percent,
             power.dynamic_percent, power.static_percent]
        )
    return rows


# --------------------------------------------------------- registry

_TAINT_HEADERS = ("benchmark", "taint insn %", "paper", "measured/paper")
_PAGE_HEADERS = ("benchmark", "pages", "tainted", "tainted %",
                 "paper pages", "paper tainted", "paper %")
_HLATCH_HEADERS = ("benchmark", "CTC miss %", "t-cache miss %",
                   "combined %", "no-LATCH %", "avoided %",
                   "paper no-LATCH %", "paper avoided %")

#: Artefact id → :class:`Artefact`, in the paper's order.
ARTEFACTS: Dict[str, Artefact] = {artefact.id: artefact for artefact in (
    Artefact(
        "table1", "Table 1: % instructions touching tainted data (SPEC)",
        _TAINT_HEADERS, _taint_rows, kind="taint_fraction", group="spec",
        precision=3, paper=TABLE1_TAINT_PERCENT, layout="comparison",
    ),
    Artefact(
        "table2", "Table 2: % instructions touching tainted data (network)",
        _TAINT_HEADERS, _taint_rows, kind="taint_fraction",
        group="network", precision=3, paper=TABLE2_TAINT_PERCENT,
        layout="comparison",
    ),
    Artefact(
        "table3", "Table 3: page-granularity taint distribution (SPEC)",
        _PAGE_HEADERS, _page_rows, kind="page_taint", group="spec",
        precision=2, paper=TABLE3_PAGES,
    ),
    Artefact(
        "table4", "Table 4: page-granularity taint distribution (network)",
        _PAGE_HEADERS, _page_rows, kind="page_taint", group="network",
        precision=2, paper=TABLE4_PAGES,
    ),
    Artefact(
        "fig5", "Figure 5: % of instructions in taint-free epochs ≥ L",
        ("epoch ≥",), _epoch_series, kind="epochs", precision=1,
        layout="series",
    ),
    Artefact(
        "fig6", "Figure 6: coarse-taint detection multiplier vs domain size",
        ("domain",), _fp_series, kind="fp_sweep", precision=2,
        layout="series",
    ),
    Artefact(
        "fig13", "Figure 13: performance overhead over native execution",
        ("benchmark", "libdft overhead", "S-LATCH overhead", "speedup",
         "sw %"),
        _slatch_rows, kind="slatch", precision=3,
    ),
    Artefact(
        "fig14", "Figure 14: sources of overhead in S-LATCH",
        ("benchmark", "overhead", "libdft %", "control xfer %",
         "fp checks %", "ctc misses %"),
        _breakdown_rows, kind="slatch", precision=2,
    ),
    Artefact(
        "fig15", "Figure 15: P-LATCH overhead vs native",
        ("benchmark", "monitored %", "P-LATCH (simple)",
         "P-LATCH (optimized)"),
        _platch_rows, kind="epochs", precision=4,
    ),
    Artefact(
        "table6", "Table 6: H-LATCH cache performance (SPEC)",
        _HLATCH_HEADERS, _hlatch_rows, kind="hlatch", group="spec",
        paper=TABLE6_HLATCH,
    ),
    Artefact(
        "table7", "Table 7: H-LATCH cache performance (network)",
        _HLATCH_HEADERS, _hlatch_rows, kind="hlatch", group="network",
        paper=TABLE7_HLATCH,
    ),
    Artefact(
        "fig16", "Figure 16: memory accesses resolved per H-LATCH level",
        ("benchmark", "TLB %", "CTC %", "precise %"),
        _resolution_rows, kind="hlatch", precision=2,
    ),
    Artefact(
        "sec64",
        "Section 6.4: LATCH complexity (paper: +4% LE, +5% mem, "
        "+5% dyn, +0.2% static)",
        ("configuration", "LEs", "LE %", "mem bits", "mem %",
         "dyn pwr %", "stat pwr %"),
        _complexity_rows, precision=2,
    ),
)}
