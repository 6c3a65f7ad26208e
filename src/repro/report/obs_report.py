"""Rendering of :class:`repro.obs.StatsSnapshot` as report tables.

The report layer consumes frozen snapshots rather than reaching back
into live structures: whatever ``repro-stats`` wrote to disk renders
identically later, and the benchmark tables and the CLI agree by
construction because they read the same records.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.obs.snapshot import MetricRecord, StatsSnapshot
from repro.report.tables import format_table


def _scalar_text(record: MetricRecord, precision: int) -> str:
    value = record.data["value"]
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def _summary_text(record: MetricRecord, precision: int) -> str:
    data = record.data
    if not data.get("count"):
        return "count=0"
    parts = [f"count={data['count']}", f"mean={data['mean']:.{precision}f}"]
    parts.append(f"min={data['min']:.{precision}f}")
    parts.append(f"max={data['max']:.{precision}f}")
    for label, value in (data.get("percentiles") or {}).items():
        if value is not None:
            parts.append(f"{label}={value:.{precision}f}")
    return " ".join(parts)


def format_snapshot(
    snapshot: StatsSnapshot,
    title: Optional[str] = None,
    names: Optional[Sequence[str]] = None,
    precision: int = 6,
) -> str:
    """Render a snapshot as an aligned monospace table.

    Args:
        snapshot: the frozen metrics.
        title: optional table title.
        names: subset and ordering of metric names (default: all, in
            snapshot order); unknown names are skipped silently so one
            template covers runs with different monitors attached.
        precision: float digits.
    """
    selected = (
        [r for name in names for r in snapshot.records if r.name == name]
        if names is not None
        else snapshot.records
    )
    rows = []
    for record in selected:
        text = (
            _scalar_text(record, precision)
            if record.is_scalar
            else _summary_text(record, precision)
        )
        rows.append([record.name, record.kind, record.unit, text])
    return format_table(
        ["metric", "kind", "unit", "value"], rows, title=title
    )
