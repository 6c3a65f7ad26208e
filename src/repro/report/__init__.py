"""Rendering of the paper's tables and figure series as text.

The benchmark harness prints each reproduced artefact in the same
row/column layout the paper uses, with a paper-vs-measured column where
the paper states numbers.
"""

from repro.report.figures import format_bar_chart, format_grouped_bars
from repro.report.obs_report import format_snapshot
from repro.report.tables import (
    format_comparison_table,
    format_series,
    format_table,
)

__all__ = [
    "format_bar_chart",
    "format_comparison_table",
    "format_grouped_bars",
    "format_series",
    "format_snapshot",
    "format_table",
]
