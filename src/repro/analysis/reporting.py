"""Paper-style text tables for bench output.

The benches print the same rows/series the evaluation claims describe;
:func:`format_table` renders aligned monospace tables, and
:func:`format_sweep` turns a :class:`~repro.analysis.metrics.SweepTable`
into one.  Keeping formatting in one place makes every bench's output
uniform and diff-able into EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.metrics import SweepTable
from repro.exceptions import ConfigurationError

__all__ = ["format_table", "format_sweep"]


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or 0 < abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:,.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned monospace table with a header rule."""
    if not headers:
        raise ConfigurationError("table needs headers")
    str_rows = [[_cell(v) for v in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row width {len(row)} != header width {len(headers)}"
            )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths, strict=True))

    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)


def format_sweep(table: SweepTable) -> str:
    """Render a sweep table: parameter column + every metric column."""
    names = table.metric_names()
    headers = [table.parameter] + names
    rows = [
        [value] + [metrics.get(name, float("nan")) for name in names]
        for value, metrics in table.rows()
    ]
    return format_table(headers, rows)
