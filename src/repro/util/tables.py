"""Plain-text table and series rendering for experiment harnesses.

Each experiment module prints the same rows/series the paper's figures plot.
Rendering is deliberately dependency-free (no matplotlib offline) — a figure
becomes an aligned text table with one column per x-value and one row per
series.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render rows as an aligned monospace table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    lines.extend(
        " | ".join(c.ljust(w) for c, w in zip(row, widths))
        for row in cells[1:]
    )
    return "\n".join(lines)


def format_series(
    x_label: str,
    x_values: Sequence[object],
    series: Mapping[str, Sequence[float]],
    title: str | None = None,
    unit: str = "",
) -> str:
    """Render a figure as one row per series, one column per x value.

    Matches the layout of the paper's grouped bar charts: ``series`` maps a
    legend entry (e.g. ``"Pipe. (TinyLlama)"``) to its per-x measurements.
    """
    headers = [x_label] + [str(x) for x in x_values]
    rows = [
        [name] + [_fmt(v) for v in values]
        for name, values in series.items()
    ]
    out = format_table(headers, rows, title=title)
    if unit:
        out += f"\n(values in {unit})"
    return out


def _fmt(v: object) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 100:
            return f"{v:.1f}"
        if abs(v) >= 1:
            return f"{v:.3f}"
        return f"{v:.4f}"
    return str(v)
