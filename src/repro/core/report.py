"""Table/figure rendering helpers.

The benchmark harness regenerates every table and figure of the paper as plain
text; these helpers keep the formatting in one place so benches and examples stay
small.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

from repro.flows.kernels import fold_sum


def format_count(value: float) -> str:
    """Human-readable count: 8.62K, 3.03M, else the plain integer."""
    if value >= 1_000_000:
        return f"{value / 1_000_000:.2f}M"
    if value >= 1_000:
        return f"{value / 1_000:.2f}K"
    return str(int(value))


def format_bytes(value: float) -> str:
    """Human-readable byte volume."""
    units = ["B", "KB", "MB", "GB", "TB"]
    magnitude = float(value)
    for unit in units:
        if magnitude < 1024 or unit == units[-1]:
            return f"{magnitude:.1f}{unit}"
        magnitude /= 1024
    return f"{magnitude:.1f}TB"


def format_percent(fraction: float, digits: int = 1) -> str:
    """Format a fraction as a percentage."""
    return f"{fraction * 100:.{digits}f}%"


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> str:
    """Render an ASCII table with aligned columns."""
    string_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in string_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = " | ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * width for width in widths))
    for row in string_rows:
        lines.append(
            " | ".join(
                cell.ljust(widths[i]) if i < len(widths) else cell for i, cell in enumerate(row)
            )
        )
    return "\n".join(lines)


def render_series(series: Mapping[str, Mapping[object, float]], value_format=format_count, title: str = "") -> str:
    """Render a set of named time series as compact text (one line per series)."""
    lines: List[str] = []
    if title:
        lines.append(title)
    for name in series:
        values = list(series[name].values())
        if not values:
            lines.append(f"{name}: (empty)")
            continue
        lines.append(
            f"{name}: n={len(values)} min={value_format(min(values))} "
            f"max={value_format(max(values))} mean={value_format(fold_sum(values) / len(values))}"
        )
    return "\n".join(lines)


def render_distribution_summary(
    distributions: Mapping[str, "object"], quantiles: Sequence[float] = (0.5, 0.9, 0.99)
) -> str:
    """Render quantile summaries for a mapping of named empirical distributions."""
    headers = ["series", "n"] + [f"p{int(q * 100)}" for q in quantiles]
    rows = []
    for name, distribution in distributions.items():
        if len(distribution) == 0:
            rows.append([name, 0] + ["-" for _ in quantiles])
            continue
        rows.append(
            [name, len(distribution)]
            + [format_bytes(distribution.quantile(q)) for q in quantiles]
        )
    return render_table(headers, rows)
