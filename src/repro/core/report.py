"""Plain-text rendering of tables, CDF curves, and paper comparisons.

Every benchmark prints its figure/table through these helpers so the
output is uniform: a fixed-width table, an ASCII CDF sketch, and
"paper vs measured" rows that EXPERIMENTS.md collects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .stats import ECDF


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str | None = None) -> str:
    """Render a fixed-width table with a header rule."""
    str_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    parts = []
    if title:
        parts.append(title)
    parts.append(line(list(headers)))
    parts.append("  ".join("-" * w for w in widths))
    parts.extend(line(row) for row in str_rows)
    return "\n".join(parts)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def sketch_cdf(cdf: ECDF, label: str = "") -> str:
    """A one-line quantile sketch of a CDF (p5/p25/p50/p75/p95)."""
    quantiles = [cdf.quantile(q) for q in (0.05, 0.25, 0.50, 0.75, 0.95)]
    body = " | ".join(f"{q:.3g}" for q in quantiles)
    prefix = f"{label}: " if label else ""
    return f"{prefix}p5..p95 = [{body}] (n={len(cdf)})"


@dataclass(frozen=True)
class PaperComparison:
    """One paper-vs-measured check row."""

    metric: str
    paper_value: str
    measured_value: str
    holds: bool

    def render(self) -> str:
        status = "OK " if self.holds else "DIFF"
        return (f"[{status}] {self.metric}: paper={self.paper_value} "
                f"measured={self.measured_value}")


def comparison_block(title: str,
                     comparisons: Sequence[PaperComparison]) -> str:
    """Render a titled block of paper-vs-measured rows."""
    lines = [f"== {title} =="]
    lines.extend(c.render() for c in comparisons)
    agreeing = sum(1 for c in comparisons if c.holds)
    lines.append(f"-- {agreeing}/{len(comparisons)} checks hold --")
    return "\n".join(lines)


def check_ratio(metric: str, paper: float, measured: float,
                tolerance: float = 0.5) -> PaperComparison:
    """A comparison that holds when measured is within +-tolerance
    (relative) of the paper's value."""
    holds = paper != 0 and abs(measured - paper) / abs(paper) <= tolerance
    return PaperComparison(
        metric=metric,
        paper_value=f"{paper:.3g}",
        measured_value=f"{measured:.3g}",
        holds=bool(holds),
    )


def check_ordering(metric: str, description: str, holds: bool,
                   measured: str) -> PaperComparison:
    """A comparison about a qualitative ordering ("edge < cloud")."""
    return PaperComparison(
        metric=metric,
        paper_value=description,
        measured_value=measured,
        holds=holds,
    )


def cdf_to_rows(cdf: ECDF, points: int = 9) -> list[tuple[float, float]]:
    """(value, F(value)) rows for tabulating a CDF curve."""
    qs = np.linspace(0.1, 0.9, points)
    return [(cdf.quantile(float(q)), float(q)) for q in qs]
