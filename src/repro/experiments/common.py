"""Shared plumbing for experiment drivers: result shaping, canonical
scorecard serialization, and ASCII plots."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from ..bench.sweep import SweepResult


def canonical_json_text(payload: dict) -> str:
    """The one true scorecard serialization.

    Sorted keys, two-space indent, trailing newline, NaN rejected — so
    identical runs (fleet, chaos, campaign) are byte-identical files and
    CI can gate determinism with ``cmp``.
    """
    return json.dumps(payload, indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


@dataclass
class FigureResult:
    """All series for one reproduced figure."""

    figure: str
    title: str
    series: list[SweepResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def report(self) -> str:
        lines = [f"== {self.figure}: {self.title} =="]
        for sweep in self.series:
            lines.append(sweep.table())
            lines.append("")
        if self.notes:
            lines.append("notes:")
            lines.extend(f"  - {n}" for n in self.notes)
        lines.append(ascii_plot(self.series))
        return "\n".join(lines)


def format_series(sweep: SweepResult) -> str:
    return ", ".join(f"c={c}:{t:.0f}" for c, t in sweep.series())


def ascii_plot(series: list[SweepResult], width: int = 68,
               height: int = 16) -> str:
    """A gnuplot-esque log-x scatter of throughput vs concurrency."""
    points = [(c, t, i) for i, sweep in enumerate(series)
              for c, t in sweep.series()]
    if not points:
        return "(no data)"
    max_t = max(t for _, t, _ in points) or 1.0
    min_c = min(c for c, _, _ in points)
    max_c = max(c for c, _, _ in points)
    log_lo, log_hi = math.log2(min_c), math.log2(max(2 * min_c, max_c))
    grid = [[" "] * width for _ in range(height)]
    marks = "ox+*#@%&"
    for c, t, idx in points:
        x = int((math.log2(c) - log_lo) / (log_hi - log_lo) * (width - 1))
        y = height - 1 - int(t / max_t * (height - 1))
        grid[y][x] = marks[idx % len(marks)]
    lines = [f"{max_t:8.0f} tok/s"]
    lines += ["  |" + "".join(row) for row in grid]
    lines.append("  +" + "-" * width)
    lines.append(f"   concurrency {min_c} .. {max_c} (log scale)")
    for i, sweep in enumerate(series):
        lines.append(f"   [{marks[i % len(marks)]}] {sweep.label}")
    return "\n".join(lines)
