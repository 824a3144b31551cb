"""Small, dependency-light statistics helpers used by benches and reports.

Nothing clever — means, percentiles, Jain fairness, and a fixed-width
table renderer so every bench prints its figure/table in a uniform,
comparable format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence


class StatsError(Exception):
    """Empty-input or malformed-table misuse."""


def mean(values: Sequence[float]) -> float:
    if not values:
        raise StatsError("mean of empty sequence")
    return sum(values) / len(values)


def stdev(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    m = mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1))


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile, p in [0, 100]."""
    if not values:
        raise StatsError("percentile of empty sequence")
    if not 0 <= p <= 100:
        raise StatsError("percentile must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = p / 100 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: 1 = perfectly fair, 1/n = one user hogs."""
    positive = [v for v in values if v > 0]
    if not positive:
        return 1.0
    return sum(positive) ** 2 / (len(positive) * sum(v * v for v in positive))


@dataclass
class Summary:
    """Five-number-ish summary of a sample."""

    n: int
    mean: float
    stdev: float
    minimum: float
    p50: float
    p95: float
    maximum: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "Summary":
        if not values:
            raise StatsError("summary of empty sequence")
        return cls(
            n=len(values),
            mean=mean(values),
            stdev=stdev(values),
            minimum=min(values),
            p50=percentile(values, 50),
            p95=percentile(values, 95),
            maximum=max(values),
        )

    def __str__(self) -> str:
        return (
            f"n={self.n} mean={self.mean:.4g} sd={self.stdev:.3g} "
            f"min={self.minimum:.4g} p50={self.p50:.4g} "
            f"p95={self.p95:.4g} max={self.maximum:.4g}"
        )


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: Optional[str] = None,
) -> str:
    """Fixed-width ASCII table (every bench's output format)."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        if len(row) != len(headers):
            raise StatsError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        rendered_rows.append(
            [f"{c:.4g}" if isinstance(c, float) else str(c) for c in row]
        )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered_rows)) if rendered_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
