"""Named-series metric collection for experiments.

A :class:`MetricsCollector` accumulates ``(series, x, y)`` samples during a
run and renders them as the rows a paper figure would plot — the common
shape of every paper bench in ``benchmarks/``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from .stats import StatsError, Summary, format_table


class MetricsCollector:
    """Collects per-series (x, y) samples and renders figures."""

    def __init__(self, name: str = "experiment") -> None:
        self.name = name
        self._samples: "OrderedDict[str, List[Tuple[float, float]]]" = OrderedDict()

    def record(self, series: str, x: float, y: float) -> None:
        self._samples.setdefault(series, []).append((x, y))

    def series(self, name: str) -> List[Tuple[float, float]]:
        if name not in self._samples:
            raise StatsError(f"no series {name!r}")
        return sorted(self._samples[name])

    def ys(self, name: str) -> List[float]:
        return [y for _, y in self.series(name)]

    def summary(self, name: str) -> Summary:
        return Summary.of(self.ys(name))

    def xs(self) -> List[float]:
        """Union of x values across series, sorted."""
        values = sorted({x for samples in self._samples.values() for x, _ in samples})
        return values

    def value_at(self, series: str, x: float) -> Optional[float]:
        for sx, sy in self.series(series):
            if abs(sx - x) < 1e-12:
                return sy
        return None

    def as_table(self, *, x_label: str = "x") -> str:
        """Figure-shaped table: one row per x, one column per series."""
        headers = [x_label, *self._samples.keys()]
        rows = []
        for x in self.xs():
            row: List[object] = [x]
            for name in self._samples:
                value = self.value_at(name, x)
                row.append(value if value is not None else "-")
            rows.append(row)
        return format_table(headers, rows, title=self.name)

