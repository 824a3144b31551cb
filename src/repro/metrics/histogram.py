"""A small exact-value histogram with percentile summaries.

The benches already summarize via :func:`repro.metrics.stats.percentile`;
:class:`Histogram` packages that with recording, merging (needed when
QoE is aggregated across farm workers or client fleets) and a dict form
for result files. Values are kept exactly — the
populations here are hundreds of sessions, not millions of packets — so
percentiles are exact, deterministic, and merge without bucket error.

Storage is weighted ``(value, count)`` pairs: a load-harness cohort
delegate records its QoE once with the cohort size as the count, so a
million modeled viewers cost as many entries as there are *distinct*
sessions, while every summary statistic is computed exactly as if the
value had been recorded ``count`` times.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Sequence

from .stats import percentile


class Histogram:
    """Exact-value histogram over floats, with per-value weights."""

    def __init__(self, name: str = "", values: Iterable[float] = ()) -> None:
        self.name = name
        self._values: List[float] = []
        self._counts: List[int] = []
        self._total_count = 0
        for value in values:
            self.record(value)

    def record(self, value: float, count: int = 1) -> None:
        """Record ``value`` as if it occurred ``count`` times."""
        if count < 1:
            raise ValueError(f"count must be a positive integer, got {count}")
        self._values.append(float(value))
        self._counts.append(int(count))
        self._total_count += int(count)

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.record(value)

    def merge(self, other: "Histogram") -> None:
        """Absorb another histogram's population (weights preserved)."""
        self._values.extend(other._values)
        self._counts.extend(other._counts)
        self._total_count += other._total_count

    # ------------------------------------------------------------------

    def items(self) -> List[tuple]:
        """The weighted population as ``(value, count)`` pairs."""
        return list(zip(self._values, self._counts))

    @property
    def count(self) -> int:
        return self._total_count

    @property
    def total(self) -> float:
        # fsum: the exactly-rounded sum, so a weighted entry (v, c) totals
        # identically to c separate recordings of v — the equivalence the
        # cohort load harness relies on
        return math.fsum(v * c for v, c in zip(self._values, self._counts))

    @property
    def min(self) -> float:
        return min(self._values) if self._values else 0.0

    @property
    def max(self) -> float:
        return max(self._values) if self._values else 0.0

    def mean(self) -> float:
        if not self._total_count:
            return 0.0
        return self.total / self._total_count

    def percentile(self, p: float) -> float:
        """Exactly :func:`repro.metrics.stats.percentile` of the expanded
        population, computed without expanding it."""
        if not self._values:
            return 0.0
        n = self._total_count
        if n == 1:
            return self._values[0]
        if not 0 <= p <= 100:
            # delegate the error contract to the canonical implementation
            return percentile(self._values, p)
        ordered = sorted(zip(self._values, self._counts))
        rank = p / 100 * (n - 1)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        v_lo = v_hi = None
        cumulative = 0
        for value, count in ordered:
            cumulative += count
            if v_lo is None and lo < cumulative:
                v_lo = value
            if hi < cumulative:
                v_hi = value
                break
        if v_lo is None:
            v_lo = ordered[-1][0]
        if v_hi is None:
            v_hi = ordered[-1][0]
        if lo == hi:
            return v_lo
        frac = rank - lo
        return v_lo * (1 - frac) + v_hi * frac

    def percentiles(
        self, ps: Sequence[float] = (50.0, 90.0, 99.0)
    ) -> Dict[str, float]:
        return {f"p{p:g}": self.percentile(p) for p in ps}

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "count": self.count,
            "mean": self.mean(),
            "min": self.min,
            "max": self.max,
        }
        out.update(self.percentiles())
        return out

    def as_dict(self) -> Dict[str, Any]:
        out = self.summary()
        out["name"] = self.name
        return out

    def __len__(self) -> int:
        return self._total_count

    def __repr__(self) -> str:
        return f"<Histogram {self.name!r} n={self.count}>"
