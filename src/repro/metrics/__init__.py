"""Metrics: sample statistics and per-experiment collectors."""

from .collector import MetricsCollector
from .counters import (
    Counters,
    counters_snapshot,
    get_counters,
    reset_counters,
)
from .histogram import Histogram
from .stats import (
    StatsError,
    Summary,
    format_table,
    jain_index,
    mean,
    percentile,
    stdev,
)

__all__ = [
    "Counters",
    "Histogram",
    "MetricsCollector",
    "StatsError",
    "Summary",
    "counters_snapshot",
    "format_table",
    "get_counters",
    "jain_index",
    "mean",
    "percentile",
    "reset_counters",
    "stdev",
]
