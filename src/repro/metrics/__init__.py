"""Metrics: sample statistics and per-experiment collectors."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "collector": ("MetricsCollector",),
    "counters": ("Counters", "counters_snapshot", "get_counters", "reset_counters"),
    "histogram": ("Histogram",),
    "stats": (
        "StatsError", "Summary", "format_table", "jain_index", "mean", "percentile",
        "stdev",
    ),
})
