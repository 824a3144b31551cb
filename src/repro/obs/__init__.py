"""End-to-end observability: tracing, invariant auditing, QoE.

``repro.obs`` threads one :class:`Tracer` through publish (encode farm,
publisher), serve (media server, sessions, QoS, faults) and playback
(player, recovery), then lets :class:`TraceChecker` audit the finished
trace for cross-layer lifecycle invariants and :class:`QoEAggregator`
summarize per-session quality of experience.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "checker": ("TraceChecker", "TraceViolation"),
    "qoe": ("QoEAggregator", "SessionQoE"),
    "trace": ("TraceError", "Tracer", "load_jsonl"),
})
