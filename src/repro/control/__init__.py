"""Supervision plane for the edge tier.

The serving tier (``repro.streaming.edge``) knows how to *react* to
membership changes — ``EdgeDirectory`` admission skips down edges, the
player re-routes — but until this package nothing in the system
*detected* failure. ``repro.control`` closes that loop in two layers:

* :class:`HeartbeatMonitor` — edges emit sim-clock heartbeat datagrams;
  a deterministic missed-beat suspicion mechanism (one beat interval,
  a tolerance learned per edge from benign gaps) drives
  ``EdgeDirectory.mark_down``/``mark_up`` organically and settles the
  upstream sessions a crashed edge orphaned.
* :meth:`EdgeRelay.drain` (in ``repro.streaming.edge``) — graceful
  decommission with warm session hand-off, traced as ``drain.begin`` /
  ``session.handoff`` / ``drain.end`` for :class:`TraceChecker` audit.

Capacity is placed by hand, as the paper's media server and relays
were: nothing here adds or removes edges.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "heartbeat": ("HEARTBEAT_WIRE_SIZE", "HeartbeatMonitor"),
})
