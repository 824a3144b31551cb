"""Backbone QoS budget for the relay tree.

The edge tier's *last-mile* QoS is per-client-link
:class:`~repro.net.qos.QoSManager` admission on each server. The
*backbone* — the tree links a fill or live feed crosses between an edge
and its sibling, regional parent, or the origin — had no admission story
at all: PR 5 edges simply burst whole runs upstream and hoped. With
multi-level relay topologies the backbone is a shared, finite resource,
so admission must be honest end to end: every tree link an upstream
session occupies is charged against a :class:`BackboneBudget` before a
single media byte moves, and released when the flow stops.

One budget instance models the backbone controller for a whole
deployment. Links are identified by ``(downstream host, upstream host)``
pairs; each carries ``default_capacity`` bits/second unless overridden
in ``capacities``. Reservations are charged at the content's nominal
bitrate — a whole-file fast-start fill bursts *faster* than that, but
the burst rides the link's spare bandwidth; the reservation is the
guaranteed floor the paper's XOCPN channel setup would have pinned.

Every reserve/release is traced (``backbone.reserve`` /
``backbone.release``) with the link's running total and capacity, so
:class:`~repro.obs.checker.TraceChecker` can audit that the budget was
never over-reserved and that every reservation was released exactly
once.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from ..metrics.counters import Counters


class BudgetError(Exception):
    """Backbone admission refused or reservation misuse."""


class BackboneBudget:
    """Admission control over the relay tree's upstream links.

    ``reserve`` returns an opaque reservation id; ``release`` gives the
    bandwidth back. A link with no explicit capacity entry falls back to
    ``default_capacity``; ``symmetric=True`` (default) folds ``(a, b)``
    and ``(b, a)`` onto one budget line, matching the virtual network's
    undirected links.
    """

    def __init__(
        self,
        default_capacity: float = 50_000_000.0,
        *,
        capacities: Optional[Dict[Tuple[str, str], float]] = None,
        symmetric: bool = True,
        tracer=None,
    ) -> None:
        if default_capacity <= 0:
            raise BudgetError("default_capacity must be positive")
        self.default_capacity = default_capacity
        self.symmetric = symmetric
        self._capacities: Dict[Tuple[str, str], float] = {}
        for link, capacity in (capacities or {}).items():
            if capacity <= 0:
                raise BudgetError(f"capacity for {link!r} must be positive")
            self._capacities[self._key(link)] = capacity
        #: rid -> (link key, bandwidth, owner)
        self._reservations: Dict[str, Tuple[Tuple[str, str], float, str]] = {}
        self._reserved: Dict[Tuple[str, str], float] = {}
        #: rids settled by a forced release; a holder's own late
        #: ``release`` after its upstream died must be a no-op, not an
        #: error and not a duplicate trace record
        self._force_released: set = set()
        self._ids = itertools.count(1)
        self.rejected = 0
        self.counters = Counters("backbone-budget")
        self.tracer = tracer

    # ------------------------------------------------------------------

    def _key(self, link: Tuple[str, str]) -> Tuple[str, str]:
        a, b = link
        if self.symmetric and b < a:
            return (b, a)
        return (a, b)

    def capacity(self, link: Tuple[str, str]) -> float:
        return self._capacities.get(self._key(link), self.default_capacity)

    def reserved(self, link: Tuple[str, str]) -> float:
        return self._reserved.get(self._key(link), 0.0)

    def available(self, link: Tuple[str, str]) -> float:
        return self.capacity(link) - self.reserved(link)

    # ------------------------------------------------------------------

    def reserve(
        self, link: Tuple[str, str], bandwidth: float, *, owner: str = ""
    ) -> str:
        """Charge ``bandwidth`` against ``link`` or raise
        :class:`BudgetError` — admission is refused *before* any media
        moves, which is what makes tree admission honest end to end."""
        if bandwidth <= 0:
            raise BudgetError("bandwidth must be positive")
        key = self._key(link)
        capacity = self.capacity(key)
        held = self._reserved.get(key, 0.0)
        if held + bandwidth > capacity:
            self.rejected += 1
            self.counters.inc("rejections")
            raise BudgetError(
                f"backbone link {key[0]}<->{key[1]} refuses {bandwidth:g} "
                f"b/s: {held:g} of {capacity:g} already reserved"
            )
        rid = f"bb#{next(self._ids)}"
        self._reservations[rid] = (key, bandwidth, owner)
        self._reserved[key] = held + bandwidth
        self.counters.inc("reservations")
        if self.tracer is not None:
            self.tracer.event(
                "backbone.reserve",
                rid=rid,
                link=f"{key[0]}<->{key[1]}",
                bandwidth=bandwidth,
                reserved=self._reserved[key],
                capacity=capacity,
                owner=owner,
            )
        return rid

    def release(self, rid: str) -> None:
        if rid not in self._reservations:
            if rid in self._force_released:
                # the failover path already settled this reservation on
                # the holder's behalf; the holder's own (late) release
                # is tolerated so crash-time teardown stays idempotent
                self._force_released.discard(rid)
                self.counters.inc("late_releases")
                return
            raise BudgetError(f"backbone reservation {rid!r} not active")
        self._settle(rid)

    def _settle(self, rid: str, **forced: bool) -> None:
        """Pop one reservation, return its bandwidth, count and trace it
        (``forced=True`` rides on the trace record of a forced release)."""
        key, bandwidth, owner = self._reservations.pop(rid)
        remaining = self._reserved.get(key, 0.0) - bandwidth
        if remaining <= 1e-9:
            self._reserved.pop(key, None)
        else:
            self._reserved[key] = remaining
        self.counters.inc("releases")
        if self.tracer is not None:
            self.tracer.event(
                "backbone.release",
                rid=rid,
                link=f"{key[0]}<->{key[1]}",
                bandwidth=bandwidth,
                owner=owner,
                **forced,
            )

    def force_release_host(self, host: str) -> List[str]:
        """Settle every reservation on a link touching ``host`` — the
        safety net when a relay dies holding charges its peers can no
        longer release through the normal burst/feed-end path. Returns
        the settled rids. Later ``release`` calls on those rids are
        counted no-ops (``late_releases``)."""
        doomed = [
            rid for rid, (key, _bw, _owner) in self._reservations.items()
            if host in key
        ]
        for rid in sorted(doomed):
            self._force_released.add(rid)
            self._settle(rid, forced=True)
            self.counters.inc("forced_releases")
        return sorted(doomed)

    # ------------------------------------------------------------------

    def active(self) -> List[str]:
        return sorted(self._reservations)

    def assert_no_leaks(self) -> None:
        """Raise :class:`BudgetError` if any tree link still holds a
        reservation — test-suite invariant after every teardown path."""
        if self._reservations:
            lines = ", ".join(
                f"{rid} on {key[0]}<->{key[1]} owner={owner or '?'} "
                f"bw={bw:g}"
                for rid, (key, bw, owner) in sorted(self._reservations.items())
            )
            raise BudgetError(f"leaked backbone reservations: {lines}")
