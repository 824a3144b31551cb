"""Heartbeat failure detection for the edge tier.

Edges do not *report* failure — they just stop talking. The
:class:`HeartbeatMonitor` arms a small beacon task on every watched
relay's host that sends a heartbeat datagram to the controller host over
the real simulated network, so everything that can silence an edge in
production silences it here too: a crash stops the beacon at the source,
a severed or partitioned link drops it in flight, a lossy link thins it.

Suspicion is a sweep over last-heard times: an edge silent for more than
``miss_threshold`` expected intervals is marked down in the
:class:`~repro.streaming.edge.EdgeDirectory` — the only caller of
``mark_down``/``mark_up`` in the system; tests never need to touch them
again. Every edge beats at the monitor's one interval, and the
tolerance is **learned per edge**: the monitor keeps the largest benign
inter-beat gap it has observed (a lossy beacon path that drops every
other beat teaches the monitor a wider tolerance instead of a false
suspicion). Suspicion periods never feed the learner, so a long outage
does not permanently deafen detection.

A suspected edge that beats again rejoins cleanly (``mark_up``); its
in-flight fills and viewer sessions were never touched. A suspected edge
that actually *crashed* left upstream replica sessions orphaned on the
origin — the monitor settles those immediately at suspicion time
(posting the close on the origin's control route) instead of letting
them leak until a restart or shutdown that may never come. Settlement
runs in **both directions**: the crashed relay's own upstream orphans
(what *it* held elsewhere) and every surviving relay's references *at*
the dead host (what others held there — in-flight fills abort and
re-plan, live feeds migrate or drop).

Crashed **regional parents** additionally trigger region failover: the
directory elects the healthiest same-region leaf as acting parent
(:meth:`EdgeDirectory.promote_parent`) — or falls the region flat to
origin-only when no leaf qualifies — and every surviving leaf re-attaches
its live feeds to the new upstream with bounded catch-up from live
history, the viewer-facing stream untouched.
Any backbone reservation still charged on the dead parent's links is
force-released as a final safety net, so ``assert_no_leaks`` holds the
moment suspicion fires. The whole sequence is traced
(``region.failover`` / ``region.failover_end``) for
:class:`~repro.obs.checker.TraceChecker` audit.

Everything is deterministic: beacon phases are sha1-derived from
``(seed, edge name)``, tasks are epoch-anchored
:class:`~repro.net.engine.PeriodicTask`\\ s, and both beacons and sweeps
are deliberately **not** skippable — a leapt beacon would look exactly
like a dead edge to the next sweep.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional

from ..metrics.counters import Counters
from ..net.engine import PeriodicTask
from ..net.transport import DatagramChannel, Message
from ..streaming.edge import PlacementError
from ..web.http import HTTPClient, HTTPError

#: heartbeat datagram payload size (bytes on the wire, before UDP/IP
#: framing) — edge name plus a tiny fixed header
HEARTBEAT_WIRE_SIZE = 32


class _WatchState:
    """Everything the monitor tracks about one edge."""

    __slots__ = (
        "name",
        "relay",
        "expected",
        "last_beat",
        "suspected",
        "suspected_at",
        "beacon",
        "channel",
    )

    def __init__(self, name, relay, interval, armed_at):
        self.name = name
        self.relay = relay
        #: adaptive expected gap: starts at the beat interval, only ever
        #: widened by observed benign gaps
        self.expected = interval
        #: arming counts as a beat — a freshly watched edge gets a full
        #: grace window before it can be suspected
        self.last_beat = armed_at
        self.suspected = False
        self.suspected_at = None
        self.beacon = None
        self.channel = None


class HeartbeatMonitor:
    """Missed-heartbeat failure detector driving the edge directory.

    ``watch_directory()`` arms a beacon on every relay the directory
    knows; ``start()`` arms the suspicion sweep. Beacon send phases are
    staggered deterministically per edge so a fleet of edges never
    synchronizes its beats onto one simulator instant. The sweep runs
    at the beat interval.
    """

    #: the dedicated edge → controller link laid for beacons
    BEACON_BANDWIDTH = 1_000_000.0
    BEACON_DELAY = 0.005

    def __init__(
        self,
        network,
        directory,
        *,
        interval: float = 0.5,
        miss_threshold: int = 3,
        seed: int = 0,
        tracer=None,
    ) -> None:
        if interval <= 0:
            raise ValueError("heartbeat interval must be > 0")
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        self.network = network
        self.simulator = network.simulator
        self.directory = directory
        self.host = network.add_host("controller")
        self.interval = interval
        self.miss_threshold = miss_threshold
        self.seed = seed
        self.tracer = tracer
        self.counters = Counters("control-monitor")
        #: (time, edge, silence) per suspicion — detection-latency data
        self.suspicions: List[Dict[str, Any]] = []
        #: one entry per region failover — what was promoted (or that
        #: the region fell flat), when, and what moved
        self.failovers: List[Dict[str, Any]] = []
        self._watched: Dict[str, _WatchState] = {}
        self._sweep_task: Optional[PeriodicTask] = None
        #: (origin_url, session_id) closes that failed and await retry
        self._settle_retry: List[tuple] = []
        self._http = HTTPClient(network, self.host)

    # ------------------------------------------------------------------
    # arming

    def watch(self, relay) -> None:
        """Arm a heartbeat beacon on ``relay``'s host."""
        name = relay.name
        if name in self._watched:
            return
        # dedicated control link, created only if the pair is not wired
        # yet — connect() would *replace* an existing link and silently
        # shed any fault state scripted onto it
        if (relay.host, self.host) not in self.network._links:
            self.network.connect(
                relay.host,
                self.host,
                bandwidth=self.BEACON_BANDWIDTH,
                delay=self.BEACON_DELAY,
            )
        state = _WatchState(name, relay, self.interval, self.simulator.now)
        state.channel = DatagramChannel(
            self.network.link(relay.host, self.host), self._on_beat
        )
        # deterministic per-edge phase stagger in [0, interval)
        digest = hashlib.sha1(f"{self.seed}:{name}".encode()).hexdigest()
        phase = (int(digest[:8], 16) / float(1 << 32)) * self.interval
        # NOT skippable: a quiet-window fast_forward that leapt beacons
        # would present the next sweep with a silent, healthy edge
        state.beacon = PeriodicTask(
            self.simulator,
            self.interval,
            lambda s=state: self._beat(s),
            start_delay=phase,
            skippable=False,
        )
        self._watched[name] = state

    def watch_directory(self) -> None:
        """Arm beacons for every relay the directory holds an object for."""
        for name, relay in sorted(self.directory.relays().items()):
            if relay is not None:
                self.watch(relay)

    def start(self) -> None:
        """Arm the suspicion sweep (idempotent)."""
        if self._sweep_task is None:
            # NOT skippable, same reasoning as the beacons
            self._sweep_task = PeriodicTask(
                self.simulator,
                self.interval,
                self._sweep,
                start_delay=self.interval,
                skippable=False,
            )

    def stop(self) -> None:
        """Stop sweep and all beacons (a stopped monitor schedules
        nothing, so a drained simulator stays drained)."""
        if self._sweep_task is not None:
            self._sweep_task.stop()
            self._sweep_task = None
        for state in self._watched.values():
            if state.beacon is not None:
                state.beacon.stop()
                state.beacon = None

    # ------------------------------------------------------------------
    # beacon path

    def _beat(self, state: _WatchState) -> None:
        # a crashed relay's host sends nothing — silence at the source
        if state.relay is not None and state.relay.crashed:
            return
        state.channel.send(Message(("beat", state.name), HEARTBEAT_WIRE_SIZE))

    def _on_beat(self, message: Message) -> None:
        kind, name = message.payload
        state = self._watched.get(name)
        if kind != "beat" or state is None:
            return
        now = self.simulator.now
        self.counters.inc("beats")
        gap = now - state.last_beat
        if not state.suspected and gap <= self.miss_threshold * state.expected:
            # benign gap (e.g. a lossy beacon path eating alternate
            # beats): widen tolerance. Suspicion-period gaps are outage
            # evidence, not cadence, and must not deafen the detector.
            state.expected = max(state.expected, gap)
        state.last_beat = now
        if state.suspected:
            state.suspected = False
            state.suspected_at = None
            try:
                self.directory.mark_up(name)
            except PlacementError:
                # watched but not in the directory: the beat is just
                # noise
                pass
            self.counters.inc("rejoins")
            if self.tracer is not None:
                self.tracer.event("control.rejoin", edge=name)

    # ------------------------------------------------------------------
    # suspicion sweep

    def _threshold(self, state: _WatchState) -> float:
        return self.miss_threshold * state.expected

    def _sweep(self) -> None:
        now = self.simulator.now
        self.counters.inc("sweeps")
        self._retry_settlements()
        for name in sorted(self._watched):
            state = self._watched[name]
            if state.suspected:
                continue
            silence = now - state.last_beat
            threshold = self._threshold(state)
            if silence > threshold:
                self._suspect(state, silence, threshold)

    def _suspect(self, state: _WatchState, silence: float, threshold: float) -> None:
        now = self.simulator.now
        state.suspected = True
        state.suspected_at = now
        try:
            self.directory.mark_down(state.name)
        except PlacementError:
            pass  # watched but not in the directory
        self.counters.inc("suspicions")
        self.suspicions.append(
            {"time": now, "edge": state.name, "silence": silence}
        )
        if self.tracer is not None:
            self.tracer.event(
                "control.suspect",
                edge=state.name,
                silence=round(silence, 6),
                threshold=round(threshold, 6),
            )
        # a crashed edge left its origin-side replica sessions orphaned;
        # settle them now instead of waiting for a restart/shutdown that
        # may never come. A suspected-but-alive *leaf* keeps everything
        # (it may rejoin), but a suspected **parent** is failed over
        # either way: the region cannot tell a dead parent from a
        # silently partitioned one, and every leaf behind it is stalled
        # until someone re-parents them. A partitioned parent that later
        # rejoins comes back demoted — the slot already has a successor.
        if state.relay is not None and state.relay.crashed:
            self._settle_orphans(state.relay)
        if state.relay is not None:
            if state.relay.is_parent:
                self._fail_over_parent(state)
            elif state.relay.crashed:
                self._abort_downstream(state.relay)

    # ------------------------------------------------------------------
    # region parent failover

    def _region_relays(self, region: str, *, exclude: str):
        """Surviving relay objects of ``region``, deterministic order."""
        out = []
        for name, relay in sorted(self.directory.relays().items()):
            if name == exclude or relay is None or relay.crashed:
                continue
            try:
                if self.directory.region_of(name) != region:
                    continue
            except PlacementError:
                continue
            out.append(relay)
        return out

    def _fail_over_parent(self, state: _WatchState) -> None:
        """Re-parent a region whose parent relay crashed.

        Runs synchronously inside the suspicion sweep, in a fixed
        order: elect → promote → migrate the successor's own feeds to
        the origin → re-point every other leaf at the successor (their
        feeds migrate with bounded catch-up, fills abort and re-plan) →
        force-release whatever the dead parent's links still hold. When
        no leaf qualifies the region falls **flat**: the parent slot is
        cleared and leaves work straight against the origin.
        """
        relay = state.relay
        region = relay.region
        if region is None or self.directory.parent_name(region) != state.name:
            return  # not this region's acting parent (already failed over)
        dead_url = f"http://{relay.host}:{relay.port}"
        successor_name = self.directory.elect_parent(region)
        successor = None
        if successor_name is not None:
            successor = self.directory.relays().get(successor_name)
        mode = "promote" if successor is not None else "flat"
        self.counters.inc("failovers")
        if self.tracer is not None:
            self.tracer.event(
                "region.failover",
                region=region,
                dead=state.name,
                dead_host=relay.host,
                mode=mode,
                successor=successor_name if successor is not None else None,
            )
        stats = {"fills_aborted": 0, "feeds_migrated": 0,
                 "feeds_dropped": 0, "refs_settled": 0}

        def merge(part):
            for key in stats:
                stats[key] += part.get(key, 0)

        if successor is not None:
            # promote first so every subsequent _current_parent_url()
            # lookup — including ones inside re-entrant migration
            # round-trips — already answers the new parent
            self.directory.promote_parent(region, successor_name)
            successor.is_parent = True
            # the successor's own feeds now enter the region from the
            # origin; its viewers ride the same local streams throughout
            merge(successor.upstream_crashed(
                dead_url, migrate_to=successor.origin_url
            ))
            new_upstream = self.directory.edge_url(successor_name)
        else:
            self.directory.clear_parent(region)
            new_upstream = None
        for peer in self._region_relays(region, exclude=state.name):
            if successor is not None and peer.name == successor_name:
                continue
            merge(peer.upstream_crashed(
                dead_url,
                migrate_to=new_upstream if new_upstream is not None
                else peer.origin_url,
            ))
        # safety net: anything still charged on the dead parent's links
        # (e.g. an aborted fill whose driver frame has not unwound yet)
        # is settled now; the holder's own later release is a tolerated
        # no-op, so the budget is leak-free the moment suspicion fires
        forced = []
        backbone = relay.backbone
        if backbone is not None:
            forced = backbone.force_release_host(relay.host)
        self.counters.inc("feeds_migrated", stats["feeds_migrated"])
        self.counters.inc("fills_aborted", stats["fills_aborted"])
        self.counters.inc("downstream_settled", stats["refs_settled"])
        self.counters.inc("budget_force_released", len(forced))
        record = {
            "time": self.simulator.now,
            "region": region,
            "dead": state.name,
            "mode": mode,
            "successor": successor_name if successor is not None else None,
            "forced_releases": len(forced),
        }
        record.update(stats)
        self.failovers.append(record)
        if self.tracer is not None:
            self.tracer.event(
                "region.failover_end",
                region=region,
                dead=state.name,
                dead_host=relay.host,
                mode=mode,
                successor=record["successor"],
                migrated=stats["feeds_migrated"],
                aborted=stats["fills_aborted"],
                dropped=stats["feeds_dropped"],
                settled=stats["refs_settled"],
                forced_releases=len(forced),
            )

    def _abort_downstream(self, relay) -> None:
        """Settle what surviving relays hold *at* a crashed non-parent:
        a sibling fill in flight through it aborts and re-plans instead
        of waiting out its timeout; leaf-side replica refs are settled
        (the dead host's session table died with it)."""
        dead_url = f"http://{relay.host}:{relay.port}"
        for name, peer in sorted(self.directory.relays().items()):
            if peer is None or peer is relay or peer.crashed:
                continue
            if not hasattr(peer, "upstream_crashed"):
                continue
            part = peer.upstream_crashed(dead_url)
            self.counters.inc("fills_aborted", part["fills_aborted"])
            self.counters.inc("downstream_settled", part["refs_settled"])

    # ------------------------------------------------------------------
    # orphan settlement (the suspicion/fill interaction fix)

    def _settle_orphans(self, relay) -> None:
        # orphans carry their upstream url: in a relay tree a crashed
        # edge may have held sessions at siblings and its regional
        # parent, not just the origin
        for url, session_id in relay.take_upstream_orphans():
            self._settle(url, session_id)

    def _settle(self, origin_url: str, session_id: int) -> None:
        try:
            response = self._http.post(
                f"{origin_url}/control/close", body={"session_id": session_id}
            )
        except HTTPError:
            response = None
        if response is not None and (response.ok or response.status == 409):
            # 409: the origin already dropped it (e.g. its own crash)
            self.counters.inc("orphans_settled")
        else:
            self._settle_retry.append((origin_url, session_id))

    def _retry_settlements(self) -> None:
        if not self._settle_retry:
            return
        pending, self._settle_retry = self._settle_retry, []
        for origin_url, session_id in pending:
            self._settle(origin_url, session_id)

    def fail_over_now(self, name: str) -> None:
        """Operator-initiated (planned) parent failover.

        The maintenance path: same election, promotion, feed migration
        and budget settlement as the suspicion path, minus the detection
        wait — so a planned parent removal costs viewers only the
        bounded catch-up, never the silence window. The parent is marked
        down first so no new placement or fill lands on it mid-move.
        """
        state = self._watched.get(name)
        if state is None or state.relay is None:
            raise KeyError(f"unknown or object-less edge {name!r}")
        if not state.relay.is_parent:
            raise ValueError(f"{name!r} is not a region parent")
        try:
            self.directory.mark_down(name)
        except PlacementError:
            pass
        self._fail_over_parent(state)

    # ------------------------------------------------------------------
    # introspection

    def is_suspected(self, name: str) -> bool:
        state = self._watched.get(name)
        return state is not None and state.suspected

    def watched(self) -> List[str]:
        return sorted(self._watched)

    def expected_interval(self, name: str) -> float:
        return self._watched[name].expected
