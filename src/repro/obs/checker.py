"""Cross-layer invariant auditing over a finished trace.

:class:`TraceChecker` replays the records of one
:class:`~repro.obs.trace.Tracer` run (or a list of dicts loaded from
JSONL) in ``seq`` order and asserts the lifecycle invariants that the
simulator cannot enforce locally:

* **session lifecycle** — every ``session.open`` is matched by exactly
  one ``session.close``; no double-open, no close of an unknown session;
* **QoS hygiene** — every ``qos.reserve`` is matched by a
  ``qos.release``; nothing released twice or never released;
* **no traffic after close** — no ``packet.train`` or ``repair.sent``
  is recorded for a session after its ``session.close`` (a train record
  may name one ``session`` or a whole pacing group's ``sessions``);
* **floor mutual exclusion** — at most one holder at any point of the
  ``floor.grant`` / ``floor.release`` / ``floor.drop`` event stream, and
  grants only ever go to a free floor;
* **render monotonicity** — per (client, stream), a ``render.run``
  spans ``first_ts ≤ last_ts``, and starts at or after the previous
  run's ``last_ts``, except across an explicit ``playback.seek`` which
  rebases the playhead;
* **drain discipline** — every session named by a ``drain.begin`` gets
  exactly one outcome (``session.handoff`` to an already-open successor
  session, or ``session.handoff_fallback``) before that edge's
  ``drain.end``; no outcome arrives outside an active drain, and every
  drained session is closed by the time the drain ends. Together with
  QoS hygiene this proves a warm hand-off never double-reserves: the
  old and new sessions hold distinct reservations, each released once;
* **no fill loops** — no ``edge.fill_request`` carries a path visiting
  the same relay twice, and hop budgets never go negative: the relay
  tree's fill cascades are provably acyclic and finite;
* **backbone budget honesty** — every ``backbone.reserve`` is matched
  by exactly one ``backbone.release``, and the independently re-summed
  per-link load never exceeds the link's capacity at any point in the
  trace (the reserve records' own running totals are cross-checked, not
  trusted);
* **single upstream live feed per region** — at most one *active*
  region-entering ``live.feed`` per (region, point) at any time — the
  multicast tree property that makes origin live egress O(regions) —
  and every feed is ended by ``live.feed_end`` before the trace ends.
  A region that *fell flat* during parent failover (``region.failover``
  with ``mode="flat"``) is exempted from that point on: origin-only
  operation legitimately runs one origin attach per leaf;
* **failover discipline** — every ``region.failover`` is matched by a
  ``region.failover_end`` for the same region, at which point **no live
  feed survives its parent's crash unmigrated** (no active feed's
  upstream is the dead host) and **no backbone reservation outlives its
  holder** (no active reservation on a link touching the dead host);
* **point lifecycle** — ``point.published`` / ``point.retired`` (traced
  at the origin only) pair up: no double-publish without a retire in
  between, no retire of an unpublished point;
* **fast start is granted once** — every ``faststart.grant`` names an
  open viewer session of a stored point (never a replica fill, never a
  broadcast); a factor above 1 keeps ``factor × bitrate`` within the
  link's bandwidth; and a ``resume`` grant *carries* a window, so it is
  no larger than the one the session — or, across a warm hand-off, its
  predecessor — was last granted: only ``play`` and ``seek`` (the
  client's buffer is empty) open a fresh one.

Violations accumulate (so one audit reports *all* problems) and
:meth:`TraceChecker.assert_ok` raises :class:`TraceViolation` with every
message attached.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple


class TraceViolation(AssertionError):
    """One or more trace invariants failed; ``violations`` lists them."""

    def __init__(self, violations: List[str]) -> None:
        self.violations = list(violations)
        lines = "\n  - ".join(self.violations)
        super().__init__(
            f"{len(self.violations)} trace invariant violation(s):\n  - {lines}"
        )


class TraceChecker:
    """Replays trace records and audits cross-layer invariants."""

    def __init__(self, records: Iterable[Dict[str, Any]]) -> None:
        self.records = sorted(records, key=lambda r: r["seq"])
        self.violations: List[str] = []
        # summary facts exposed for tests / benches
        self.sessions_opened = 0
        self.sessions_closed = 0
        self.reservations_made = 0
        self.reservations_released = 0
        self.trains_seen = 0
        self.renders_seen = 0
        self.handoffs_seen = 0
        self.fallbacks_seen = 0
        self.fill_requests_seen = 0
        self.backbone_reservations = 0
        self.backbone_releases = 0
        self.live_feeds_seen = 0
        self.failovers_seen = 0
        self.feeds_migrated = 0
        self.points_published = 0
        self.points_retired = 0
        self.grants_seen = 0
        self._checked = False

    # ------------------------------------------------------------------

    def check(self) -> List[str]:
        """Run the audit once; returns (and stores) violation messages."""
        if self._checked:
            return self.violations
        self._checked = True

        open_sessions: Dict[str, float] = {}
        closed_sessions: Dict[str, float] = {}
        live_reservations: Dict[Any, Tuple[float, str]] = {}
        floor_holder: Optional[str] = None
        # (client, stream) -> last rendered media timestamp (ms)
        render_frontier: Dict[Tuple[str, Any], int] = {}
        # edge -> {drained session -> outcome or None}; populated by
        # drain.begin, settled by session.handoff / session.handoff_fallback,
        # audited and popped by drain.end
        active_drains: Dict[str, Dict[Any, Optional[str]]] = {}
        # backbone rid -> (t, link, bandwidth); load re-summed per link
        live_backbone: Dict[Any, Tuple[float, str, float]] = {}
        backbone_load: Dict[str, float] = {}
        # live feed id -> (t, region, point, enters_region, upstream)
        active_feeds: Dict[Any, Tuple[float, Any, Any, bool, Any]] = {}
        # (region, point) -> feed id currently entering that region
        region_entries: Dict[Tuple[Any, Any], Any] = {}
        # region -> (t, dead host) for a failover still in progress
        active_failovers: Dict[Any, Tuple[float, Any]] = {}
        # regions that fell flat (origin-only): exempt from the
        # one-entering-feed invariant from that point on
        flat_regions: set = set()
        # authoritative (origin) point lifecycle
        live_points: set = set()
        # sessions that may never be granted fast start (replica, broadcast)
        ungrantable: set = set()
        # session -> window (ms) of its latest fast-start grant
        granted_window: Dict[Any, float] = {}
        # adopted session -> (t, window) of a carried grant whose hand-off
        # record (emitted by the predecessor after the adopt) is still due
        carried_in: Dict[Any, Tuple[float, float]] = {}

        for record in self.records:
            name = record["name"]
            attrs = record.get("attrs") or {}
            t = record.get("t", 0.0)

            if name == "session.open":
                sid = attrs.get("session")
                self.sessions_opened += 1
                if sid in open_sessions:
                    self._fail(f"session {sid!r} opened twice (t={t:.3f})")
                open_sessions[sid] = t
                closed_sessions.pop(sid, None)
                if attrs.get("broadcast") or attrs.get("replica"):
                    ungrantable.add(sid)

            elif name == "faststart.grant":
                sid = attrs.get("session")
                factor = float(attrs.get("factor", 1.0))
                window = float(attrs.get("window_ms", 0.0))
                self.grants_seen += 1
                if sid not in open_sessions:
                    self._fail(
                        f"fast start granted to session {sid!r} which is "
                        f"not open (t={t:.3f})"
                    )
                elif sid in ungrantable:
                    self._fail(
                        f"fast start granted to replica/broadcast session "
                        f"{sid!r} (t={t:.3f})"
                    )
                rate = factor * float(attrs.get("bitrate", 0.0))
                link_bps = float(attrs.get("link_bps", 0.0))
                if factor < 1.0 or (factor > 1.0 and rate > link_bps + 1e-6):
                    self._fail(
                        f"fast start grant of {factor:g}x ({rate:g} b/s) to "
                        f"session {sid!r} exceeds its {link_bps:g} b/s link "
                        f"(t={t:.3f})"
                    )
                if attrs.get("reason") == "resume":
                    last = granted_window.get(sid)
                    if last is None:
                        carried_in[sid] = (t, window)
                    elif window > last + 1e-6:
                        self._fail(
                            f"session {sid!r} resumed with a {window:g} ms "
                            f"fast-start window but only {last:g} ms was "
                            f"left to carry (t={t:.3f})"
                        )
                granted_window[sid] = window

            elif name == "session.close":
                sid = attrs.get("session")
                self.sessions_closed += 1
                if sid not in open_sessions:
                    self._fail(
                        f"close of unknown/already-closed session {sid!r} "
                        f"(t={t:.3f})"
                    )
                else:
                    open_sessions.pop(sid)
                    closed_sessions[sid] = t

            elif name in ("packet.train", "repair.sent"):
                # shared-pacing fan-out records one train for the whole
                # group (attrs["sessions"]); solo paths record per session
                sids = attrs.get("sessions")
                if sids is None:
                    sids = (attrs.get("session"),)
                self.trains_seen += 1
                for sid in sids:
                    if sid in closed_sessions:
                        self._fail(
                            f"{name} on session {sid!r} at t={t:.3f} after "
                            f"its close at t={closed_sessions[sid]:.3f}"
                        )
                    elif sid not in open_sessions:
                        self._fail(
                            f"{name} on never-opened session {sid!r} "
                            f"(t={t:.3f})"
                        )

            elif name == "qos.reserve":
                rid = attrs.get("rid")
                self.reservations_made += 1
                if rid in live_reservations:
                    self._fail(f"reservation {rid!r} reserved twice (t={t:.3f})")
                live_reservations[rid] = (t, attrs.get("owner", ""))

            elif name == "qos.release":
                rid = attrs.get("rid")
                self.reservations_released += 1
                if rid not in live_reservations:
                    self._fail(
                        f"release of unknown/already-released reservation "
                        f"{rid!r} (t={t:.3f})"
                    )
                else:
                    live_reservations.pop(rid)

            elif name == "floor.grant":
                user = attrs.get("user")
                if floor_holder is not None:
                    self._fail(
                        f"floor granted to {user!r} while {floor_holder!r} "
                        f"still holds it (t={t:.3f})"
                    )
                floor_holder = user

            elif name in ("floor.release", "floor.drop"):
                user = attrs.get("user")
                if floor_holder != user:
                    self._fail(
                        f"{name} by {user!r} but holder is {floor_holder!r} "
                        f"(t={t:.3f})"
                    )
                floor_holder = None

            elif name == "render.run":
                client = attrs.get("client", "")
                stream = attrs.get("stream")
                first, last = attrs.get("first_ts", 0), attrs.get("last_ts", 0)
                self.renders_seen += attrs.get("n", 0)
                before = render_frontier.get((client, stream), first)
                if not before <= first <= last:
                    self._fail(
                        f"render timestamp regressed on client {client!r} "
                        f"stream {stream!r}: a run from {first} to {last} ms "
                        f"after {before} ms (t={t:.3f}) with no seek"
                    )
                render_frontier[(client, stream)] = last

            elif name == "drain.begin":
                edge = attrs.get("edge")
                if edge in active_drains:
                    self._fail(
                        f"drain.begin on edge {edge!r} while an earlier "
                        f"drain is still active (t={t:.3f})"
                    )
                else:
                    active_drains[edge] = {
                        sid: None for sid in attrs.get("sessions", ())
                    }

            elif name in ("session.handoff", "session.handoff_fallback"):
                edge = attrs.get("edge")
                sid = attrs.get("session")
                outcome = "handoff" if name == "session.handoff" else "fallback"
                if outcome == "handoff":
                    self.handoffs_seen += 1
                else:
                    self.fallbacks_seen += 1
                pending = active_drains.get(edge)
                if pending is None or sid not in pending:
                    self._fail(
                        f"{name} for session {sid!r} outside an active "
                        f"drain of edge {edge!r} (t={t:.3f})"
                    )
                elif pending[sid] is not None:
                    self._fail(
                        f"session {sid!r} got a second drain outcome "
                        f"({pending[sid]} then {outcome}) on edge {edge!r} "
                        f"(t={t:.3f})"
                    )
                else:
                    pending[sid] = outcome
                if outcome == "handoff":
                    to = attrs.get("to")
                    if to not in open_sessions:
                        self._fail(
                            f"handoff of session {sid!r} targets session "
                            f"{to!r} which is not open (t={t:.3f})"
                        )
                    carried = carried_in.pop(to, None)
                    had = granted_window.get(sid, 0.0)
                    if carried is not None and carried[1] > had + 1e-6:
                        self._fail(
                            f"session {to!r} adopted a {carried[1]:g} ms "
                            f"fast-start window from {sid!r}, which had "
                            f"{had:g} ms (t={t:.3f})"
                        )

            elif name == "drain.end":
                edge = attrs.get("edge")
                pending = active_drains.pop(edge, None)
                if pending is None:
                    self._fail(
                        f"drain.end on edge {edge!r} without a matching "
                        f"drain.begin (t={t:.3f})"
                    )
                else:
                    for sid, outcome in sorted(pending.items(), key=str):
                        if outcome is None:
                            self._fail(
                                f"drain of edge {edge!r} ended with no "
                                f"outcome for session {sid!r} (t={t:.3f})"
                            )
                        if sid not in closed_sessions:
                            self._fail(
                                f"drain of edge {edge!r} ended but session "
                                f"{sid!r} is not closed (t={t:.3f})"
                            )

            elif name == "edge.fill_request":
                self.fill_requests_seen += 1
                path = attrs.get("path") or []
                if len(set(path)) != len(path):
                    self._fail(
                        f"fill of {attrs.get('point')!r} by "
                        f"{attrs.get('edge')!r} carries a looping path "
                        f"{'>'.join(str(p) for p in path)} (t={t:.3f})"
                    )
                if attrs.get("hops", 0) < 0:
                    self._fail(
                        f"fill of {attrs.get('point')!r} by "
                        f"{attrs.get('edge')!r} has negative hop budget "
                        f"{attrs.get('hops')} (t={t:.3f})"
                    )

            elif name == "backbone.reserve":
                rid = attrs.get("rid")
                link = attrs.get("link", "")
                bandwidth = float(attrs.get("bandwidth", 0.0))
                capacity = float(attrs.get("capacity", 0.0))
                self.backbone_reservations += 1
                if rid in live_backbone:
                    self._fail(
                        f"backbone reservation {rid!r} reserved twice "
                        f"(t={t:.3f})"
                    )
                else:
                    live_backbone[rid] = (t, link, bandwidth)
                load = backbone_load.get(link, 0.0) + bandwidth
                backbone_load[link] = load
                if load > capacity + 1e-9:
                    self._fail(
                        f"backbone link {link} over-reserved: {load:g} of "
                        f"{capacity:g} b/s after {rid!r} (t={t:.3f})"
                    )

            elif name == "backbone.release":
                rid = attrs.get("rid")
                self.backbone_releases += 1
                if rid not in live_backbone:
                    self._fail(
                        f"release of unknown/already-released backbone "
                        f"reservation {rid!r} (t={t:.3f})"
                    )
                else:
                    _, link, bandwidth = live_backbone.pop(rid)
                    backbone_load[link] = backbone_load.get(link, 0.0) - bandwidth

            elif name == "live.feed":
                feed = attrs.get("feed")
                region = attrs.get("region")
                point = attrs.get("point")
                enters = bool(attrs.get("enters_region"))
                self.live_feeds_seen += 1
                if attrs.get("migrated"):
                    self.feeds_migrated += 1
                if feed in active_feeds:
                    self._fail(
                        f"live feed {feed!r} started twice (t={t:.3f})"
                    )
                active_feeds[feed] = (
                    t, region, point, enters, attrs.get("upstream")
                )
                # the invariant is scoped to real regions: a flat tier
                # (region None) legitimately runs N origin attaches, and
                # a region fallen flat by failover joins that regime
                if enters and region is not None and region not in flat_regions:
                    key = (region, point)
                    if key in region_entries:
                        self._fail(
                            f"second upstream live feed {feed!r} enters "
                            f"region {region!r} for point {point!r} while "
                            f"{region_entries[key]!r} is active (t={t:.3f})"
                        )
                    else:
                        region_entries[key] = feed

            elif name == "live.feed_end":
                feed = attrs.get("feed")
                entry = active_feeds.pop(feed, None)
                if entry is None:
                    self._fail(
                        f"live.feed_end for unknown/already-ended feed "
                        f"{feed!r} (t={t:.3f})"
                    )
                else:
                    _, region, point, enters, _upstream = entry
                    if enters and region is not None:
                        if region_entries.get((region, point)) == feed:
                            del region_entries[(region, point)]

            elif name == "region.failover":
                region = attrs.get("region")
                self.failovers_seen += 1
                if region in active_failovers:
                    self._fail(
                        f"region.failover for region {region!r} while an "
                        f"earlier failover is still active (t={t:.3f})"
                    )
                else:
                    active_failovers[region] = (t, attrs.get("dead_host"))
                if attrs.get("mode") == "flat":
                    flat_regions.add(region)
                # either way the old regime's entry slot is gone: the
                # dead parent ended its feed at crash time, and a merely
                # *partitioned* parent is demoted with its entry revoked
                # (the successor re-enters the region under a new claim)
                region_entries = {
                    key: feed for key, feed in region_entries.items()
                    if key[0] != region
                }

            elif name == "region.failover_end":
                region = attrs.get("region")
                dead_host = attrs.get("dead_host")
                if active_failovers.pop(region, None) is None:
                    self._fail(
                        f"region.failover_end for region {region!r} without "
                        f"a matching region.failover (t={t:.3f})"
                    )
                    continue
                # no feed survives its parent's crash unmigrated: every
                # active feed fed by the dead host must have ended (and
                # usually restarted against the new upstream) by now
                for feed, (ft, fregion, fpoint, _e, fupstream) in sorted(
                    active_feeds.items(), key=str
                ):
                    if fupstream == dead_host:
                        self._fail(
                            f"live feed {feed!r} (region {fregion!r}, point "
                            f"{fpoint!r}, started t={ft:.3f}) survived the "
                            f"crash of its upstream {dead_host!r} unmigrated "
                            f"(t={t:.3f})"
                        )
                # no backbone reservation outlives its holder: links
                # touching the dead host must be fully settled
                for rid, (rt, link, bandwidth) in sorted(
                    live_backbone.items(), key=str
                ):
                    if dead_host in str(link).split("<->"):
                        self._fail(
                            f"backbone reservation {rid!r} on {link} "
                            f"({bandwidth:g} b/s, made t={rt:.3f}) outlived "
                            f"crashed host {dead_host!r} (t={t:.3f})"
                        )

            elif name == "playback.seek":
                # a seek rebases the playhead for every stream of that client
                client = attrs.get("client", "")
                for key in list(render_frontier):
                    if key[0] == client:
                        del render_frontier[key]

            elif name == "point.published":
                point = attrs.get("point")
                self.points_published += 1
                if point in live_points:
                    self._fail(
                        f"point {point!r} published twice with no retire "
                        f"in between (t={t:.3f})"
                    )
                live_points.add(point)

            elif name == "point.retired":
                point = attrs.get("point")
                self.points_retired += 1
                if point not in live_points:
                    self._fail(
                        f"retire of unknown/already-retired point "
                        f"{point!r} (t={t:.3f})"
                    )
                live_points.discard(point)

        for sid, (granted_at, window) in sorted(carried_in.items(), key=str):
            self._fail(
                f"session {sid!r} resumed a {window:g} ms fast-start window "
                f"at t={granted_at:.3f} that no play, seek or hand-off left it"
            )
        for edge in sorted(active_drains, key=str):
            self._fail(f"drain of edge {edge!r} never ended")
        for sid, opened_at in sorted(open_sessions.items(), key=str):
            self._fail(
                f"session {sid!r} opened at t={opened_at:.3f} never closed"
            )
        for rid, (made_at, owner) in sorted(
            live_reservations.items(), key=str
        ):
            self._fail(
                f"QoS reservation {rid!r} (owner {owner!r}) made at "
                f"t={made_at:.3f} never released"
            )
        for rid, (made_at, link, bandwidth) in sorted(
            live_backbone.items(), key=str
        ):
            self._fail(
                f"backbone reservation {rid!r} on {link} ({bandwidth:g} "
                f"b/s) made at t={made_at:.3f} never released"
            )
        for feed, (started_at, region, point, _e, _u) in sorted(
            active_feeds.items(), key=str
        ):
            self._fail(
                f"live feed {feed!r} (region {region!r}, point {point!r}) "
                f"started at t={started_at:.3f} never ended"
            )
        for region, (started_at, dead_host) in sorted(
            active_failovers.items(), key=str
        ):
            self._fail(
                f"failover of region {region!r} (dead host {dead_host!r}) "
                f"started at t={started_at:.3f} never ended"
            )
        return self.violations

    # ------------------------------------------------------------------

    def assert_ok(self) -> "TraceChecker":
        """Audit and raise :class:`TraceViolation` on any failure."""
        if self.check():
            raise TraceViolation(self.violations)
        return self

    def summary(self) -> Dict[str, int]:
        self.check()
        return {
            "records": len(self.records),
            "sessions_opened": self.sessions_opened,
            "sessions_closed": self.sessions_closed,
            "reservations_made": self.reservations_made,
            "reservations_released": self.reservations_released,
            "trains_seen": self.trains_seen,
            "renders_seen": self.renders_seen,
            "handoffs_seen": self.handoffs_seen,
            "fallbacks_seen": self.fallbacks_seen,
            "fill_requests_seen": self.fill_requests_seen,
            "backbone_reservations": self.backbone_reservations,
            "backbone_releases": self.backbone_releases,
            "live_feeds_seen": self.live_feeds_seen,
            "failovers_seen": self.failovers_seen,
            "feeds_migrated": self.feeds_migrated,
            "points_published": self.points_published,
            "points_retired": self.points_retired,
            "grants_seen": self.grants_seen,
            "violations": len(self.violations),
        }

    def _fail(self, message: str) -> None:
        self.violations.append(message)
