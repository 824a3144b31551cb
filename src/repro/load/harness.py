"""Drive an :class:`~repro.load.workload.ArrivalScript` against the tier.

Two interchangeable execution modes consume the *same* deterministic
script:

* ``mode="real"`` — one :class:`~repro.streaming.client.MediaPlayer` per
  scripted viewer. Ground truth; cost grows linearly with the audience.
* ``mode="cohort"`` — arrivals are collapsed by
  :func:`~repro.load.workload.plan_cohorts` into per-edge
  :class:`~repro.load.cohort.CohortViewer` delegates; members that
  individuate mid-run are split out (seek) or departed (churn) at their
  scripted instants. Cost grows with the number of *distinct behaviours*,
  which is what lets one core model 10^5–10^6 viewers.

The driver walks scripted actions in time order, using
:meth:`Simulator.fast_forward` between them so quiet windows — where the
only pending work is skippable cohort heartbeats — are leapt instead of
ticked through. Render loops ride one :class:`SharedTicker` (one
simulator event per 50 ms tick regardless of player count) and are *not*
skippable: active playback is always simulated faithfully.
"""

from __future__ import annotations

import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Tuple, Union

from ..asf import ASFEncoder, EncoderConfig, slide_commands
from ..media import AudioObject, ImageObject, VideoObject, get_profile
from ..net.engine import SharedTicker
from ..obs.qoe import QoEAggregator, SessionQoE
from ..streaming import MediaServer, PublishError, build_edge_tier
from ..streaming.client import MediaPlayer, PlayerError, PlayerState
from ..web.http import HTTPError
from ..web.http import VirtualNetwork
from .cohort import CohortViewer
from .workload import (
    ArrivalScript,
    ViewerArrival,
    WorkloadSpec,
    generate,
    plan_cohorts,
)

#: grace period past the script horizon before the run is drained — covers
#: preroll buffering and the close handshakes that trail the last render
TAIL_SECONDS = 15.0
#: delivery quantum of the origin and every relay pacer
PACING_QUANTUM = 0.5
#: bounded live history served to late joiners (tree mode); kept small —
#: a flash crowd of real players each receiving a long catch-up train
#: costs wall clock, not insight
LIVE_HISTORY_SECONDS = 5.0
#: livelock guard handed to every simulator drive call
MAX_EVENTS = 50_000_000


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes (``ru_maxrss`` is
    in bytes on macOS, in KiB on Linux and the other Unixes)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def encode_lecture(
    name: str,
    duration: float,
    *,
    profile: str = "dsl-256k",
):
    """Encode one synthetic lecture ASF (video + audio + two slide
    flips)."""
    slides = 2
    per_slide = duration / slides
    return ASFEncoder(EncoderConfig(profile=get_profile(profile))).encode_file(
        file_id=name,
        video=VideoObject("talk", duration, width=320, height=240, fps=10),
        audio=AudioObject("voice", duration),
        images=[
            (ImageObject(f"s{i}", per_slide, width=320, height=240),
             i * per_slide)
            for i in range(slides)
        ],
        commands=slide_commands(
            [(f"s{i}", i * per_slide) for i in range(slides)]
        ),
    )


@dataclass
class LoadConfig:
    """Serving-tier and client knobs for a harness run."""

    edges: int = 4
    #: > 0 builds a multi-level relay tree (:func:`build_relay_tree`)
    #: with this many regional parents, edges assigned round-robin;
    #: 0 keeps the flat one-level tier
    regions: int = 0
    #: publish lectures the catalog marks ``live`` as *real*
    #: :class:`~repro.lod.LiveCaptureSession` broadcasts (multicast
    #: passthrough) instead of pre-encoded VOD files
    live_capture: bool = False
    #: optional :class:`~repro.streaming.BackboneBudget` charged by every
    #: relay fill and live feed, on the flat tier and the tree alike
    backbone_budget: Any = None
    profile: str = "dsl-256k"
    #: > 0 arms a skippable presence beacon per cohort at this interval
    heartbeat_interval: float = 0.0
    client_bandwidth: float = 2_000_000.0
    client_delay: float = 0.02
    #: cache warming before viewers arrive: ``True`` pre-fills *every*
    #: edge with *every* stored lecture during setup; ``False`` is a
    #: cold start
    prefetch: bool = True
    #: prefix of the generated client host names (one value: a run owns
    #: its whole network)
    client_prefix: ClassVar[str] = ""
    tracer: Any = None
    #: :class:`~repro.streaming.recovery.RecoveryConfig` for every player
    #: (None: stalls are terminal, the pre-chaos behaviour). With a config
    #: set, each client host is linked to *every* relay so a reconnect can
    #: re-route to a surviving edge.
    recovery: Any = None
    #: :class:`~repro.net.faults.FaultPlan` applied to the built tier
    #: (origin registered as "origin", relays under their edge names,
    #: region parents as ``parent-<region>``) — the one crash script
    fault_plan: Any = None
    #: arm a :class:`~repro.control.HeartbeatMonitor` over the tier so
    #: crashes are *detected* (directory marked down) rather than known
    heartbeat_monitor: bool = False
    monitor_interval: float = 0.5
    monitor_miss_threshold: int = 3
    #: shut surviving relays down after the run (settles replica sessions
    #: so post-run audits can demand an empty origin session table)
    teardown: bool = False


@dataclass
class LoadResult:
    """What a harness run measured."""

    mode: str
    viewers: int          #: modeled viewers (Σ multiplicity)
    sessions: int         #: real player objects driven
    cohorts: int
    splits: int
    departures: int
    events_processed: int
    events_leapt: int
    cancelled_drained: int
    beacons: int
    horizon: float        #: simulated seconds covered
    wall_s: float
    peak_rss: int         #: bytes
    qoe: Dict[str, Any] = field(default_factory=dict)
    #: supervision-plane facts when a monitor/fault plan ran: monitor
    #: counters, suspicion timeline, applied fault log
    control: Dict[str, Any] = field(default_factory=dict)

    @property
    def events_per_sec(self) -> float:
        return self.events_processed / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def viewers_per_core(self) -> float:
        """Modeled viewers carried by this (single-core) run."""
        return float(self.viewers)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "viewers": self.viewers,
            "sessions": self.sessions,
            "cohorts": self.cohorts,
            "splits": self.splits,
            "departures": self.departures,
            "events_processed": self.events_processed,
            "events_leapt": self.events_leapt,
            "cancelled_drained": self.cancelled_drained,
            "beacons": self.beacons,
            "horizon_s": self.horizon,
            "wall_s": self.wall_s,
            "events_per_sec": self.events_per_sec,
            "viewers_per_core": self.viewers_per_core,
            "peak_rss_bytes": self.peak_rss,
            "qoe": self.qoe,
            "control": self.control,
        }


def run_workload(
    script: Union[ArrivalScript, WorkloadSpec],
    *,
    mode: str = "cohort",
    config: Optional[LoadConfig] = None,
) -> LoadResult:
    """Build the serving tier, execute the script, measure everything."""
    if isinstance(script, WorkloadSpec):
        script = generate(script)
    if mode not in ("real", "cohort"):
        raise ValueError(f"unknown mode {mode!r}")
    cfg = config or LoadConfig()
    spec = script.spec

    net = VirtualNetwork()
    sim = net.simulator
    if cfg.tracer is not None:
        cfg.tracer.bind_clock(sim)
    origin = MediaServer(
        net, "origin", port=8080,
        pacing_quantum=PACING_QUANTUM,
        tracer=cfg.tracer, trace_label="origin",
    )
    captures: Dict[str, Any] = {}
    for lecture in spec.lectures:
        if cfg.live_capture and lecture.live:
            from ..lod import LiveCaptureSession

            capture = LiveCaptureSession(
                sim, get_profile(cfg.profile), chunk=0.5
            )
            captures[lecture.name] = capture
            origin.publish(lecture.name, capture.stream)
        else:
            origin.publish(
                lecture.name,
                encode_lecture(
                    lecture.name, lecture.duration, profile=cfg.profile
                ),
            )
    parents: Dict[str, Any] = {}
    if cfg.regions > 0:
        from ..streaming import build_relay_tree

        region_map: Dict[str, List[str]] = {
            f"r{i}": [] for i in range(cfg.regions)
        }
        for i in range(cfg.edges):
            region_map[f"r{i % cfg.regions}"].append(f"edge{i}")
        directory, parents, relays = build_relay_tree(
            net, origin, region_map,
            pacing_quantum=PACING_QUANTUM,
            join_quantum=spec.join_quantum,
            backbone_budget=cfg.backbone_budget,
            live_history_seconds=LIVE_HISTORY_SECONDS,
            tracer=cfg.tracer,
        )
    else:
        directory, relays = build_edge_tier(
            net, origin, [f"edge{i}" for i in range(cfg.edges)],
            pacing_quantum=PACING_QUANTUM,
            join_quantum=spec.join_quantum,
            backbone_budget=cfg.backbone_budget,
            tracer=cfg.tracer,
        )
    relay_by_name = {r.name: r for r in relays}
    if cfg.prefetch:
        for relay in relays:
            for lecture in spec.lectures:
                if lecture.name in captures:
                    # a broadcast prefetch would pin the upstream feed
                    # before any viewer exists; live points attach on
                    # first join instead
                    continue
                relay.prefetch(lecture.name)

    monitor = None
    if cfg.heartbeat_monitor:
        from ..control import HeartbeatMonitor

        monitor = HeartbeatMonitor(
            net, directory,
            interval=cfg.monitor_interval,
            miss_threshold=cfg.monitor_miss_threshold,
            tracer=cfg.tracer,
        )
        monitor.watch_directory()
        monitor.start()

    injector = None
    fault_offset = 0.0
    if cfg.fault_plan is not None:
        from ..net.faults import FaultInjector

        injector = FaultInjector(net, {"origin": origin}, tracer=cfg.tracer)
        injector.register_directory(directory)
        # setup (prefetch fills) consumed simulated time; plan times mean
        # "seconds after the tier is ready", never "before setup ended"
        fault_offset = sim.now
        injector.apply(cfg.fault_plan, offset=fault_offset)

    def place(arrival: ViewerArrival) -> str:
        return directory.place(f"{arrival.viewer}|{arrival.lecture}")

    # every render loop in the run shares one ticker: one simulator event
    # per 50 ms instant no matter how many players are live. A ticker is
    # never skippable — active playback is never leapt over.
    render_ticker = SharedTicker(sim, MediaPlayer.RENDER_TICK)

    # (time, seq, fn) — seq keeps the sort stable and deterministic
    actions: List[Tuple[float, int, Any]] = []
    seq = iter(range(1 << 30))

    cohorts: List[CohortViewer] = []
    players: List[MediaPlayer] = []
    #: (viewer object, lecture) for everyone watching a live capture —
    #: a broadcast has no end-of-stream on the wire, so the harness
    #: stops these explicitly once the capture finishes
    live_watchers: List[Tuple[Any, str]] = []

    def _member_seek(cohort: CohortViewer, member: ViewerArrival,
                     relay_host: str, position: float) -> None:
        """A cohort member seeks: split it out as a real player — unless
        it is the *only* member left, in which case the delegate simply
        seeks itself."""
        delegate = cohort.delegate
        if delegate.multiplicity >= 2:
            if delegate.state not in (PlayerState.BUFFERING,
                                      PlayerState.PLAYING,
                                      PlayerState.PAUSED):
                return  # playback already over; nothing to diverge from
            net.connect(relay_host, member.viewer,
                        bandwidth=cfg.client_bandwidth, delay=cfg.client_delay)
            cohort.split(member.viewer, user=member.viewer, seek_to=position)
        elif delegate.state in (PlayerState.PLAYING, PlayerState.PAUSED):
            delegate.seek(position)

    # with recovery armed, a player may re-route to any surviving relay,
    # so its host needs a provisioned link to each of them up front
    def _connect_client(host: str, placed_relay) -> None:
        targets = relays if cfg.recovery is not None else [placed_relay]
        for r in targets:
            net.connect(r.host, host,
                        bandwidth=cfg.client_bandwidth, delay=cfg.client_delay)

    client_directory = directory if cfg.recovery is not None else None

    # a flash-crowd arrival can land on an edge that died moments earlier
    # — before the monitor's suspicion re-routes placement. With recovery
    # armed those joins are *deferred*: re-resolved through the directory
    # and retried until detection catches up (bounded), instead of
    # aborting the whole run on one unlucky viewer.
    joins_deferred = [0]
    join_retry_delay = max(cfg.monitor_interval, 0.5)

    def _deferred_join(host: str, lecture: str, start_fn, attempt: int = 0):
        try:
            start_fn(directory.url_for(host, lecture) if attempt else None)
        except (PlayerError, PublishError, HTTPError):
            if client_directory is None or attempt >= 8:
                raise
            joins_deferred[0] += 1
            sim.schedule(
                join_retry_delay,
                lambda: _deferred_join(host, lecture, start_fn, attempt + 1),
            )

    if mode == "cohort":
        plans = plan_cohorts(script, place, join_quantum=spec.join_quantum)
        for idx, plan in enumerate(plans):
            relay = relay_by_name[plan.edge]
            host = f"{cfg.client_prefix}cohort{idx}"
            _connect_client(host, relay)
            cohort = CohortViewer(
                net, host,
                f"{directory.edge_url(plan.edge)}/lod/{plan.lecture}",
                size=plan.multiplicity,
                tracer=cfg.tracer,
                render_ticker=render_ticker,
                recovery=cfg.recovery,
                directory=client_directory,
                heartbeat_interval=cfg.heartbeat_interval,
            )
            cohorts.append(cohort)
            if plan.lecture in captures:
                live_watchers.append((cohort, plan.lecture))

            def _cohort_start(url, c=cohort, p=plan):
                if url is not None:
                    c.url = url
                c.start(start=p.start_position)

            actions.append((
                plan.join_time, next(seq),
                lambda h=host, p=plan, fn=_cohort_start:
                    _deferred_join(h, p.lecture, fn),
            ))
            for member in plan.individuating_members():
                if member.seek is not None:
                    seek_at, seek_to = member.seek
                    actions.append((
                        seek_at, next(seq),
                        lambda c=cohort, m=member, r=relay.host, p=seek_to:
                            _member_seek(c, m, r, p),
                    ))
                elif member.leave_time is not None:
                    actions.append((
                        member.leave_time, next(seq),
                        lambda c=cohort, m=member: c.depart(user=m.viewer),
                    ))
    else:
        def _join(player: MediaPlayer, relay, arrival: ViewerArrival,
                  url: Optional[str] = None) -> None:
            if url is None:
                url = f"{directory.edge_url(relay.name)}/lod/{arrival.lecture}"
            player.connect(url)
            player.play(start=arrival.start_position)

        def _leave(player: MediaPlayer) -> None:
            if player.state not in (PlayerState.IDLE, PlayerState.FINISHED):
                player.stop()

        def _seek(player: MediaPlayer, position: float) -> None:
            if player.state in (PlayerState.PLAYING, PlayerState.PAUSED):
                player.seek(position)

        for arrival in script.arrivals:
            relay = relay_by_name[place(arrival)]
            viewer_host = f"{cfg.client_prefix}{arrival.viewer}"
            _connect_client(viewer_host, relay)
            player = MediaPlayer(
                net, viewer_host, user=arrival.viewer,
                tracer=cfg.tracer, render_ticker=render_ticker,
                recovery=cfg.recovery, directory=client_directory,
            )
            players.append(player)
            if arrival.lecture in captures:
                live_watchers.append((player, arrival.lecture))
            actions.append((
                arrival.join_time, next(seq),
                lambda p=player, r=relay, a=arrival, h=viewer_host:
                    _deferred_join(
                        h, a.lecture,
                        lambda url, p=p, r=r, a=a: _join(p, r, a, url=url),
                    ),
            ))
            if arrival.seek is not None:
                seek_at, seek_to = arrival.seek
                actions.append((
                    seek_at, next(seq),
                    lambda p=player, pos=seek_to: _seek(p, pos),
                ))
            if arrival.leave_time is not None:
                actions.append((
                    arrival.leave_time, next(seq),
                    lambda p=player: _leave(p),
                ))

    # ------------------------------------------------------------------
    # drive: fast-forward between scripted instants, act inline. Between
    # actions only simulator-scheduled work (packets, renders, beacons)
    # is pending, so beacon-only windows are leapt, never ticked.
    # ------------------------------------------------------------------
    actions.sort(key=lambda a: (a[0], a[1]))
    # the drive's own counts: setup (prefetch fills) ran on this simulator
    events_before = sim.events_processed
    leapt_before = sim.events_leapt
    drained_before = sim.cancelled_drained
    t0 = time.perf_counter()
    for when, _, fn in actions:
        if when > sim.now:
            sim.fast_forward(when, max_events=MAX_EVENTS)
        fn()
    horizon = max(script.horizon, sim.now) + TAIL_SECONDS
    sim.fast_forward(horizon, max_events=MAX_EVENTS)
    for cohort in cohorts:
        cohort.stop_heartbeat()
    if monitor is not None:
        # beacons and sweeps are non-skippable by design; a live monitor
        # would keep the queue populated forever
        monitor.stop()
    for capture in captures.values():
        # a live capture's chunk task would otherwise feed the queue
        # forever; finishing closes the broadcast stream end to end
        capture.finish()
    for watcher, _ in live_watchers:
        watcher_players = (
            [watcher.delegate, *watcher.splits.values()]
            if isinstance(watcher, CohortViewer) else [watcher]
        )
        for p in watcher_players:
            if p.state not in (PlayerState.IDLE, PlayerState.FINISHED):
                p.stop()
    sim.run(max_events=MAX_EVENTS)
    if cfg.teardown:
        # children before parents: a leaf's upstream close must reach a
        # parent that is still serving. Leaves *promoted* to acting
        # parent during a failover go in the parent wave (the sort is
        # stable) — their former siblings now hold upstream sessions at them.
        waves = sorted(relays, key=lambda r: r.is_parent) + list(parents.values())
        for relay in waves:
            if not relay.crashed and not relay.draining:
                relay.shutdown()
        sim.run(max_events=MAX_EVENTS)
    wall = time.perf_counter() - t0

    aggregator = QoEAggregator()
    for cohort in cohorts:
        for qoe in cohort.qoes():
            aggregator.add(qoe)
    for player in players:
        aggregator.add(
            SessionQoE.from_report(player.report(), client=player.user)
        )

    control_facts: Dict[str, Any] = {
        "origin": {
            "sessions_created": origin.sessions.total_created,
            "bytes_served": origin.bytes_served,
        }
    }
    if monitor is not None:
        control_facts["monitor"] = monitor.counters.as_dict()
        control_facts["suspicions"] = list(monitor.suspicions)
        control_facts["failovers"] = list(monitor.failovers)
    if joins_deferred[0]:
        control_facts["joins_deferred"] = joins_deferred[0]
    if injector is not None:
        control_facts["fault_offset"] = fault_offset
        control_facts["faults_applied"] = [
            {"time": at, "kind": kind, "target": "/".join(target)}
            for at, kind, target in injector.log
        ]

    splits = sum(len(c.splits) for c in cohorts)
    if mode == "cohort":
        viewers = sum(c.size for c in cohorts)
        sessions = len(cohorts) + splits
    else:
        viewers = len(players)
        sessions = len(players)
    return LoadResult(
        mode=mode,
        viewers=viewers,
        sessions=sessions,
        cohorts=len(cohorts),
        splits=splits,
        departures=sum(len(c.departed) for c in cohorts),
        events_processed=sim.events_processed - events_before,
        events_leapt=sim.events_leapt - leapt_before,
        cancelled_drained=sim.cancelled_drained - drained_before,
        beacons=sum(c.beacons for c in cohorts),
        horizon=sim.now,
        wall_s=wall,
        peak_rss=peak_rss_bytes(),
        qoe=aggregator.summary(),
        control=control_facts,
    )
