"""Chaos against the edge tier: lossy backbones, edge crashes, re-routes.

The edge-tier acceptance scenarios of the distributed-serving PR, in the
same scripted-fault style as test_recovery.py:

* a lossy backbone must not poison the packet-run cache — the fill
  repairs itself with upstream NAK rounds and the fingerprint check
  guarantees what got cached is byte-identical to the origin's run;
* a NAK round waits for a quiet backbone, so a whole-file train still in
  flight is never requested twice, yet a backbone kept busy by other
  traffic delays a round by no more than the fill's own missing bytes,
  and a train altered in transit is turned away by the fingerprint gate;
* :meth:`FaultPlan.edge_crash` plus
  :meth:`FaultInjector.register_directory` give edge relays the same
  scripted crash/restart treatment origin servers already had;
* the headline: a viewer mid-lecture loses its edge to a crash, the
  directory routes the reconnect to a surviving edge (admission control
  skips the corpse), playback resumes from the buffered frontier — and a
  full :class:`TraceChecker` pass over a trace spanning *both* hops and
  *both* edges finds every invariant intact.

``CHAOS_SEED`` (env) reseeds the lossy links; all assertions must hold
for seeds 0, 1, 2.
"""

import dataclasses
import os

import pytest

from repro.asf import ASFEncoder, EncoderConfig, slide_commands
from repro.lod import LiveCaptureSession
from repro.media import AudioObject, ImageObject, VideoObject, get_profile
from repro.metrics.counters import get_counters, reset_counters
from repro.net import FaultInjector, FaultPlan
from repro.net.engine import SharedTicker
from repro.obs import TraceChecker, Tracer
from repro.streaming import (
    MediaPlayer,
    MediaServer,
    PlayerState,
    PublishError,
    RecoveryConfig,
    build_edge_tier,
)
from repro.streaming.edge import EdgeRelay
from repro.web import VirtualNetwork

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))
PROFILE = get_profile("dsl-256k")
DURATION = 20.0
SLIDES = 4


def make_asf():
    per_slide = DURATION / SLIDES
    return ASFEncoder(EncoderConfig(profile=PROFILE)).encode_file(
        file_id="lec",
        video=VideoObject("talk", DURATION, width=320, height=240, fps=10),
        audio=AudioObject("voice", DURATION),
        images=[
            (ImageObject(f"s{i}", per_slide, width=320, height=240),
             i * per_slide)
            for i in range(SLIDES)
        ],
        commands=slide_commands(
            [(f"s{i}", i * per_slide) for i in range(SLIDES)]
        ),
    )


def make_tier(*, edges=2, tracer=None, seed=0, quantum=0.5):
    """Origin + N edges + one student wired to every edge; every server
    paces on ``quantum``."""
    reset_counters("edge_cache")
    net = VirtualNetwork()
    if tracer is not None:
        tracer.bind_clock(net.simulator)
        net.simulator.tracer = tracer
    origin = MediaServer(
        net, "origin", port=8080, pacing_quantum=quantum,
        trace_label="origin", tracer=tracer,
    )
    origin.publish("lecture", make_asf())
    directory, relays = build_edge_tier(
        net, origin, [f"edge{i}" for i in range(edges)],
        pacing_quantum=quantum, seed=seed, tracer=tracer,
    )
    for relay in relays:
        net.connect(relay.host, "student", bandwidth=2_000_000, delay=0.02)
        net.link(relay.host, "student").rng.seed(1000 + CHAOS_SEED)
    return net, origin, directory, relays


def drive(net, player, horizon):
    net.simulator.run_until(horizon)
    if player.state is not PlayerState.FINISHED:
        player.stop()
    return player.report()


class TestLossyBackboneFill:
    def test_fill_repairs_itself_and_never_caches_a_hole(self):
        # at quantum 0 the origin sends the fill as one-packet trains, so
        # i.i.d. loss is certain to eat some of them (one whole-file
        # train would survive most seeds untouched)
        net, origin, directory, (edge0,) = make_tier(edges=1, quantum=0.0)
        backbone = net.link("origin", "edge0")
        backbone.rng.seed(1000 + CHAOS_SEED)
        backbone.set_loss(loss_rate=0.35)

        edge0.prefetch("lecture")
        counters = get_counters("edge_cache")
        # the trains lost packets; upstream NAK rounds, each sent once the
        # backbone had gone quiet, repaired the holes before the fill was
        # allowed to complete
        assert edge0.recovery_stats["upstream_naks"] >= 1
        assert counters["fills"] == 1
        assert counters.get("fill_integrity_failures", 0) == 0
        cached = edge0.cache.lookup(
            origin.points["lecture"].content.fingerprint()
        )
        assert cached is not None
        reference = origin.points["lecture"].content
        assert (
            b"".join(p.pack() for p in cached.packets)
            == b"".join(p.pack() for p in reference.packets)
        )

        # and a viewer served off the repaired replica sees clean playback
        player = MediaPlayer(net, "student", recovery=RecoveryConfig())
        player.connect(directory.url_for("student", "lecture"))
        player.play()
        report = drive(net, player, 60.0)
        assert report.duration_watched == pytest.approx(DURATION, abs=0.3)
        fired = [c.command.parameter for c in report.slide_changes()]
        assert fired == [f"s{i}" for i in range(SLIDES)]


def slow_backbone_tier():
    """One edge behind a 10 Mb/s backbone: the 64x fill of the 0.70 MB
    lecture is one whole-file train that spends 0.56 s on the wire, more
    than two NAK intervals."""
    net, origin, directory, (edge0,) = make_tier(edges=1)
    backbone = net.link("origin", "edge0")
    backbone.set_bandwidth(10_000_000)
    return net, origin, edge0, backbone


class TestQuietWireFill:
    def test_a_train_in_flight_is_not_requested_again(self):
        net, origin, edge0, _ = slow_backbone_tier()
        edge0.prefetch("lecture")
        run = origin.points["lecture"].content
        assert get_counters("edge_cache")["fills"] == 1
        assert edge0.recovery_stats["upstream_naks"] == 0
        assert origin.recovery_stats["repairs_sent"] == 0
        # the origin sent the run once: 483 packets of 1 450 B
        assert origin.bytes_served == run.data_size() == 700_350
        # and the fill landed with the train: it leaves at 0.026 s, spends
        # 0.560 s serializing and 5 ms propagating
        assert net.simulator.now == pytest.approx(0.5914, abs=1e-4)

    def test_a_lossy_backbone_gets_each_lost_packet_once(self, monkeypatch):
        # the whole-file train is lost outright, so the run comes over as
        # NAK repair batches that take longer than a NAK interval to land
        # (and lose more of themselves to the backbone's i.i.d. loss)
        net, origin, edge0, backbone = slow_backbone_tier()
        backbone.rng.seed(1000 + CHAOS_SEED)
        backbone.set_loss(loss_rate=0.35)
        send_train = origin._send_train
        lost = []

        def first_train_lost(session, packets, wire_size, traced=True):
            if lost:
                send_train(session, packets, wire_size, traced)
            else:
                lost.extend(packets)

        monkeypatch.setattr(origin, "_send_train", first_train_lost)
        arrivals = []
        on_fill_train = EdgeRelay._on_fill_train

        def counted(self, fill, packets):
            arrivals.extend(p.sequence for p in packets)
            on_fill_train(self, fill, packets)

        monkeypatch.setattr(EdgeRelay, "_on_fill_train", counted)
        edge0.prefetch("lecture")
        run = origin.points["lecture"].content
        assert len(lost) == len(run.packets)
        assert get_counters("edge_cache")["fills"] == 1
        assert edge0.cache.lookup(run.fingerprint()) is not None
        assert edge0.recovery_stats["upstream_naks"] >= 1
        # no round asked for a packet still on the wire: every packet
        # reached the relay exactly once
        assert sorted(arrivals) == [p.sequence for p in run.packets]


class TestBusyWireFill:
    """A backbone that never goes quiet must not hold a NAK round back
    past the time the fill's own missing packets need on it."""

    def test_a_live_feed_on_the_backbone_does_not_starve_the_rounds(self):
        # unpaced (quantum 0) live feed from the same upstream: a packet
        # every ~0.1 s keeps the backbone busy for the whole fill
        net, origin, _, (edge0,) = make_tier(edges=1, quantum=0.0)
        capture = LiveCaptureSession(
            net.simulator, get_profile("isdn-dual"), chunk=0.1
        )
        origin.publish("live", capture.stream)
        viewer = edge0.open_session("live", "viewer", lambda packets: None)
        edge0.play(viewer.session_id)
        net.simulator.run_until(2.0)
        backbone = net.link("origin", "edge0")
        backbone.rng.seed(1000 + CHAOS_SEED)
        backbone.set_loss(loss_rate=0.05)
        began = net.simulator.now

        edge0.prefetch("lecture")
        run = origin.points["lecture"].content
        counters = get_counters("edge_cache")
        assert counters["fills"] == 1
        assert counters.get("fill_integrity_failures", 0) == 0
        assert edge0.cache.lookup(run.fingerprint()) is not None
        assert origin.recovery_stats["repairs_sent"] >= 1
        # repaired within a few NAK intervals, not at FILL_TIMEOUT
        assert net.simulator.now - began < 4 * EdgeRelay.FILL_NAK_INTERVAL
        capture.finish()


def one_byte_off(packet):
    """An equal-sized copy of ``packet`` whose first payload byte differs."""
    first = packet.payloads[0]
    data = bytes([first.data[0] ^ 0xFF]) + first.data[1:]
    return dataclasses.replace(
        packet,
        payloads=[dataclasses.replace(first, data=data), *packet.payloads[1:]],
    )


class TestFillIntegrityGate:
    def test_a_packet_altered_in_transit_fails_the_fill(self, monkeypatch):
        net, origin, directory, (edge0,) = make_tier(edges=1)
        run = origin.points["lecture"].content
        key = run.fingerprint()
        send_train = origin._send_train
        swapped = []

        def tampered(session, packets, wire_size, traced=True):
            if not swapped:
                packets = list(packets)
                original = packets[len(packets) // 2]
                packets[len(packets) // 2] = one_byte_off(original)
                swapped.append(original)
            send_train(session, packets, wire_size, traced)

        monkeypatch.setattr(origin, "_send_train", tampered)
        with pytest.raises(PublishError, match="no upstream source delivered"):
            edge0.prefetch("lecture")
        assert len(swapped) == 1
        wire = swapped[0].pack()
        altered = one_byte_off(swapped[0]).pack()
        assert len(wire) == len(altered)
        assert sum(a != b for a, b in zip(wire, altered)) == 1
        counters = get_counters("edge_cache")
        assert counters["fill_integrity_failures"] == 1
        assert counters.get("fills", 0) == 0
        assert edge0.cache.lookup(key) is None
        assert "lecture" not in edge0.points


class TestEdgeFaultParity:
    def test_fault_plan_drives_edge_crash_and_restart(self):
        net, origin, directory, relays = make_tier()
        injector = FaultInjector(net)
        injector.register_directory(directory)
        injector.apply(
            FaultPlan("edge-chaos").edge_crash(
                "edge0", at=2.0, restart_at=4.0
            )
        )
        net.simulator.run_until(3.0)
        assert relays[0].crashed and relays[0].crash_count == 1
        # the directory's admission control reflects the crash live
        assert directory.place("anything") == "edge1"
        net.simulator.run_until(5.0)
        assert not relays[0].crashed
        assert [k for _, k, t in injector.log if t == ("edge0",)] == [
            "server_crash", "server_restart",
        ]

    def test_backbone_link_faults_target_edges_like_any_host(self):
        net, origin, directory, (edge0, _) = make_tier()
        edge0.prefetch("lecture")
        FaultInjector(net).apply(
            FaultPlan("cut").link_down("origin", "edge0", at=1.0, until=2.0)
        )
        net.simulator.run_until(3.0)
        # the cut window severed and healed the backbone; the replica
        # (filled before the cut) kept serving throughout
        assert "lecture" in edge0.points


class TestCrashRerouteResume:
    def test_viewer_survives_edge_crash_via_directory_reroute(self):
        tracer = Tracer("edge-chaos")
        net, origin, directory, relays = make_tier(tracer=tracer)
        for relay in relays:
            for pair in ((relay.host, "student"), ("origin", relay.host)):
                net.link(*pair).tracer = tracer
                net.link(*reversed(pair)).tracer = tracer

        home = directory.place("student|lecture")
        injector = FaultInjector(net, tracer=tracer)
        injector.register_directory(directory)
        injector.apply(
            FaultPlan("edge-crash").edge_crash(home, at=6.0, restart_at=12.0)
        )

        player = MediaPlayer(
            net, "student", directory=directory,
            recovery=RecoveryConfig(), tracer=tracer,
        )
        player.connect(directory.url_for("student", "lecture"))
        player.play()
        report = drive(net, player, 90.0)

        # the reconnect was re-placed onto the surviving edge
        assert report.recovery.get("stalls_detected", 0) >= 1
        assert report.recovery.get("reconnects", 0) >= 1
        assert report.recovery.get("reroutes", 0) >= 1
        assert tracer.events("playback.reroute")
        survivor = next(r for r in relays if r.name != home)
        assert survivor.sessions.total_created >= 1

        # playback completed end to end, nothing rendered twice
        assert report.duration_watched == pytest.approx(DURATION, abs=0.3)
        fired = [c.command.parameter for c in report.slide_changes()]
        assert fired == [f"s{i}" for i in range(SLIDES)]
        keys = [
            (r.unit.stream_number, r.unit.object_number)
            for r in report.rendered
        ]
        assert len(keys) == len(set(keys))

        # sweep the tier down, then audit the full two-hop trace: every
        # session (player->edge AND edge->origin, on both edges) must
        # balance, QoS reservations drain, trains only in open sessions
        for relay in relays:
            relay.shutdown()
        assert len(origin.sessions) == 0
        for server in (origin, *relays):
            server.sessions.assert_consistent()
            server.assert_no_qos_leaks()
        TraceChecker(tracer.records).assert_ok()
        assert [k for _, k, t in injector.log if t == (home,)] == [
            "server_crash", "server_restart",
        ]
        assert tracer.events("fault.server_crash")


class TestReconnectHoldsNoSharedTick:
    def test_one_viewers_reconnect_keeps_anothers_render_cadence(self):
        # two players on one shared render ticker; the first one's edge
        # crashes. Its reconnect handshake (close, open, play round trips)
        # runs after the tick that detected the stall, so the other
        # player keeps rendering every 50 ms straight through it
        net, origin, directory, relays = make_tier()
        home = directory.place("student|lecture")
        survivor = next(r for r in relays if r.name != home)
        net.connect(survivor.host, "other", bandwidth=2_000_000, delay=0.02)
        injector = FaultInjector(net)
        injector.register_directory(directory)
        injector.apply(FaultPlan("crash").edge_crash(home, at=6.0))
        ticker = SharedTicker(net.simulator, MediaPlayer.RENDER_TICK)
        crashed = MediaPlayer(
            net, "student", directory=directory, recovery=RecoveryConfig(),
            render_ticker=ticker,
        )
        other = MediaPlayer(net, "other", render_ticker=ticker)
        ticks = []
        render_tick = other._render_tick

        def timed_tick():
            ticks.append(net.simulator.now)
            render_tick()

        other._render_tick = timed_tick
        crashed.connect(directory.url_for("student", "lecture"))
        crashed.play()
        other.connect(f"http://{survivor.host}:{survivor.port}/lod/lecture")
        other.play()
        report = drive(net, crashed, 60.0)
        drive(net, other, 60.0)

        assert report.recovery.get("reconnects", 0) >= 1
        assert report.recovery.get("reroutes", 0) >= 1
        assert report.duration_watched == pytest.approx(DURATION, abs=0.3)
        assert ticks[0] < 6.0 < ticks[-1]
        gaps = [b - a for a, b in zip(ticks, ticks[1:])]
        assert max(gaps) == pytest.approx(MediaPlayer.RENDER_TICK)
