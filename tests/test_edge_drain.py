"""Graceful drains with warm session hand-off.

A *planned* edge removal must not look like a crash. ``EdgeRelay.drain``
stops admitting, then transfers each live session's delivery cursor to
its ring successor over the successor's ``/control/adopt`` route; the
client is re-pointed through its ``relocate`` callback with the jitter
buffer, clock, and playhead untouched:

* the happy path costs ~0 rebuffer and no seek/replay — versus the crash
  path's stall-watchdog timeout plus reconnect;
* a successor that refuses (or is dead) drops the session to the crash
  path instead of stranding it — the viewer still recovers, just paying
  the ordinary reconnect price;
* the whole protocol is visible to the tracer and audited by
  :class:`TraceChecker`'s drain invariants: every drained session gets
  exactly one outcome, and hand-off targets are open sessions.
"""

import os

import pytest

from repro.asf import ASFEncoder, EncoderConfig, slide_commands
from repro.media import AudioObject, ImageObject, VideoObject, get_profile
from repro.metrics.counters import get_counters, reset_counters
from repro.net import FaultInjector, FaultPlan
from repro.obs import TraceChecker, Tracer
from repro.streaming import (
    MediaPlayer,
    MediaServer,
    PlayerState,
    RecoveryConfig,
    build_edge_tier,
    build_relay_tree,
)

from repro.web import VirtualNetwork
from tests.helpers import log_renders, rendered

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


def make_tier(*, edges=2, tracer=None, seed=0, hosts=("student",),
              tree=False):
    """Origin and ``edges`` relays, each linked to every viewer host. A
    ``tree`` puts the relays in one region, so a miss fills from a
    sibling before the region's parent."""
    reset_counters("edge_cache")
    net = VirtualNetwork()
    if tracer is not None:
        tracer.bind_clock(net.simulator)
        net.simulator.tracer = tracer
    origin = MediaServer(
        net, "origin", port=8080, pacing_quantum=0.5,
        trace_label="origin", tracer=tracer,
    )
    origin.publish("lecture", make_asf())
    names = [f"edge{i}" for i in range(edges)]
    if tree:
        directory, _, relays = build_relay_tree(
            net, origin, {"r0": names},
            pacing_quantum=0.5, seed=seed,
            tracer=tracer,
        )
    else:
        directory, relays = build_edge_tier(
            net, origin, names,
            pacing_quantum=0.5, seed=seed,
            tracer=tracer,
        )
    for relay in relays:
        for host in hosts:
            net.connect(relay.host, host, bandwidth=2_000_000, delay=0.02)
            net.link(relay.host, host).rng.seed(1000 + CHAOS_SEED)
    return net, origin, directory, relays


def start_player(net, directory, tracer=None, host="student"):
    player = log_renders(MediaPlayer(
        net, host, directory=directory,
        recovery=RecoveryConfig(), tracer=tracer,
    ))
    player.connect(directory.url_for(host, "lecture"))
    player.play()
    return player


def finish(net, player, horizon=90.0):
    net.simulator.run_until(horizon)
    if player.state is not PlayerState.FINISHED:
        player.stop()
    return player.report()


def teardown_audit(origin, relays, tracer):
    for relay in relays:
        if not relay.crashed and not relay.draining:
            relay.shutdown()
    assert len(origin.sessions) == 0
    for server in (origin, *relays):
        server.sessions.assert_consistent()
        server.assert_no_qos_leaks()
    return TraceChecker(tracer.records).assert_ok()


class TestWarmHandoff:
    def test_drain_hands_off_with_zero_rebuffer(self):
        tracer = Tracer("drain")
        net, origin, directory, relays = make_tier(tracer=tracer)
        home = directory.place("student|lecture")
        home_relay = next(r for r in relays if r.name == home)
        survivor = next(r for r in relays if r.name != home)

        player = start_player(net, directory, tracer)
        stats = {}
        net.simulator.schedule_at(
            8.0, lambda: stats.update(home_relay.drain(directory))
        )
        report = finish(net, player)

        # exactly one warm transfer, zero crash-path activity
        assert stats == {"handoffs": 1, "fallbacks": 0}
        assert report.recovery.get("handoffs", 0) == 1
        assert report.recovery.get("stalls_detected", 0) == 0
        assert report.recovery.get("reconnect_attempts", 0) == 0
        # the hand-off cost the viewer essentially nothing
        assert report.rebuffer_count == 0
        assert report.rebuffer_time == pytest.approx(0.0, abs=0.05)
        assert report.duration_watched == pytest.approx(DURATION, abs=0.3)
        # no gap, no overlap: every rendered unit exactly once, slides in
        # order across the transfer boundary
        fired = [c.command.parameter for c in report.slide_changes()]
        assert fired == [f"s{i}" for i in range(SLIDES)]
        keys = [
            (r.unit.stream_number, r.unit.object_number)
            for r in rendered(report)
        ]
        assert len(keys) == len(set(keys))
        # the successor actually served the tail
        assert survivor.sessions.total_created >= 1

        checker = teardown_audit(origin, relays, tracer)
        assert checker.handoffs_seen == 1
        assert checker.fallbacks_seen == 0
        assert tracer.events("drain.begin") and tracer.events("drain.end")
        assert tracer.events("playback.handoff")
        # admission stayed off for the drained edge
        assert not directory.is_available(home)

    def test_drain_mid_window_hands_off_only_the_remainder(self):
        """A hand-off inside the fast-start window carries what is left
        of it: the successor bursts the remainder, not a second preroll
        into a buffer that already holds the first part."""
        tracer = Tracer("drain-window")
        net, origin, directory, relays = make_tier(tracer=tracer)
        home = directory.place("student|lecture")
        home_relay = next(r for r in relays if r.name == home)
        survivor = next(r for r in relays if r.name != home)

        player = start_player(net, directory, tracer)
        (session,) = [s for s in home_relay.sessions.all() if not s.replica]
        preroll_ms = float(player.header.file_properties.preroll_ms)
        net.simulator.wait(lambda: session.packets_sent > 0)
        net.simulator.run_until(net.simulator.now + 0.15)
        assert home_relay.drain(directory) == {"handoffs": 1, "fallbacks": 0}

        (adopted,) = [s for s in survivor.sessions.all() if not s.replica]
        granted, carried = (
            g["attrs"] for g in tracer.events("faststart.grant")
        )
        assert (granted["reason"], granted["window_ms"]) == ("play", preroll_ms)
        assert carried["reason"] == "resume"
        assert carried["session"] == f"{survivor.name}:{adopted.session_id}"
        assert 0.0 < carried["window_ms"] < preroll_ms  # drained mid-window
        # the successor grants its own factor over the carried window
        assert carried["factor"] == granted["factor"] > 1.0
        # over the next half second: the remainder at burst speed, then
        # real time — a restarted window would send a whole preroll more
        before = adopted.bytes_sent
        net.simulator.run_until(net.simulator.now + 0.5)
        media_s = carried["window_ms"] / 1000.0 + 0.5 + 0.5  # + one train
        wire = player.header.total_bitrate / 8 * 1.15  # packet overhead
        assert adopted.bytes_sent - before <= media_s * wire
        assert media_s < preroll_ms / 1000.0 + 0.5

        report = finish(net, player)
        assert report.rebuffer_count == 0
        assert report.duration_watched == pytest.approx(DURATION, abs=0.3)
        keys = [
            (r.unit.stream_number, r.unit.object_number)
            for r in rendered(report)
        ]
        assert len(keys) == len(set(keys))
        teardown_audit(origin, relays, tracer)

    def test_drain_hands_off_every_concurrent_viewer(self):
        """Eight viewers, the busier edge drains mid-stream: every drained
        session is handed off warm (rate 1.00 at seeds 0-2 in the retired
        resilience bench, PR 7) and each hand-off relocates one client."""
        hosts = tuple(f"viewer{i}" for i in range(8))
        tracer = Tracer("drain-many")
        net, origin, directory, relays = make_tier(
            tracer=tracer, seed=CHAOS_SEED, hosts=hosts
        )
        players = [start_player(net, directory, tracer, host) for host in hosts]
        homes = [directory.place(f"{host}|lecture") for host in hosts]
        busiest = max(set(homes), key=homes.count)
        relay = next(r for r in relays if r.name == busiest)
        stats = {}
        net.simulator.schedule_at(
            8.0, lambda: stats.update(relay.drain(directory))
        )
        reports = [finish(net, player) for player in players]

        assert stats == {"handoffs": homes.count(busiest), "fallbacks": 0}
        relocated = sum(r.recovery.get("handoffs", 0) for r in reports)
        assert relocated == stats["handoffs"]
        for report in reports:
            assert report.recovery.get("stalls_detected", 0) == 0
            assert report.duration_watched == pytest.approx(DURATION, abs=0.3)
        checker = teardown_audit(origin, relays, tracer)
        assert checker.handoffs_seen == stats["handoffs"]
        assert checker.fallbacks_seen == 0

    def test_drain_hands_off_a_paused_viewer_paused(self):
        """A paused session is handed off too: the successor adopts it
        paused at its cursor and grants nothing until the resume, which
        reaches the successor and plays the lecture to its end."""
        tracer = Tracer("drain-paused")
        net, origin, directory, relays = make_tier(tracer=tracer)
        home = directory.place("student|lecture")
        home_relay = next(r for r in relays if r.name == home)
        survivor = next(r for r in relays if r.name != home)

        player = start_player(net, directory, tracer)
        stats = {}
        sim = net.simulator
        sim.schedule_at(3.0, player.pause)
        sim.schedule_at(
            4.0, lambda: stats.update(home_relay.drain(directory))
        )
        sim.run_until(6.0)
        assert stats == {"handoffs": 1, "fallbacks": 0}
        (adopted,) = [s for s in survivor.sessions.all() if not s.replica]
        assert adopted.state.value == "paused"
        assert adopted.pacing_group is None
        assert adopted.packets_sent == 0
        grants = len(tracer.events("faststart.grant"))

        sim.schedule_at(8.0, player.resume)
        report = finish(net, player)
        assert player.session_id is None  # closed at the end, not lost
        assert report.recovery.get("handoffs", 0) == 1
        assert report.recovery.get("stalls_detected", 0) == 0
        assert report.duration_watched == pytest.approx(DURATION, abs=0.3)
        assert adopted.packets_sent > 0
        # the resume granted at most the window the pause left
        assert len(tracer.events("faststart.grant")) <= grants + 1
        checker = teardown_audit(origin, relays, tracer)
        assert checker.handoffs_seen == 1
        assert checker.fallbacks_seen == 0

    def test_drain_is_idempotent_and_refuses_crashed(self):
        from repro.streaming import SessionError

        net, origin, directory, relays = make_tier()
        stats = relays[0].drain(directory)
        assert stats == {"handoffs": 0, "fallbacks": 0}
        # second drain is a no-op, not a double teardown
        assert relays[0].drain(directory) == {"handoffs": 0, "fallbacks": 0}
        relays[1].crash()
        with pytest.raises(SessionError):
            relays[1].drain(directory)


class TestDrainFallback:
    def test_no_successor_falls_back_to_crash_path(self):
        tracer = Tracer("drain-fallback")
        net, origin, directory, relays = make_tier(tracer=tracer)
        home = directory.place("student|lecture")
        home_relay = next(r for r in relays if r.name == home)
        other = next(r for r in relays if r.name != home)
        # the only possible successor dies before the drain and restarts
        # after it, in time to take the reconnect
        injector = FaultInjector(net, {other.name: other})
        injector.apply(
            FaultPlan("kill-successor").edge_crash(
                other.name, at=4.0, restart_at=10.0
            )
        )

        player = start_player(net, directory, tracer)
        stats = {}
        net.simulator.schedule_at(
            8.0, lambda: stats.update(home_relay.drain(directory))
        )
        report = finish(net, player)

        # no viable successor: the session fell back to the crash path
        assert stats == {"handoffs": 0, "fallbacks": 1}
        assert report.recovery.get("handoffs", 0) == 0
        assert report.recovery.get("stalls_detected", 0) >= 1
        assert report.recovery.get("reconnects", 0) >= 1
        # the reconnect paid the crash price but playback still completed
        # end to end (placed onto the restarted successor)
        assert report.rebuffer_count >= 1
        assert report.duration_watched == pytest.approx(DURATION, abs=0.3)
        keys = [
            (r.unit.stream_number, r.unit.object_number)
            for r in rendered(report)
        ]
        assert len(keys) == len(set(keys))

        checker = teardown_audit(origin, relays, tracer)
        assert checker.fallbacks_seen == 1
        assert checker.handoffs_seen == 0
        assert tracer.events("session.handoff_fallback")

    def test_successor_dying_mid_transfer_falls_back(self):
        tracer = Tracer("drain-midfail")
        net, origin, directory, relays = make_tier(tracer=tracer)
        home = directory.place("student|lecture")
        home_relay = next(r for r in relays if r.name == home)
        other = next(r for r in relays if r.name != home)
        # the real successor is down across the drain and restarts in
        # time to take the reconnect
        FaultInjector(net, {other.name: other}).apply(
            FaultPlan("down-successor").edge_crash(
                other.name, at=4.0, restart_at=10.0
            )
        )
        player = start_player(net, directory, tracer)
        # a phantom successor: registered in the ring, but nothing
        # answers at its address — the adopt POST itself fails, which is
        # exactly what a successor crashing mid-transfer looks like to
        # the draining edge
        directory.add_edge("ghost", url="http://ghost:8080")
        stats = {}

        def drain_and_remove():
            stats.update(home_relay.drain(directory))
            # the phantom is marked down so the client's reconnect
            # resolves to the restarted successor, not the dead address
            directory.mark_down("ghost")

        net.simulator.schedule_at(8.0, drain_and_remove)
        report = finish(net, player)

        assert stats == {"handoffs": 0, "fallbacks": 1}
        assert report.recovery.get("handoffs", 0) == 0
        assert report.recovery.get("stalls_detected", 0) >= 1
        assert report.recovery.get("reconnects", 0) >= 1
        assert report.duration_watched == pytest.approx(DURATION, abs=0.3)

        checker = teardown_audit(origin, relays, tracer)
        assert checker.fallbacks_seen == 1
        assert checker.handoffs_seen == 0


class TestDrainUpstreamHandoff:
    def test_successor_fills_from_draining_edge_not_the_origin(self):
        """A drain hands off its *upstream* role too: the draining edge
        keeps admitting replica opens while it refuses viewers, so the
        successor's adopt-triggered fill finds it as a warm sibling and
        the origin never pays a second data egress for the hand-off."""
        tracer = Tracer("drain-upstream")
        net, origin, directory, relays = make_tier(tracer=tracer, tree=True)
        home = directory.place("student|lecture")
        home_relay = next(r for r in relays if r.name == home)
        survivor = next(r for r in relays if r.name != home)

        player = start_player(net, directory, tracer)
        stats = {}
        net.simulator.schedule_at(
            8.0, lambda: stats.update(home_relay.drain(directory))
        )
        report = finish(net, player)

        assert stats == {"handoffs": 1, "fallbacks": 0}
        assert report.rebuffer_count == 0
        # the successor's fill was served by the draining edge itself —
        # a warm replica hop, not a cold re-pull from the origin
        assert get_counters("edge_cache")["sibling_fills"] == 1
        assert origin.sessions.total_created == 1
        # the successor served the tail (its point released on finish)
        assert survivor.sessions.total_created >= 1

        checker = teardown_audit(origin, relays, tracer)
        assert checker.handoffs_seen == 1
        # the draining edge's own origin replica settled once the
        # successor's fill session released it
        assert len(origin.sessions) == 0
