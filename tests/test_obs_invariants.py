"""End-to-end trace audits: one Tracer across publish/serve/playback/chaos.

Every scenario here drives a full pipeline with a single
:class:`repro.obs.Tracer` threaded through the server, links, fault
injector and player, then hands the finished trace to
:class:`repro.obs.TraceChecker` — the cross-layer invariants (sessions
closed, QoS released, no traffic after close, floor mutual exclusion,
monotonic renders) must hold under faults, not just on the happy path.

``CHAOS_SEED`` (env) reseeds the lossy links; all assertions must hold
for seeds 0, 1, 2 (the chaos CI matrix).
"""

import os

import pytest

from repro.asf import ASFEncoder, EncoderConfig, slide_commands
from repro.core.extended import SiteLink
from repro.lod import Classroom
from repro.media import AudioObject, ImageObject, VideoObject, get_profile
from repro.net import FaultInjector, FaultPlan, GilbertElliott
from repro.obs import SessionQoE, TraceChecker, Tracer, load_jsonl
from repro.streaming import (
    MediaPlayer,
    MediaServer,
    PlayerState,
    RecoveryConfig,
)
from repro.streaming.session import SessionError
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


def mbr_asf():
    renditions = [
        get_profile(n)
        for n in ("modem-56k", "isdn-dual", "dsl-256k", "lan-1m")
    ]
    return ASFEncoder(EncoderConfig(profile=renditions[-1])).encode_file_mbr(
        file_id="mbr",
        video=VideoObject("talk", DURATION, width=640, height=480, fps=25),
        renditions=renditions,
        audio=AudioObject("voice", DURATION),
        commands=slide_commands([("s0", 0.0), ("s1", DURATION / 2)]),
    )


def traced_world(asf=None, *, burst_loss=None, qos_enabled=False,
                 point="lecture"):
    """One tracer threaded through every layer of a server+student world."""
    tracer = Tracer("chaos")
    net = VirtualNetwork()
    tracer.bind_clock(net.simulator)
    net.simulator.tracer = tracer
    net.connect("server", "student", bandwidth=2_000_000, delay=0.02)
    for src, dst in (("server", "student"), ("student", "server")):
        net.link(src, dst).tracer = tracer
    downlink = net.link("server", "student")
    downlink.rng.seed(1000 + CHAOS_SEED)
    if burst_loss is not None:
        downlink.set_loss(burst_loss=burst_loss)
    server = MediaServer(
        net, "server", port=8080, qos_enabled=qos_enabled, tracer=tracer
    )
    server.publish(point, asf if asf is not None else make_asf())
    return tracer, net, server


def drive(net, player, horizon):
    net.simulator.run_until(horizon)
    if player.state is not PlayerState.FINISHED:
        player.stop()
    return player.report()


def watch(tracer, net, server, *, recovery=None, horizon=60.0,
          point="lecture"):
    player = MediaPlayer(net, "student", recovery=recovery, tracer=tracer)
    player.connect(server.url_of(point))
    player.play()
    return drive(net, player, horizon)


def assert_no_session_leaks(server):
    """The leak-regression bundle every teardown path must satisfy."""
    assert len(server.sessions) == 0
    server.sessions.assert_consistent()
    server.assert_no_qos_leaks()


class TestCleanRun:
    def test_trace_passes_all_invariants(self):
        tracer, net, server = traced_world(qos_enabled=True)
        report = watch(tracer, net, server)

        checker = TraceChecker(tracer.records).assert_ok()
        summary = checker.summary()
        assert summary["sessions_opened"] == summary["sessions_closed"] == 1
        assert summary["reservations_made"] == 1
        assert summary["reservations_released"] == 1
        assert summary["trains_seen"] >= 1
        # monotonic render.run records whose unit counts add up to every
        # unit rendered, in fewer records than units
        runs = tracer.events("render.run")
        assert summary["renders_seen"] == report.digest.count > len(runs) > 0
        assert tracer.open_spans() == {}
        assert_no_session_leaks(server)

    def test_trace_survives_jsonl_round_trip(self, tmp_path):
        tracer, net, server = traced_world(qos_enabled=True)
        watch(tracer, net, server)
        path = tmp_path / "clean.jsonl"
        count = tracer.write_jsonl(str(path))
        records = load_jsonl(path.read_text())
        assert len(records) == count
        TraceChecker(records).assert_ok()

    def test_playback_span_brackets_the_run(self):
        tracer, net, server = traced_world()
        watch(tracer, net, server)
        begins = [r for r in tracer.events("playback") if r["kind"] == "begin"]
        ends = [r for r in tracer.events("playback") if r["kind"] == "end"]
        assert len(begins) == len(ends) == 1
        assert ends[0]["attrs"]["rendered"] > 0
        starts = tracer.events("playback.start")
        assert len(starts) == 1 and starts[0]["attrs"]["startup"] > 0


class TestBurstLossRecovery:
    def test_invariants_and_qoe_under_burst_loss(self):
        clean_tracer, clean_net, clean_srv = traced_world(qos_enabled=True)
        clean = watch(clean_tracer, clean_net, clean_srv)

        tracer, net, server = traced_world(
            burst_loss=GilbertElliott.from_average(0.05, mean_burst=5.0),
            qos_enabled=True,
        )
        report = watch(tracer, net, server, recovery=RecoveryConfig())

        TraceChecker(tracer.records).assert_ok()
        # the recovery machinery left its footprint in the trace
        assert tracer.events("gap.observed")
        assert tracer.events("nak.sent")
        assert tracer.events("repair.sent")
        assert_no_session_leaks(server)

        # QoE extraction agrees with the independently computed ratio
        qoe = SessionQoE.from_report(
            report, clean_media_bytes=clean.media_bytes, client="student"
        )
        assert qoe.delivery_ratio == pytest.approx(
            report.media_bytes / clean.media_bytes
        )
        assert qoe.delivery_ratio >= 0.99
        assert qoe.naks_sent == report.recovery["naks_sent"]
        assert qoe.repairs_received == report.recovery["repairs_received"]
        assert qoe.naks_sent >= 1


class TestCrashRestart:
    def test_sessions_balance_across_a_crash(self):
        tracer, net, server = traced_world(qos_enabled=True)
        FaultInjector(net, servers={"media": server}, tracer=tracer).apply(
            FaultPlan("crash").server_crash("media", at=6.0, restart_at=8.0)
        )
        player = MediaPlayer(
            net, "student", recovery=RecoveryConfig(), tracer=tracer
        )
        player.connect(server.url_of("lecture"))
        player.play()
        report = drive(net, player, 60.0)

        checker = TraceChecker(tracer.records).assert_ok()
        # pre-crash and post-restart sessions both opened AND closed
        assert checker.sessions_opened == 2
        assert checker.sessions_closed == 2
        assert checker.reservations_made == 2
        assert checker.reservations_released == 2
        assert [r["name"] for r in tracer.events("fault.server_crash")]
        assert [r["name"] for r in tracer.events("server.crash")]
        assert [r["name"] for r in tracer.events("server.restart")]
        assert tracer.events("playback.stall")
        assert tracer.events("playback.reconnect")
        assert report.duration_watched == pytest.approx(DURATION, abs=0.3)
        assert_no_session_leaks(server)


class TestPartitionHeal:
    def test_orphan_close_retry_leaves_no_leak(self):
        tracer, net, server = traced_world(qos_enabled=True)
        FaultInjector(net, tracer=tracer).apply(
            FaultPlan("partition").partition(
                "student", ["server"], at=5.0, until=9.0
            )
        )
        player = MediaPlayer(
            net, "student", recovery=RecoveryConfig(), tracer=tracer
        )
        player.connect(server.url_of("lecture"))
        player.play()
        report = drive(net, player, 90.0)

        TraceChecker(tracer.records).assert_ok()
        assert tracer.events("link.down") and tracer.events("link.up")
        assert report.duration_watched == pytest.approx(DURATION, abs=0.3)
        # the pre-partition session's first close was swallowed by the
        # dead control plane; the retry path still removed every index
        assert_no_session_leaks(server)


class TestDownshiftTimeline:
    def test_bandwidth_collapse_recorded_at_both_ends(self):
        tracer, net, server = traced_world(mbr_asf(), point="mbr")
        FaultInjector(net, tracer=tracer).apply(
            FaultPlan("collapse").bandwidth(
                "server", "student", at=5.0, bps=400_000.0
            )
        )
        player = MediaPlayer(
            net, "student", recovery=RecoveryConfig(), tracer=tracer
        )
        player.connect(server.url_of("mbr"))
        player.play()
        report = drive(net, player, 120.0)

        TraceChecker(tracer.records).assert_ok()
        client_side = tracer.events("playback.downshift")
        server_side = tracer.events("session.downshift")
        assert client_side and server_side
        assert len(client_side) == len(report.downshifts)
        # the report's downshift timeline mirrors the trace
        assert [r["attrs"]["video"] for r in client_side] == [
            video for _, video in report.downshifts
        ]
        assert_no_session_leaks(server)


class TestFloorUnderDisconnect:
    def room(self, tracer):
        from repro.lod import Lecture

        presentation = Lecture.from_slide_durations(
            "L", "A", [10.0, 10.0], importances=[0, 1],
            slide_width=160, slide_height=120,
        ).to_presentation()
        return Classroom(
            presentation,
            {"s1": SiteLink(0.05), "s2": SiteLink(0.1)},
            tracer=tracer,
        )

    def test_holder_disconnect_reclaims_floor(self):
        tracer = Tracer("floor")
        room = self.room(tracer)
        room.request_floor("s1")  # queued behind the teacher
        assert room.floor_holder == "teacher"

        next_holder = room.site_disconnected("teacher")
        assert next_holder == "s1"
        assert room.floor_holder == "s1"
        # the audit log tells the whole story
        actions = [(e.user, e.action) for e in room.events]
        assert ("teacher", "disconnect") in actions
        assert ("teacher", "floor_reclaimed") in actions
        # and the trace passes floor mutual exclusion end to end
        room.release_floor("s1")
        TraceChecker(tracer.records).assert_ok()

    def test_waiter_disconnect_leaves_queue(self):
        tracer = Tracer("floor")
        room = self.room(tracer)
        room.request_floor("s1")
        room.request_floor("s2")
        assert room.site_disconnected("s1") is None
        assert room.floor_holder == "teacher"
        room.release_floor("teacher")
        # s1 is gone: the grant skips to s2
        assert room.floor_holder == "s2"
        room.release_floor("s2")
        TraceChecker(tracer.records).assert_ok()

    def test_disconnect_with_empty_queue_frees_floor(self):
        tracer = Tracer("floor")
        room = self.room(tracer)
        assert room.site_disconnected("teacher") is None
        assert room.floor_holder is None
        assert room.request_floor("s1") is True
        room.release_floor("s1")
        TraceChecker(tracer.records).assert_ok()


class TestSessionTableAudit:
    def test_consistent_after_mixed_lifecycle(self):
        _, net, server = traced_world()
        first = server.open_session("lecture", "student", lambda pkt: None)
        second = server.open_session("lecture", "student", lambda pkt: None)
        server.close_session(first.session_id)
        server.sessions.assert_consistent()
        server.close_session(second.session_id)
        assert_no_session_leaks(server)

    def test_audit_catches_a_seeded_leak(self):
        _, net, server = traced_world()
        session = server.open_session("lecture", "student", lambda pkt: None)
        # simulate the historical bug: close that forgets the point bucket
        table = server.sessions
        del table._sessions[session.session_id]
        with pytest.raises(SessionError, match="unregistered"):
            table.assert_consistent()

    def test_audit_catches_a_stale_active_entry(self):
        _, net, server = traced_world()
        session = server.open_session("lecture", "student", lambda pkt: None)
        table = server.sessions
        from repro.streaming.session import SessionState

        session.state = SessionState.CLOSED  # bypasses the observer
        with pytest.raises(SessionError, match="closed session"):
            table.assert_consistent()
