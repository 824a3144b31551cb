"""End-to-end recovery: NAK retransmit, crash resume, degradation, parity.

The chaos counterpart of test_lossy_baseline.py — the same scripted fault
timelines, but with the player's recovery machinery switched on
(``MediaPlayer(recovery=RecoveryConfig())``). Asserts the PR's acceptance
criteria:

* 5% burst loss: >= 99% of media bytes delivered and every slide command
  fired with bounded sync error (the baseline suite shows recovery-off
  drops both);
* mid-stream server crash + restart: the client reconnects on its own and
  resumes from the buffered frontier without re-downloading or
  double-rendering delivered content;
* control-plane partition: reconnect attempts back off until the heal,
  then playback completes;
* bandwidth collapse on an MBR file: the client downshifts to a lighter
  rendition instead of rebuffering forever;
* fault-free runs: recovery being armed adds not a single simulator event.

``CHAOS_SEED`` (env) reseeds the lossy links; all assertions must hold
for seeds 0, 1, 2.
"""

import os

import pytest

from repro.asf import ASFEncoder, EncoderConfig, slide_commands
from repro.asf.packets import Depacketizer, MediaUnit, Packetizer
from repro.lod import LiveCaptureSession
from repro.media import AudioObject, ImageObject, VideoObject, get_profile
from repro.net import FaultInjector, FaultPlan, GilbertElliott
from repro.net.qos import QoSError
from repro.streaming import (
    MediaPlayer,
    MediaServer,
    PlayerState,
    RecoveryConfig,
)
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


def make_world(asf=None, *, burst_loss=None, qos_enabled=False):
    net = VirtualNetwork()
    net.connect("server", "student", bandwidth=2_000_000, delay=0.02)
    downlink = net.link("server", "student")
    downlink.rng.seed(1000 + CHAOS_SEED)
    if burst_loss is not None:
        downlink.set_loss(burst_loss=burst_loss)
    server = MediaServer(net, "server", port=8080, qos_enabled=qos_enabled)
    server.publish("lecture", asf if asf is not None else make_asf())
    return net, server


def drive(net, player, horizon):
    net.simulator.run_until(horizon)
    if player.state is not PlayerState.FINISHED:
        player.stop()
    return player.report()


def watch(net, server, *, recovery=None, horizon=60.0, point="lecture"):
    player = MediaPlayer(net, "student", recovery=recovery)
    player.connect(server.url_of(point))
    player.play()
    return drive(net, player, horizon)


class TestDepacketizerGapHook:
    def _packets(self, count=6):
        data = b"x" * 600
        units = [MediaUnit(1, i, i * 100, True, data) for i in range(count)]
        packets = Packetizer(packet_size=400, bitrate=100_000).packetize(
            [units]
        )
        assert len(packets) >= 5
        return packets

    def test_gap_reported_once_with_missing_sequences(self):
        gaps = []
        depacketizer = Depacketizer(on_gap=gaps.append)
        packets = self._packets()
        depacketizer.push_packet(packets[0])
        depacketizer.push_packet(packets[1])
        assert gaps == []  # in order: no gap
        depacketizer.push_packet(packets[4])
        assert gaps == [[packets[2].sequence, packets[3].sequence]]
        # a late (repaired) packet fills the hole without a new report
        depacketizer.push_packet(packets[2])
        assert len(gaps) == 1

    def test_replay_suppresses_already_completed_objects(self):
        depacketizer = Depacketizer()
        packets = self._packets()
        for packet in packets:
            depacketizer.push_packet(packet)
        completed = len(depacketizer.completed)
        depacketizer.expect_replay(suppress_completed=True)
        for packet in packets:
            assert depacketizer.push_packet(packet) == []
        assert len(depacketizer.completed) == completed
        assert depacketizer.suppressed_duplicates > 0


class TestNakRepair:
    def test_burst_loss_repaired_to_99_percent(self):
        clean_net, clean_srv = make_world()
        clean = watch(clean_net, clean_srv)

        net, server = make_world(
            burst_loss=GilbertElliott.from_average(0.05, mean_burst=5.0)
        )
        report = watch(net, server, recovery=RecoveryConfig())

        # the acceptance bar: >= 99% of media bytes despite 5% burst loss
        assert report.media_bytes >= 0.99 * clean.media_bytes
        assert report.recovery.get("naks_sent", 0) >= 1
        assert report.recovery.get("repairs_received", 0) >= 1
        assert server.recovery_stats["repairs_sent"] >= 1
        # every slide fires, and stays on the media clock
        fired = [c.command.parameter for c in report.slide_changes()]
        assert fired == [f"s{i}" for i in range(SLIDES)]
        assert report.max_command_sync_error <= 0.2
        assert report.duration_watched == pytest.approx(DURATION, abs=0.3)

    def test_repairs_add_nothing_on_a_clean_link(self):
        net, server = make_world()
        report = watch(net, server, recovery=RecoveryConfig())
        assert report.recovery.get("naks_sent", 0) == 0
        assert server.recovery_stats["repairs_sent"] == 0
        assert report.media_bytes > 0


class TestLiveCommandRepair:
    def _run(self, recovery):
        net = VirtualNetwork()
        net.connect("server", "student", bandwidth=2_000_000, delay=0.02)
        server = MediaServer(net, "server", port=8080)
        capture = LiveCaptureSession(
            net.simulator, get_profile("isdn-dual"), chunk=0.5
        )
        server.publish("live", capture.stream)
        FaultInjector(net).apply(
            FaultPlan("outage").link_down(
                "server", "student", at=4.8, until=5.8, both=False
            )
        )
        player = MediaPlayer(net, "student", preroll_override=1.0,
                             recovery=recovery)
        player.connect(server.url_of("live"))
        player.play()
        capture.advance_slide("intro")
        net.simulator.run_until(5.0)
        capture.advance_slide("mid")  # transmitted into the dead window
        net.simulator.run_until(9.0)
        capture.advance_slide("wrap")
        net.simulator.run_until(14.0)
        capture.finish()
        player.mark_stream_ended()
        net.simulator.run_until(16.0)
        player.stop()
        return player.report()

    def test_every_live_slide_fires_with_recovery(self):
        without = self._run(None)
        with_recovery = self._run(RecoveryConfig())

        lost = [c.command.parameter for c in without.commands]
        assert "mid" not in lost  # the baseline demonstrably loses it

        fired = [c.command.parameter for c in with_recovery.commands]
        assert sorted(fired) == ["intro", "mid", "wrap"]
        # the repaired command fires late but bounded: outage window plus
        # a NAK round trip, nowhere near a whole-lecture desync
        mid = next(
            c for c in with_recovery.commands
            if c.command.parameter == "mid"
        )
        assert mid.sync_error <= 2.5
        assert with_recovery.recovery.get("naks_sent", 0) >= 1
        assert with_recovery.recovery.get("repairs_received", 0) >= 1


class TestCrashResume:
    def test_client_resumes_from_rendered_position(self):
        clean_net, clean_srv = make_world()
        clean = watch(clean_net, clean_srv)

        net, server = make_world(qos_enabled=True)
        injector = FaultInjector(net, servers={"media": server})
        injector.apply(
            FaultPlan("crash").server_crash("media", at=6.0, restart_at=8.0)
        )
        player = MediaPlayer(net, "student", recovery=RecoveryConfig())
        player.connect(server.url_of("lecture"))
        player.play()
        report = drive(net, player, 60.0)

        assert server.crash_count == 1
        assert report.recovery.get("stalls_detected", 0) >= 1
        assert report.recovery.get("reconnects", 0) >= 1
        # playback completes end to end after the restart
        assert report.duration_watched == pytest.approx(DURATION, abs=0.3)
        assert report.media_bytes >= 0.999 * clean.media_bytes
        fired = [c.command.parameter for c in report.slide_changes()]
        assert fired == [f"s{i}" for i in range(SLIDES)]
        # resume did not re-deliver what the client already had: nothing
        # renders twice, and the replay overlap is at most a boundary sliver
        keys = [
            (r.unit.stream_number, r.unit.object_number)
            for r in report.rendered
        ]
        assert len(keys) == len(set(keys))
        assert server.sessions.total_created == 2
        # the crash freed the first session's QoS channel, the close freed
        # the second's
        server.assert_no_qos_leaks()

    def test_give_up_after_bounded_reconnect_attempts(self, monkeypatch):
        net, server = make_world()
        FaultInjector(net, servers={"media": server}).apply(
            FaultPlan("fatal").server_crash("media", at=6.0)  # no restart
        )
        monkeypatch.setattr(RecoveryConfig, "max_reconnects", 3)
        player = MediaPlayer(net, "student", recovery=RecoveryConfig())
        player.connect(server.url_of("lecture"))
        player.play()
        report = drive(net, player, 60.0)

        assert player.state is PlayerState.FINISHED
        assert report.recovery.get("reconnect_attempts", 0) == 3
        assert report.recovery.get("reconnect_giveups", 0) == 1
        assert report.duration_watched < DURATION


class TestPartitionHeal:
    def test_reconnect_after_control_plane_partition(self):
        net, server = make_world(qos_enabled=True)
        FaultInjector(net).apply(
            FaultPlan("partition").partition(
                "student", ["server"], at=5.0, until=9.0
            )
        )
        player = MediaPlayer(net, "student", recovery=RecoveryConfig())
        player.connect(server.url_of("lecture"))
        player.play()
        report = drive(net, player, 90.0)

        assert report.recovery.get("stalls_detected", 0) >= 1
        assert report.recovery.get("reconnects", 0) >= 1
        # attempts during the partition failed and backed off
        assert (
            report.recovery["reconnect_attempts"]
            > report.recovery["reconnects"]
        )
        assert report.duration_watched == pytest.approx(DURATION, abs=0.3)
        # the orphaned pre-partition session was closed after the heal:
        # nothing leaks even though its first close was swallowed
        assert len(server.sessions) == 0
        server.assert_no_qos_leaks()


class TestGracefulDegradation:
    def _run(self, recovery):
        net = VirtualNetwork()
        net.connect("server", "student", bandwidth=2_000_000, delay=0.02)
        server = MediaServer(net, "server", port=8080)
        server.publish("mbr", mbr_asf())
        FaultInjector(net).apply(
            FaultPlan("collapse").bandwidth(
                "server", "student", at=5.0, bps=400_000.0
            )
        )
        player = MediaPlayer(net, "student", recovery=recovery)
        player.connect(server.url_of("mbr"))
        player.play()
        report = drive(net, player, 120.0)
        return player, report

    def test_bandwidth_collapse_triggers_downshift(self):
        _, stubborn = self._run(None)
        player, degraded = self._run(RecoveryConfig())

        assert degraded.recovery.get("downshifts", 0) >= 1
        # the server actually switched the session to a lighter rendition
        assert player.selected_video is not None
        # degrading beats stubbornly streaming the fat rendition through
        # a collapsed link
        assert degraded.rebuffer_count < stubborn.rebuffer_count
        assert degraded.duration_watched >= stubborn.duration_watched

    def test_downshift_on_a_clean_link_loses_nothing_on_the_new_stream(self):
        # the lighter rendition starts mid-file; the objects it skipped
        # were never asked for, so they are not lost
        net = VirtualNetwork()
        net.connect("server", "student", bandwidth=2_000_000, delay=0.02)
        server = MediaServer(net, "server", port=8080)
        server.publish("mbr", mbr_asf())
        player = MediaPlayer(net, "student")
        player.connect(server.url_of("mbr"))
        player.play()
        net.simulator.run_until(8.0)
        assert player._request_downshift()
        report = player.run_until_finished(timeout=200.0)
        (_, new_video), = report.downshifts
        assert report.loss_rates[new_video] == 0.0


class TestQoSTeardownPaths:
    def test_crash_and_failed_handshake_release_reservations(self):
        net = VirtualNetwork()
        net.connect("server", "student", bandwidth=600_000, delay=0.02)
        server = MediaServer(net, "server", port=8080, qos_enabled=True)
        server.publish("lecture", make_asf())

        first = server.open_session("lecture", "student", lambda pkt: None)
        second = server.open_session("lecture", "student", lambda pkt: None)
        with pytest.raises(QoSError):
            server.open_session("lecture", "student", lambda pkt: None)
        # the refused handshake left neither a session nor a reservation
        assert len(server.sessions) == 2
        assert len(server.qos_leaks()) == 2  # the two legitimate holds

        server.crash()
        assert len(server.sessions) == 0
        server.assert_no_qos_leaks()
        assert first.reservation is None and second.reservation is None


class TestFaultFreeParity:
    def test_recovery_armed_adds_zero_simulator_events(self):
        def run(recovery):
            net, server = make_world()
            report = watch(net, server, recovery=recovery)
            return net.simulator.events_processed, report

        off_events, off_report = run(None)
        on_events, on_report = run(RecoveryConfig())
        # the acceptance bar: a fault-free run is event-for-event identical
        assert on_events == off_events
        assert on_report.media_bytes == off_report.media_bytes
        assert len(on_report.rendered) == len(off_report.rendered)
        assert on_report.rebuffer_count == off_report.rebuffer_count == 0
