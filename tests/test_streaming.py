"""Unit tests for the streaming layer: buffer, sessions, server, player."""

import pytest

from repro.asf import (
    ASFEncoder,
    EncoderConfig,
    LicenseServer,
    MediaUnit,
    ScriptCommand,
    slide_commands,
)
from repro.asf.drm import DRMError
from repro.asf.header import StreamProperties
from repro.media import AudioObject, ImageObject, VideoObject, get_profile
from repro.media.clock import media_ms
from repro.net.qos import QoSError
from repro.streaming import (
    JitterBuffer,
    MediaPlayer,
    MediaServer,
    PlayerError,
    PlayerState,
    PublishError,
    SessionError,
    SessionState,
    SessionTable,
)
from repro.web import VirtualNetwork

PROFILE = get_profile("dsl-256k")


def make_asf(duration=20.0, slides=2, license_server=None):
    encoder = ASFEncoder(EncoderConfig(profile=PROFILE))
    per_slide = duration / slides
    return encoder.encode_file(
        file_id="lec",
        video=VideoObject("talk", duration, width=320, height=240, fps=10),
        audio=AudioObject("voice", duration),
        images=[
            (ImageObject(f"s{i}", per_slide, width=320, height=240), i * per_slide)
            for i in range(slides)
        ],
        commands=slide_commands([(f"s{i}", i * per_slide) for i in range(slides)]),
        license_server=license_server,
    )


def make_world(asf=None, *, bandwidth=2_000_000, delay=0.02, loss=0.0,
               qos_enabled=False, seedling=0):
    net = VirtualNetwork()
    net.connect("server", "student", bandwidth=bandwidth, delay=delay,
                loss_rate=loss)
    server = MediaServer(net, "server", port=8080, qos_enabled=qos_enabled)
    server.publish("lecture1", asf or make_asf())
    return net, server


class TestJitterBuffer:
    def unit(self, stream, number, ts_ms, size=10):
        return MediaUnit(stream, number, ts_ms, True, b"x" * size)

    def test_pop_due_in_timestamp_order(self):
        buffer = JitterBuffer()
        buffer.push(self.unit(1, 1, 200))
        buffer.push(self.unit(1, 0, 100))
        due = buffer.pop_due_ms(media_ms(0.5))
        assert [u.timestamp_ms for u in due] == [100, 200]

    def test_pop_due_respects_position(self):
        buffer = JitterBuffer()
        buffer.push(self.unit(1, 0, 100))
        buffer.push(self.unit(1, 1, 900))
        assert len(buffer.pop_due_ms(media_ms(0.5))) == 1
        assert len(buffer) == 1

    def test_depth_min_across_streams(self):
        buffer = JitterBuffer()
        buffer.push(self.unit(1, 0, 5_000))
        buffer.push(self.unit(2, 0, 2_000))
        assert buffer.depth(1.0, [1, 2]) == pytest.approx(1.0)

    def test_depth_missing_stream_is_zero(self):
        buffer = JitterBuffer()
        buffer.push(self.unit(1, 0, 5_000))
        assert buffer.depth(0.0, [1, 2]) == 0.0

    def test_depth_never_negative(self):
        buffer = JitterBuffer()
        buffer.push(self.unit(1, 0, 1_000))
        assert buffer.depth(5.0, [1]) == 0.0

    def test_clear(self):
        buffer = JitterBuffer()
        buffer.push(self.unit(1, 0, 100))
        buffer.clear()
        assert len(buffer) == 0


class TestSessionTable:
    def test_lifecycle(self):
        table = SessionTable()
        session = table.create("p", "host", lambda pkt: None, broadcast=False)
        assert session.state is SessionState.CONNECTING
        # pacing state is declared, not grown by the first play()
        assert (session._burst_factor, session._burst_window_ms) == (1.0, 0.0)
        session.transition(SessionState.STREAMING)
        session.transition(SessionState.PAUSED)
        session.transition(SessionState.STREAMING)
        session.transition(SessionState.FINISHED)
        table.close(session.session_id)
        assert len(table) == 0

    def test_illegal_transition(self):
        table = SessionTable()
        session = table.create("p", "host", lambda pkt: None, broadcast=False)
        with pytest.raises(SessionError):
            session.transition(SessionState.PAUSED)

    def test_unknown_session(self):
        with pytest.raises(SessionError):
            SessionTable().get(42)

    def test_active_index_follows_transitions(self):
        table = SessionTable()
        a = table.create("p", "h", lambda pkt: None, broadcast=False)
        b = table.create("p", "h", lambda pkt: None, broadcast=False)
        assert list(table._active.values()) == []  # CONNECTING is not active
        a.transition(SessionState.STREAMING)
        b.transition(SessionState.STREAMING)
        b.transition(SessionState.PAUSED)
        assert {s.session_id for s in list(table._active.values())} == {
            a.session_id, b.session_id
        }
        a.transition(SessionState.FINISHED)
        assert [s.session_id for s in list(table._active.values())] == [b.session_id]
        table.close(b.session_id)
        assert list(table._active.values()) == []

    def test_point_index_follows_lifecycle(self):
        table = SessionTable()
        a = table.create("p1", "h", lambda pkt: None, broadcast=False)
        b = table.create("p2", "h", lambda pkt: None, broadcast=False)
        c = table.create("p1", "h", lambda pkt: None, broadcast=False)
        assert {s.session_id for s in table.sessions_for_point("p1")} == {
            a.session_id, c.session_id
        }
        assert [s.session_id for s in table.sessions_for_point("p2")] == [
            b.session_id
        ]
        table.close(a.session_id)
        assert [s.session_id for s in table.sessions_for_point("p1")] == [
            c.session_id
        ]
        assert table.sessions_for_point("nowhere") == []

    def test_sessions_for_point(self):
        table = SessionTable()
        table.create("a", "h1", lambda pkt: None, broadcast=False)
        table.create("b", "h2", lambda pkt: None, broadcast=False)
        assert len(table.sessions_for_point("a")) == 1


class TestServer:
    def test_duplicate_publish_rejected(self):
        net, server = make_world()
        with pytest.raises(PublishError):
            server.publish("lecture1", make_asf())

    def test_url_of(self):
        net, server = make_world()
        assert server.url_of("lecture1") == "http://server:8080/lod/lecture1"
        with pytest.raises(PublishError):
            server.url_of("nope")

    def test_describe_unknown_point_404(self):
        net, server = make_world()
        from repro.web import HTTPClient

        client = HTTPClient(net, "student")
        assert client.get("http://server:8080/lod/none").status == 404

    def test_unpublish_closes_sessions(self):
        net, server = make_world()
        session = server.open_session("lecture1", "student", lambda pkt: None)
        server.unpublish("lecture1")
        with pytest.raises(SessionError):
            server.sessions.get(session.session_id)

    def test_seek_broadcast_rejected(self):
        net, server = make_world()
        encoder = ASFEncoder(EncoderConfig(profile=PROFILE))
        live = encoder.start_live(
            file_id="live",
            streams=[StreamProperties(1, "video", bitrate=100_000)],
        )
        server.publish("livepoint", live.stream)
        session = server.open_session("livepoint", "student", lambda pkt: None)
        server.play(session.session_id)
        with pytest.raises(SessionError):
            server.seek(session.session_id, 5.0)


class TestPlayback:
    def test_full_playback_no_loss(self):
        net, server = make_world()
        player = MediaPlayer(net, "student")
        report = player.watch(server.url_of("lecture1"))
        assert player.state is PlayerState.FINISHED
        assert report.rebuffer_count == 0
        assert report.duration_watched == pytest.approx(20.0, abs=0.2)
        assert all(rate == 0.0 for rate in report.loss_rates.values())

    def test_startup_latency_near_preroll(self):
        """Startup is the handshake plus the preroll at the granted rate
        — the link's bandwidth less 10 % headroom — never less: the
        grant cannot beat the link."""
        asf = make_asf()
        net, server = make_world(asf)
        report = MediaPlayer(net, "student").watch(server.url_of("lecture1"))
        preroll = asf.header.file_properties.preroll_ms / 1000.0
        granted_rate = 0.9 * net.link("server", "student").bandwidth
        burst = preroll * asf.header.total_bitrate / granted_rate
        assert burst < preroll / 4
        assert burst <= report.startup_latency <= burst + 1.0

    def test_slides_fire_at_commanded_times(self):
        net, server = make_world()
        player = MediaPlayer(net, "student")
        report = player.watch(server.url_of("lecture1"))
        slides = report.slide_changes()
        assert [c.command.parameter for c in slides] == ["s0", "s1"]
        assert report.max_command_sync_error <= 2 * MediaPlayer.RENDER_TICK

    def test_rendered_units_cover_all_streams(self):
        net, server = make_world()
        player = MediaPlayer(net, "student")
        report = player.watch(server.url_of("lecture1"))
        streams = {r.unit.stream_number for r in report.rendered}
        assert {1, 2, 3} <= streams

    def test_lossy_link_reports_loss(self):
        net, server = make_world(loss=0.05)
        player = MediaPlayer(net, "student")
        report = player.watch(server.url_of("lecture1"))
        assert any(rate > 0 for rate in report.loss_rates.values())

    def test_slow_link_causes_rebuffering(self):
        # stream needs ~260kbps; give it less
        net, server = make_world(bandwidth=180_000)
        player = MediaPlayer(net, "student")
        report = player.watch(server.url_of("lecture1"), )
        assert report.rebuffer_count > 0
        assert report.rebuffer_time > 0

    def test_start_midway(self):
        net, server = make_world()
        player = MediaPlayer(net, "student")
        assert player._pending_catchup is False  # declared before any play()
        player.connect(server.url_of("lecture1"))
        player.play(start=10.0)
        assert player._pending_catchup is True
        report = player.run_until_finished()
        assert player._pending_catchup is False
        positions = [r.position for r in report.rendered]
        assert min(positions) >= 9.0  # nothing from the first slide segment

    def test_clean_mid_start_reports_no_loss(self):
        # the content before the start was never asked for, so not lost
        net, server = make_world()
        player = MediaPlayer(net, "student")
        player.connect(server.url_of("lecture1"))
        player.play(start=10.0)
        report = player.run_until_finished()
        assert report.loss_rates and set(report.loss_rates.values()) == {0.0}

    def test_clean_seek_reports_no_loss(self):
        # neither the skipped span nor the objects a seek cut mid-way
        net, server = make_world()
        player = MediaPlayer(net, "student")
        player.connect(server.url_of("lecture1"))
        player.play()
        net.simulator.wait(
            lambda: player.state is PlayerState.PLAYING and player.position >= 5.0
        )
        player.seek(15.0)
        report = player.run_until_finished()
        assert report.loss_rates and set(report.loss_rates.values()) == {0.0}

    def test_double_connect_rejected(self):
        net, server = make_world()
        player = MediaPlayer(net, "student")
        player.connect(server.url_of("lecture1"))
        with pytest.raises(PlayerError):
            player.connect(server.url_of("lecture1"))

    def test_play_without_connect_rejected(self):
        net, server = make_world()
        player = MediaPlayer(net, "student")
        with pytest.raises(PlayerError):
            player.play()

    def test_bad_sync_mode_rejected(self):
        net, server = make_world()
        with pytest.raises(PlayerError):
            MediaPlayer(net, "student", sync_mode="psychic")


class TestInteractivePlayback:
    def drive_to_playing(self, net, player, server):
        player.connect(server.url_of("lecture1"))
        player.play()
        while player.state is not PlayerState.PLAYING:
            net.simulator.step()
        return player

    def test_pause_resume(self):
        net, server = make_world()
        player = self.drive_to_playing(net, MediaPlayer(net, "student"), server)
        net.simulator.run_until(net.simulator.now + 2)
        player.pause()
        paused_at = player.position
        net.simulator.run_until(net.simulator.now + 5)
        assert player.position == pytest.approx(paused_at, abs=0.01)
        player.resume()
        report = player.run_until_finished()
        assert report.duration_watched == pytest.approx(20.0, abs=0.2)

    def test_pause_from_wrong_state(self):
        net, server = make_world()
        player = MediaPlayer(net, "student")
        with pytest.raises(PlayerError):
            player.pause()

    def test_seek_forward(self):
        net, server = make_world()
        player = self.drive_to_playing(net, MediaPlayer(net, "student"), server)
        net.simulator.run_until(net.simulator.now + 1)
        player.seek(15.0)
        report = player.run_until_finished()
        # after the seek the player replays the active slide (catch-up)
        replayed = [c for c in report.slide_changes() if c.command.parameter == "s1"]
        assert replayed
        assert report.duration_watched == pytest.approx(20.0, abs=0.2)

    def test_seek_is_not_an_underrun(self):
        net, server = make_world()
        player = self.drive_to_playing(net, MediaPlayer(net, "student"), server)
        net.simulator.run_until(net.simulator.now + 1)
        player.seek(12.0)
        report = player.run_until_finished()
        assert report.rebuffer_count == 0

    def test_stop_mid_playback(self):
        net, server = make_world()
        player = self.drive_to_playing(net, MediaPlayer(net, "student"), server)
        net.simulator.run_until(net.simulator.now + 2)
        player.stop()
        assert player.state is PlayerState.FINISHED


class TestDRMPlayback:
    def test_entitled_user_plays(self):
        licenses = LicenseServer()
        asf = make_asf(license_server=licenses)
        net, server = make_world(asf)
        licenses.entitle("lec", "student")
        player = MediaPlayer(net, "student", license_server=licenses)
        report = player.watch(server.url_of("lecture1"))
        assert report.duration_watched == pytest.approx(20.0, abs=0.2)

    def test_unentitled_user_refused(self):
        licenses = LicenseServer()
        asf = make_asf(license_server=licenses)
        net, server = make_world(asf)
        player = MediaPlayer(net, "student", license_server=licenses)
        with pytest.raises(DRMError):
            player.connect(server.url_of("lecture1"))

    def test_player_without_license_server_refused(self):
        licenses = LicenseServer()
        asf = make_asf(license_server=licenses)
        net, server = make_world(asf)
        player = MediaPlayer(net, "student")
        with pytest.raises(DRMError):
            player.connect(server.url_of("lecture1"))


class TestQoSAdmission:
    def test_admitted_within_capacity(self):
        net, server = make_world(qos_enabled=True, bandwidth=2_000_000)
        player = MediaPlayer(net, "student")
        report = player.watch(server.url_of("lecture1"))
        assert report.duration_watched > 19

    def test_over_subscription_rejected(self):
        # link fits one ~260kbps stream with 0.9 headroom, not three
        net, server = make_world(qos_enabled=True, bandwidth=600_000)
        server.open_session("lecture1", "student", lambda pkt: None)
        server.open_session("lecture1", "student", lambda pkt: None)
        with pytest.raises(QoSError):
            server.open_session("lecture1", "student", lambda pkt: None)
