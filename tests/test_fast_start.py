"""Fast Start is the server's grant (DESIGN.md §10).

Whenever a viewer's buffer is empty the server sends one preroll of
content at whatever the client link has to spare; no client asks for it.

* **the grant table** — factor = link bandwidth × 0.9 ÷ the session's
  bitrate after rendition selection, never below 1; under QoS admission
  no more than the session's own channel plus what nobody reserved;
  replica fills and broadcasts get none, and a viewer's request body
  cannot name one;
* **the burst fits the link** — nothing is tail-dropped at the default
  queue limit and the link is never asked for more than it carries;
* **equal clients share** — equal links and renditions mean equal
  grants, so a flash crowd still rides one pacing group at the event
  cost of real-time pacing;
* **the window is spent once per rebuffer** — play, seek and reconnect
  open a fresh one; pause → resume continues what was left (the drain
  hand-off case lives in ``test_edge_drain.py``);
* **fills are untouched** — a replica fill's bytes and train count are
  the parent commit's.
"""

import pytest

from repro.asf import ASFEncoder, EncoderConfig, slide_commands
from repro.asf.header import StreamProperties
from repro.media import AudioObject, ImageObject, VideoObject, get_profile
from repro.net import FaultInjector, FaultPlan
from repro.obs import TraceChecker, Tracer
from repro.streaming import (
    MediaPlayer,
    MediaServer,
    PlayerState,
    RecoveryConfig,
    build_edge_tier,
)
from repro.web import HTTPClient, VirtualNetwork

DURATION = 8.0
HEADROOM = 0.9
LINK = 2_000_000


def make_asf(duration=DURATION):
    return ASFEncoder(
        EncoderConfig(profile=get_profile("dsl-256k"))
    ).encode_file(
        file_id="lec",
        video=VideoObject("talk", duration, width=320, height=240, fps=10),
        audio=AudioObject("voice", duration),
        images=[(ImageObject("s0", duration, width=320, height=240), 0.0)],
        commands=slide_commands([("s0", 0.0)]),
    )


def mbr_asf():
    renditions = [
        get_profile(n) for n in ("modem-56k", "isdn-dual", "dsl-256k")
    ]
    return ASFEncoder(EncoderConfig(profile=renditions[-1])).encode_file_mbr(
        file_id="mbr",
        video=VideoObject("talk", DURATION, width=640, height=480, fps=25),
        renditions=renditions,
        audio=AudioObject("voice", DURATION),
    )


ASF = make_asf()
PREROLL = ASF.header.file_properties.preroll_ms / 1000.0
BITRATE = ASF.header.total_bitrate


def make_server(asf=ASF, *, clients=("c0",), bandwidth=LINK, tracer=None,
                **server_kwargs):
    net = VirtualNetwork()
    if tracer is not None:
        tracer.bind_clock(net.simulator)
    for name in clients:
        net.connect("server", name, bandwidth=bandwidth, delay=0.02)
    server = MediaServer(net, "server", tracer=tracer, **server_kwargs)
    server.publish("lecture", asf)
    return net, server


def play(server, client="c0", sink=None, **kwargs):
    deliver = sink.extend if sink is not None else (lambda packets: None)
    session = server.open_session("lecture", client, deliver)
    server.play(session.session_id, **kwargs)
    return session


def grant_of(session):
    return session._burst_factor, session._burst_window_ms


def session_bitrate(server, session):
    included = server.included_streams(session.session_id)
    return sum(
        s.bitrate for s in server.describe("lecture").streams
        if s.stream_number in included
    )


def sent_during(net, session, seconds):
    before = session.bytes_sent
    net.simulator.run_until(net.simulator.now + seconds)
    return session.bytes_sent - before


class TestGrantTable:
    @pytest.mark.parametrize("headroom", [0.8, 1.0, 1.5, 4.0, 8.0, 40.0])
    def test_factor_is_link_headroom_over_bitrate(self, headroom):
        net, server = make_server(bandwidth=headroom * BITRATE)
        factor, window_ms = grant_of(play(server))
        assert factor == pytest.approx(max(1.0, HEADROOM * headroom))
        # the grant never asks the link for more than it carries
        assert factor == 1.0 or factor * BITRATE <= headroom * BITRATE
        assert window_ms == (PREROLL * 1000.0 if factor > 1.0 else 0.0)

    @pytest.mark.parametrize("bandwidth", [60_000, 150_000, 400_000, LINK])
    def test_factor_divides_by_the_rendition_actually_sent(self, bandwidth):
        net, server = make_server(mbr_asf(), bandwidth=bandwidth)
        session = play(server)
        bitrate = session_bitrate(server, session)
        assert bitrate < server.describe("lecture").total_bitrate  # thinned
        factor, _ = grant_of(session)
        assert factor == pytest.approx(
            max(1.0, HEADROOM * bandwidth / bitrate)
        )

    def test_mbr_picks_differ_but_equal_picks_get_equal_grants(self):
        net = VirtualNetwork()
        for name, bandwidth in (("a", 400_000), ("b", 400_000), ("c", LINK)):
            net.connect("server", name, bandwidth=bandwidth, delay=0.02)
        server = MediaServer(net, "server")
        server.publish("lecture", mbr_asf())
        a, b, c = (play(server, name) for name in "abc")
        assert grant_of(a) == grant_of(b) != grant_of(c)
        assert a.pacing_group is b.pacing_group is not c.pacing_group

    def test_qos_grant_leaves_other_reservations_alone(self):
        net, server = make_server(qos_enabled=True)
        alone = play(server)
        assert grant_of(alone)[0] == pytest.approx(HEADROOM * LINK / BITRATE)
        # a second channel on the same link: the first session may burst
        # into what is unreserved plus its own channel, not into that one
        other = server.open_session("lecture", "c0", lambda packet: None)
        server.seek(alone.session_id, 2.0)
        assert grant_of(alone)[0] == pytest.approx(
            (HEADROOM * LINK - other.reservation.spec.bandwidth) / BITRATE
        )

    def test_replica_and_broadcast_sessions_are_ungranted(self):
        tracer = Tracer("ungranted")
        net, server = make_server(tracer=tracer)
        live = ASFEncoder(
            EncoderConfig(profile=get_profile("isdn-dual"))
        ).start_live(
            file_id="live",
            streams=[StreamProperties(1, "video", bitrate=100_000)],
        )
        server.publish("live", live.stream)
        replica = server.open_session(
            "lecture", "c0", lambda packet: None, replica=True
        )
        server.play(replica.session_id)
        watcher = server.open_session("live", "c0", lambda packet: None)
        server.play(watcher.session_id)
        assert grant_of(replica) == grant_of(watcher) == (1.0, 0.0)
        assert not tracer.events("faststart.grant")

    def test_only_a_replica_request_can_name_its_burst(self):
        net, server = make_server()
        http = HTTPClient(net, "c0")
        viewer = server.open_session("lecture", "c0", lambda packet: None)
        replica = server.open_session(
            "lecture", "c0", lambda packet: None, replica=True
        )
        for session in (viewer, replica):
            response = http.post(
                f"http://server:{server.port}/control/play",
                body={
                    "session_id": session.session_id,
                    "burst_factor": 50.0, "burst_seconds": 1.0,
                },
            )
            assert response.ok
        assert grant_of(replica) == (50.0, 1000.0)
        assert grant_of(viewer) == (
            pytest.approx(HEADROOM * LINK / BITRATE), PREROLL * 1000.0
        )


class TestBurstFitsTheLink:
    @pytest.mark.parametrize("quantum", [0.0, 0.5])
    @pytest.mark.parametrize("headroom", [1.5, 8.0, 40.0])
    def test_no_queue_drop_and_no_overrun(self, quantum, headroom):
        bandwidth = headroom * BITRATE
        net, server = make_server(bandwidth=bandwidth, pacing_quantum=quantum)
        link = net.link("server", "c0")
        got = []
        session = play(server, sink=got)
        burst_s = PREROLL / session._burst_factor
        deepest = 0
        while net.simulator.now < burst_s + 0.5:
            net.simulator.run_until(net.simulator.now + 0.01)
            elapsed = net.simulator.now
            assert link.stats.bytes_delivered * 8 <= bandwidth * elapsed
            deepest = max(deepest, link.queue_depth)
        # the whole preroll is across well before real time would have
        # sent it, without ever filling the default 64-message queue
        assert got[-1].send_time_ms >= PREROLL * 1000.0
        assert link.stats.dropped_queue == 0
        assert deepest < link.queue_limit // 4

    def test_a_message_never_carries_more_media_than_at_real_time(self):
        """A train is the loss unit: bursting must not coarsen it."""

        def train_spans(**kwargs):
            tracer = Tracer("trains")
            net, server = make_server(tracer=tracer, pacing_quantum=0.5)
            by_seq = {p.sequence: p.send_time_ms for p in ASF.packets}
            play(server, **kwargs)
            net.simulator.run()
            return [
                (r["attrs"]["first_seq"], r["attrs"]["last_seq"])
                for r in tracer.records if r["name"] == "packet.train"
            ], by_seq

        granted, send_ms = train_spans()
        realtime, _ = train_spans(burst_factor=1.0)
        assert granted == realtime
        assert all(send_ms[last] - send_ms[first] <= 500
                   for first, last in granted)


class TestEqualClientsShare:
    def test_flash_crowd_rides_one_group_at_real_time_event_cost(self):
        clients = [f"c{i}" for i in range(32)]

        def events_for(**kwargs):
            net, server = make_server(clients=clients, pacing_quantum=0.25)
            sessions = [play(server, name, **kwargs) for name in clients]
            assert len({id(s.pacing_group) for s in sessions}) == 1
            assert len(server._groups) == 1
            net.simulator.run()
            assert all(s.packets_sent == len(ASF.packets) for s in sessions)
            return net.simulator.events_processed, sessions[0]._burst_factor

        granted, factor = events_for()
        realtime, _ = events_for(burst_factor=1.0)
        assert factor > 1.0
        # media-bounded trains: the same messages leave, only sooner
        assert granted == realtime

    def test_staggered_players_on_an_edge_share_the_grant(self):
        net = VirtualNetwork()
        origin = MediaServer(net, "origin", pacing_quantum=0.5)
        origin.publish("lecture", ASF)
        directory, (edge,) = build_edge_tier(
            net, origin, ["edge0"], pacing_quantum=0.5, join_quantum=1.0
        )
        edge.prefetch("lecture")
        net.simulator.run_until(1.0)  # four plays land before t=2
        players, groups = [], set()
        for i in range(4):
            net.connect("edge0", f"v{i}", bandwidth=LINK, delay=0.02)
            player = MediaPlayer(net, f"v{i}")
            player.connect(directory.url_for(f"v{i}", "lecture"))
            player.play()
            players.append(player)
            # the play started at once: the session already rides a group
            (session,) = [
                s for s in edge.sessions.sessions_for_point("lecture")
                if s.client_host == f"v{i}"
            ]
            assert session.pacing_group is not None
            groups.add(id(session.pacing_group))
        # staggered viewers still share one group: the later three joined
        # the first one's in progress
        assert len(groups) == 1 and net.simulator.now < 2.0
        sessions = edge.sessions.sessions_for_point("lecture")
        viewers = [s for s in sessions if not s.replica]
        assert len(viewers) == 4
        assert viewers[0]._burst_factor == pytest.approx(
            HEADROOM * LINK / BITRATE
        )
        for player in players:
            report = player.run_until_finished()
            assert report.rebuffer_count == 0
            # no quantum of waiting: the burst (or the catch-up) at once
            assert report.startup_latency < PREROLL / 2


class TestWindowSpentOncePerRebuffer:
    def test_pause_resume_sends_only_the_remainder(self):
        tracer = Tracer("pause")
        net, server = make_server(tracer=tracer, pacing_quantum=0.1)
        session = play(server)
        factor = session._burst_factor
        net.simulator.run_until(0.2)
        server.pause(session.session_id)
        spent_ms = ASF.packets[session.packet_cursor].send_time_ms
        assert 0 < spent_ms < PREROLL * 1000.0  # paused mid-window
        assert grant_of(session) == (factor, PREROLL * 1000.0 - spent_ms)
        net.simulator.run_until(5.0)
        server.resume(session.session_id)
        resumed = sent_during(net, session, 0.5)
        # a restarted window would send a whole preroll again; the
        # remainder plus real-time pacing is far less
        fresh_net, fresh_server = make_server(pacing_quantum=0.1)
        fresh = sent_during(fresh_net, play(fresh_server), 0.5)
        assert resumed < 0.75 * fresh
        media_ms = (
            ASF.packets[session.packet_cursor].send_time_ms - spent_ms
        )
        assert media_ms <= (PREROLL * 1000.0 - spent_ms) + 500 + 100
        # ...and the rest of the window did go at burst speed
        assert media_ms > 2 * 500
        # once spent, a second pause/resume is plain real-time pacing
        server.pause(session.session_id)
        assert grant_of(session) == (1.0, 0.0)
        server.resume(session.session_id)
        assert sent_during(net, session, 0.5) <= BITRATE / 8 * 0.5 * 1.5
        net.simulator.run()
        server.close_session(session.session_id)
        grants = [g["attrs"] for g in tracer.events("faststart.grant")]
        assert [g["reason"] for g in grants] == ["play", "resume"]
        assert grants[1]["window_ms"] == PREROLL * 1000.0 - spent_ms
        TraceChecker(tracer.records).assert_ok()

    def test_seek_gets_a_fresh_window(self):
        asf = make_asf(20.0)
        bitrate = asf.header.total_bitrate
        net, server = make_server(asf)
        player = MediaPlayer(net, "c0")
        player.connect(server.url_of("lecture"))
        player.play()
        net.simulator.wait(lambda: player.state is PlayerState.PLAYING)
        net.simulator.run_until(net.simulator.now + 4.0)  # window long spent
        session = server.sessions.get(player.session_id)
        assert sent_during(net, session, 0.5) <= bitrate / 8 * 0.5 * 1.5
        asked = net.simulator.now
        player.seek(12.0)
        assert grant_of(session) == (
            pytest.approx(HEADROOM * LINK / bitrate), PREROLL * 1000.0
        )
        assert net.simulator.wait(
            lambda: player.state is PlayerState.PLAYING
        )
        assert net.simulator.now - asked < PREROLL / 2
        report = player.run_until_finished()
        assert report.rebuffer_count == 0

    def test_seek_while_paused_spends_its_window_on_resume(self):
        net, server = make_server()
        session = play(server)
        net.simulator.run_until(4.0)
        server.pause(session.session_id)
        assert grant_of(session) == (1.0, 0.0)
        server.seek(session.session_id, 5.0)
        assert grant_of(session)[1] == PREROLL * 1000.0
        assert sent_during(net, session, 0.5) == 0  # still paused
        server.resume(session.session_id)
        assert sent_during(net, session, 0.5) > 3 * BITRATE / 8 * 0.5

    def test_crash_reconnect_gets_a_fresh_window(self):
        tracer = Tracer("reconnect")
        net, server = make_server(make_asf(20.0), tracer=tracer)
        FaultInjector(net, servers={"media": server}).apply(
            FaultPlan("crash").server_crash("media", at=4.0, restart_at=9.0)
        )
        player = MediaPlayer(
            net, "c0", recovery=RecoveryConfig(), tracer=tracer
        )
        player.connect(server.url_of("lecture"))
        player.play()
        report = player.run_until_finished()
        assert report.recovery.get("reconnects", 0) == 1
        assert report.rebuffer_count == 1  # the outage outlasted the buffer
        (reconnected,) = tracer.events("playback.reconnect")
        (refilled,) = tracer.events("rebuffer.end")
        assert 0 < refilled["t"] - reconnected["t"] < PREROLL / 2
        grants = [g["attrs"] for g in tracer.events("faststart.grant")]
        assert [(g["reason"], g["window_ms"]) for g in grants] == [
            ("play", PREROLL * 1000.0)
        ] * 2
        assert len({g["session"] for g in grants}) == 2
        TraceChecker(tracer.records).assert_ok()


class TestFillsUntouched:
    def test_replica_fill_bytes_and_trains_are_the_parents(self):
        """Pinned at the parent commit (PR 16): a 64x fill stays one big
        send-time-bounded train."""
        tracer = Tracer("fill")
        net = VirtualNetwork()
        tracer.bind_clock(net.simulator)
        origin = MediaServer(
            net, "origin", pacing_quantum=0.5, tracer=tracer,
            trace_label="origin",
        )
        origin.publish("lecture", ASF)
        _, (edge,) = build_edge_tier(net, origin, ["edge0"], pacing_quantum=0.5)
        edge.prefetch("lecture")
        assert origin.bytes_served == 274_050
        assert len(tracer.events("packet.train")) == 1
        assert not tracer.events("faststart.grant")
