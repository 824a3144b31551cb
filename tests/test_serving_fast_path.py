"""The encode-once/serve-many serving path.

Covers the shared-schedule pacing groups (sessions started together ride
one event chain), their pause/seek/close detachment semantics, the
event-driven broadcast fan-out (an idle live point schedules nothing),
and — the load-bearing property — that the fast path delivers packets
byte-identical to the seed's per-session walk, kept here as
:class:`SeedPacedServer`.
"""

import pytest

from repro.asf import ASFEncoder, EncoderConfig, slide_commands
from repro.asf.header import StreamProperties
from repro.asf.packets import MediaUnit
from repro.media import AudioObject, ImageObject, VideoObject, get_profile
from repro.streaming import MediaServer, PublishError, SessionState
from repro.streaming.recovery import NakRequest
from repro.streaming.server import _thin
from repro.web import VirtualNetwork

PROFILE = get_profile("dsl-256k")


class SeedPacedServer(MediaServer):
    """The seed's pacer: every session walks the point's packets on its
    own event chain, one event and one thinned copy per packet.

    The reference the shared pacing groups are checked against — same
    wire bytes, far fewer events. Its anchors and pending events live
    here, keyed by session id, not on the sessions.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pacing_handles = {}
        #: session id -> (wall instant, send time of the walk's first packet)
        self._anchors = {}

    def _join_group(self, session):
        asf = self._point(session.point).content
        if session.packet_cursor < len(asf.packets):
            base = asf.packets[session.packet_cursor].send_time_ms
        else:
            base = 0
        self._anchors[session.session_id] = (self.simulator.now, base)
        self._schedule_next_packet(session)

    def _leave_group(self, session):
        handle = self._pacing_handles.pop(session.session_id, None)
        if handle is not None:
            self.simulator.cancel(handle)
            self._carry_window(session, self._anchors[session.session_id][1])
        super()._leave_group(session)

    def _schedule_next_packet(self, session):
        point = self._point(session.point)
        asf = point.content
        if session.packet_cursor >= len(asf.packets):
            if session.state is SessionState.STREAMING:
                session.transition(SessionState.FINISHED)
            return
        packet = asf.packets[session.packet_cursor]
        origin, base = self._anchors[session.session_id]
        offset_ms = packet.send_time_ms - base
        burst = session._burst_factor
        window = session._burst_window_ms
        if burst > 1.0:
            if offset_ms <= window:
                offset_ms = offset_ms / burst
            else:
                offset_ms = window / burst + (offset_ms - window)
        offset = offset_ms / 1000.0

        def send():
            self._pacing_handles.pop(session.session_id, None)
            if session.state is not SessionState.STREAMING:
                return
            self._transmit(session, packet)
            session.packet_cursor += 1
            self._schedule_next_packet(session)

        at = origin + max(0.0, offset)
        self._pacing_handles[session.session_id] = self.simulator.schedule_at(
            max(at, self.simulator.now), send
        )

    def _transmit(self, session, packet):
        entry = _thin(packet, session.excluded_streams)
        if entry is None:
            return
        self._send_train(session, [entry[0]], entry[1])


def make_asf(duration=20.0, slides=2):
    encoder = ASFEncoder(EncoderConfig(profile=PROFILE))
    per_slide = duration / slides
    return encoder.encode_file(
        file_id="lec",
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


def make_server(asf, clients, server_class=MediaServer, **server_kwargs):
    net = VirtualNetwork()
    for name in clients:
        net.connect("server", name, bandwidth=2_000_000, delay=0.02)
    server = server_class(net, "server", port=8080, **server_kwargs)
    server.publish("lecture", asf)
    return net, server


def open_and_play(server, client, sink):
    session = server.open_session("lecture", client, sink.extend)
    server.play(session.session_id)
    return session


class TestPacingGroups:
    def test_same_instant_sessions_share_a_group(self):
        asf = make_asf()
        net, server = make_server(asf, ["c1", "c2"])
        a = open_and_play(server, "c1", [])
        b = open_and_play(server, "c2", [])
        assert a.pacing_group is not None
        assert a.pacing_group is b.pacing_group
        assert set(a.pacing_group.members) == {a.session_id, b.session_id}

    def test_staggered_sessions_get_separate_groups(self):
        asf = make_asf()
        net, server = make_server(asf, ["c1", "c2"])
        a = open_and_play(server, "c1", [])
        net.simulator.run_until(1.0)
        b = open_and_play(server, "c2", [])
        assert a.pacing_group is not b.pacing_group

    def test_group_event_count_is_shared(self):
        """N same-instant viewers add ~zero pacing events over one viewer."""
        asf = make_asf()

        def events_for(count):
            net, server = make_server(
                asf, [f"c{i}" for i in range(count)], pacing_quantum=0.25
            )
            sinks = [[] for _ in range(count)]
            for i in range(count):
                open_and_play(server, f"c{i}", sinks[i])
            net.simulator.run()
            assert all(len(s) == len(sinks[0]) for s in sinks)
            return net.simulator.events_processed

        def legacy_events_for(count):
            net, server = make_server(
                asf, [f"c{i}" for i in range(count)], SeedPacedServer
            )
            for i in range(count):
                open_and_play(server, f"c{i}", [])
            net.simulator.run()
            return net.simulator.events_processed

        # the seed walk's own counts, pinned so the reference cannot drift
        assert legacy_events_for(1) == 1_398
        assert legacy_events_for(8) == 11_184
        assert legacy_events_for(32) == 44_736
        one, eight = events_for(1), events_for(8)
        # link events scale with viewers; pacing events must not — so the
        # shared walk stays far below the legacy per-session event chains
        assert eight < legacy_events_for(8) * 0.5
        assert eight < one * 8
        # the headline the retired serving-scale bench carried: >= 5x
        # fewer events at 32 clients (18.8x at PR 1 with a 0.5 s quantum,
        # 46 368 -> 2 470; 8.8x at this test's 0.25 s)
        assert legacy_events_for(32) >= 5 * events_for(32)

    def test_pause_detaches_without_stopping_others(self):
        asf = make_asf()
        net, server = make_server(asf, ["c1", "c2"])
        got_a, got_b = [], []
        a = open_and_play(server, "c1", got_a)
        b = open_and_play(server, "c2", got_b)
        net.simulator.run_until(2.0)
        server.pause(a.session_id)
        assert a.pacing_group is None
        assert b.pacing_group is not None
        paused_count = len(got_a)
        net.simulator.run_until(6.0)
        assert len(got_a) == paused_count  # a frozen
        assert len(got_b) > paused_count  # b kept going

    def test_resume_rejoins_from_paused_cursor(self):
        asf = make_asf()
        net, server = make_server(asf, ["c1"])
        got = []
        session = open_and_play(server, "c1", got)
        net.simulator.run_until(2.0)
        server.pause(session.session_id)
        cursor = session.packet_cursor
        assert cursor > 0
        net.simulator.run_until(5.0)
        server.resume(session.session_id)
        net.simulator.run()
        assert session.state is SessionState.FINISHED
        sequences = [p.sequence for p in got]
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == len(asf.packets)  # nothing skipped

    def test_pause_after_delivery_finished_is_satisfied(self):
        """The client can still be rendering its buffer when the server's
        packet walk completes; a user pause then must not be an error."""
        asf = make_asf()
        net, server = make_server(asf, ["c1"])
        got = []
        session = open_and_play(server, "c1", got)
        net.simulator.run()
        assert session.state is SessionState.FINISHED
        delivered = len(got)
        server.pause(session.session_id)  # no-op, not a 409
        assert session.state is SessionState.FINISHED
        server.resume(session.session_id)  # replay-from-end, legal too
        net.simulator.run()
        assert session.state is SessionState.FINISHED
        assert len(got) == delivered  # cursor was at the end; nothing resent

    def test_close_mid_group_leaves_survivors_running(self):
        asf = make_asf()
        net, server = make_server(asf, ["c1", "c2"])
        got_b = []
        a = open_and_play(server, "c1", [])
        b = open_and_play(server, "c2", got_b)
        net.simulator.run_until(1.0)
        server.close_session(a.session_id)
        net.simulator.run()
        assert b.state is SessionState.FINISHED
        assert len({p.sequence for p in got_b}) == len(asf.packets)

    def test_quantum_validation(self):
        net = VirtualNetwork()
        net.connect("server", "c", bandwidth=1e6)
        with pytest.raises(PublishError):
            MediaServer(net, "server", pacing_quantum=-0.1)


class TestByteIdentity:
    @pytest.mark.parametrize("quantum", [0.0, 0.5])
    def test_fast_path_matches_legacy_bytes(self, quantum):
        """Same content, same wire bytes — fan-out sharing is invisible."""
        asf = make_asf()

        def delivered(**kwargs):
            net, server = make_server(asf, ["c1", "c2"], **kwargs)
            sinks = {name: [] for name in ("c1", "c2")}
            for name in sinks:
                open_and_play(server, name, sinks[name])
            net.simulator.run()
            return {
                name: b"".join(p.pack() for p in packets)
                for name, packets in sinks.items()
            }

        legacy = delivered(server_class=SeedPacedServer)
        fast = delivered(pacing_quantum=quantum)
        assert fast == legacy

    def test_fast_path_matches_legacy_with_burst(self):
        asf = make_asf()

        def delivered(**kwargs):
            net, server = make_server(asf, ["c1"], **kwargs)
            got = []
            session = server.open_session("lecture", "c1", got.extend)
            server.play(session.session_id, burst_factor=3.0,
                        burst_seconds=2.0)
            net.simulator.run()
            return [(p.sequence, p.pack()) for p in got]

        assert delivered() == delivered(server_class=SeedPacedServer)


class TestEventDrivenBroadcast:
    def make_live_server(self):
        from repro.lod import LiveCaptureSession

        net = VirtualNetwork()
        net.connect("server", "viewer", bandwidth=2e6, delay=0.02)
        server = MediaServer(net, "server", port=8080)
        capture = LiveCaptureSession(
            net.simulator, get_profile("isdn-dual"), chunk=0.5
        )
        return net, server, capture

    def test_idle_broadcast_point_schedules_nothing(self):
        """No viewers, no fresh packets -> no events: the old 50ms polling
        pump burned ~20 events/s whether or not anything happened."""
        net = VirtualNetwork()
        net.connect("server", "viewer", bandwidth=2e6)
        server = MediaServer(net, "server", port=8080)
        encoder = ASFEncoder(EncoderConfig(profile=get_profile("isdn-dual")))
        live = encoder.start_live(
            file_id="live",
            streams=[StreamProperties(1, "video", bitrate=100_000)],
        )
        server.publish("live", live.stream)
        before = net.simulator.events_processed
        net.simulator.run_until(10.0)
        assert net.simulator.events_processed == before

    def test_fanout_follows_capture(self):
        net, server, capture = self.make_live_server()
        server.publish("live", capture.stream)
        got = []
        session = server.open_session("live", "viewer", got.extend)
        server.play(session.session_id)
        net.simulator.run_until(3.0)
        mid = len(got)
        assert mid > 0
        net.simulator.run_until(6.0)
        assert len(got) > mid  # still flowing with the capture
        capture.finish()

    def test_unpublish_stops_future_fanout(self):
        net, server, capture = self.make_live_server()
        server.publish("live", capture.stream)
        got = []
        session = server.open_session("live", "viewer", got.extend)
        server.play(session.session_id)
        net.simulator.run_until(2.0)
        server.unpublish("live")
        net.simulator.run_until(2.5)  # drain packets already on the wire
        seen = len(got)
        net.simulator.run_until(5.0)
        assert len(got) == seen
        capture.finish()


class TestLiveSchedule:
    """A live MBR point thins through its schedule like a stored one."""

    def make_live_mbr(self):
        net = VirtualNetwork()
        for host in ("v1", "v2"):
            net.connect("server", host, bandwidth=200_000, delay=0.02)
        server = MediaServer(net, "server", port=8080)
        encoder = ASFEncoder(EncoderConfig(profile=get_profile("isdn-dual")))
        live = encoder.start_live(
            file_id="live-mbr",
            streams=[
                StreamProperties(1, "audio", bitrate=32_000),
                StreamProperties(
                    2, "video", bitrate=64_000, extra={"mbr_group": "video"}
                ),
                StreamProperties(
                    3, "video", bitrate=500_000, extra={"mbr_group": "video"}
                ),
            ],
        )
        server.publish("live", live.stream)
        sinks = {host: [] for host in ("v1", "v2")}
        sessions = {}
        for host, sink in sinks.items():
            sessions[host] = server.open_session("live", host, sink.extend)
            server.play(sessions[host].session_id)
        live.capture([
            MediaUnit(stream, t, t * 200, True, bytes([stream]) * 300)
            for t in range(10) for stream in (1, 2, 3)
        ])
        net.simulator.run()
        return net, server, live.stream, sessions, sinks

    def test_same_selection_shares_one_thinned_packet(self):
        net, server, stream, sessions, sinks = self.make_live_mbr()
        excluded = frozenset({3})  # 200 kb/s links fit the 64 kb/s video
        assert all(s.excluded_streams == excluded for s in sessions.values())
        reference = [
            entry for entry in (_thin(p, excluded) for p in stream.packets)
            if entry is not None
        ]
        # thinning really cut packets, not just withheld whole ones
        carried = [{x.stream_number for x in p.payloads} for p in stream.packets]
        assert any(3 in streams and len(streams) > 1 for streams in carried)
        got1, got2 = sinks["v1"], sinks["v2"]
        assert [p.pack() for p in got1] == [p.pack() for p, _ in reference]
        assert sessions["v1"].bytes_sent == sum(size for _, size in reference)
        assert len(got1) == len(got2)
        assert all(a is b for a, b in zip(got1, got2))

    def test_nak_repair_resends_the_fanned_out_packet(self):
        net, server, stream, sessions, sinks = self.make_live_mbr()
        got = sinks["v1"]
        lost = got[len(got) // 2]
        delivered = len(got)
        server._handle_nak(
            NakRequest(sessions["v1"].session_id, (lost.sequence,))
        )
        net.simulator.run()
        assert len(got) == delivered + 1
        assert got[-1] is lost
