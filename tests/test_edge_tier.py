"""The edge-relay tier end to end: coalescing, caching, teardown, parity.

Covers the tentpole contracts of ``repro.streaming.edge``:

* **request coalescing** — N clients behind one edge share exactly one
  origin replica session (including opens that land *during* the fill);
* **byte parity** — clients served through a relay receive exactly the
  packets a direct origin session would have sent;
* **packet-run caching** — a re-opened point refills from the local
  cache: origin data-path egress stays flat, the ``edge_cache`` counters
  show the hit; LRU + byte budget evict the coldest run;
* **two-hop teardown** — the last local client leaving closes the local
  point *and* the upstream origin session; QoS reservations on both
  hops drain (the satellite audit: an edge crash must not leak its
  origin-side sessions either — they settle at restart/shutdown);
* **join quantum** — staggered viewers start at once and merge into one
  shared pacing group (join in progress);
* **passthrough** — broadcast feeds, MBR thinning, and player recovery
  (NAK repair) all behave against a relay exactly as against the origin.
"""

import math

import pytest

from repro.asf import ASFEncoder, EncoderConfig, slide_commands
from repro.lod import LiveCaptureSession
from repro.media import AudioObject, ImageObject, VideoObject, get_profile
from repro.metrics.counters import get_counters, reset_counters
from repro.streaming import (
    EdgeRelay,
    MediaPlayer,
    PacketRunCache,
    PlayerState,
    RecoveryConfig,
    build_edge_tier,
)
from repro.streaming.server import MediaServer
from repro.web import VirtualNetwork

PROFILE = get_profile("dsl-256k")
DURATION = 8.0


def make_asf(file_id="lec", duration=DURATION):
    return ASFEncoder(EncoderConfig(profile=PROFILE)).encode_file(
        file_id=file_id,
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
        commands=slide_commands([("s0", 0.0)]),
    )


def make_world(asf=None, *, edges=1, clients=3, origin_qos=False, **relay_kwargs):
    reset_counters("edge_cache")
    net = VirtualNetwork()
    origin = MediaServer(
        net, "origin", port=8080, pacing_quantum=0.5, qos_enabled=origin_qos,
        trace_label="origin",
    )
    origin.publish("lecture", asf if asf is not None else make_asf())
    directory, relays = build_edge_tier(
        net, origin, [f"edge{i}" for i in range(edges)],
        pacing_quantum=0.5, **relay_kwargs,
    )
    for relay in relays:
        for c in range(clients):
            net.connect(relay.host, f"c{c}", bandwidth=2_000_000, delay=0.02)
    return net, origin, directory, relays


def blob_of(packets):
    return b"".join(p.pack() for p in packets)


class TestCoalescing:
    def test_sequential_clients_share_one_origin_session(self):
        net, origin, _, (edge,) = make_world()
        sinks = [[] for _ in range(3)]
        sessions = [
            edge.open_session("lecture", f"c{i}", sinks[i].extend)
            for i in range(3)
        ]
        for s in sessions:
            edge.play(s.session_id)
        net.simulator.run(max_events=1_000_000)
        assert origin.sessions.total_created == 1
        reference = blob_of(origin.points["lecture"].content.packets)
        for sink in sinks:
            assert blob_of(sink) == reference

    def test_opens_landing_mid_fill_ride_the_same_fill(self):
        net, origin, _, (edge,) = make_world()
        sinks = [[] for _ in range(3)]
        opened = []

        def open_one(i):
            session = edge.open_session("lecture", f"c{i}", sinks[i].extend)
            edge.play(session.session_id)
            opened.append(session.session_id)

        # all three opens dispatch at the same instant: the first blocks
        # re-entrantly inside its fill, the other two fire nested and must
        # wait on that fill instead of opening their own origin sessions
        for i in range(3):
            net.simulator.schedule(0.001, lambda i=i: open_one(i))
        net.simulator.run(max_events=1_000_000)
        assert len(opened) == 3
        assert origin.sessions.total_created == 1
        assert get_counters("edge_cache")["fills"] == 1
        reference = blob_of(origin.points["lecture"].content.packets)
        for sink in sinks:
            assert blob_of(sink) == reference

    def test_relay_parity_with_direct_origin_serving(self):
        asf = make_asf()
        # direct: origin serves the client itself
        direct_net = VirtualNetwork()
        direct_net.connect("origin", "c0", bandwidth=2_000_000, delay=0.02)
        direct = MediaServer(direct_net, "origin", port=8080,
                             pacing_quantum=0.5)
        direct.publish("lecture", asf)
        direct_sink = []
        session = direct.open_session("lecture", "c0", direct_sink.extend)
        direct.play(session.session_id)
        direct_net.simulator.run(max_events=1_000_000)

        net, origin, _, (edge,) = make_world(asf)
        relay_sink = []
        session = edge.open_session("lecture", "c0", relay_sink.extend)
        edge.play(session.session_id)
        net.simulator.run(max_events=1_000_000)
        assert blob_of(relay_sink) == blob_of(direct_sink)


class TestPacketRunCache:
    def test_refill_is_a_cache_hit_with_zero_origin_egress(self):
        net, origin, _, (edge,) = make_world()
        sink = []
        session = edge.open_session("lecture", "c0", sink.extend)
        edge.play(session.session_id)
        net.simulator.run(max_events=1_000_000)
        edge.close_session(session.session_id)
        assert "lecture" not in edge.points  # fully released
        fill_egress = origin.bytes_served
        counters = get_counters("edge_cache")
        assert counters["misses"] == 1 and counters["fills"] == 1

        sink2 = []
        session = edge.open_session("lecture", "c1", sink2.extend)
        edge.play(session.session_id)
        net.simulator.run(max_events=1_000_000)
        assert counters["hits"] == 1
        # the refill cost the origin a control-plane open, zero media bytes
        assert origin.bytes_served == fill_egress
        assert blob_of(sink2) == blob_of(sink)
        # and the origin still tracks exactly one (register-only) session
        assert len(origin.sessions) == 1

    def test_two_waves_over_eight_edges_cost_one_fill_per_edge(self):
        """64 staggered viewers x 2 waves: the origin pays one fill per
        edge, and the tier runs fewer events than direct serving."""
        edges, clients = 8, 64
        asf = make_asf()

        def two_waves(net, server_for):
            for _ in range(2):
                sessions = []

                def opener(name):
                    server = server_for(name)
                    session = server.open_session("lecture", name, [].extend)
                    server.play(session.session_id)
                    sessions.append((server, session.session_id))

                base = net.simulator.now
                for i in range(clients):
                    net.simulator.schedule_at(
                        base + 0.015 * (i + 1), lambda n=f"c{i}": opener(n)
                    )
                net.simulator.run(max_events=1_000_000)
                for server, session_id in sessions:
                    server.close_session(session_id)
            return net.simulator.events_processed

        direct_net = VirtualNetwork()
        for i in range(clients):
            direct_net.connect("origin", f"c{i}", bandwidth=2_000_000, delay=0.02)
        direct = MediaServer(direct_net, "origin", port=8080, pacing_quantum=0.5)
        direct.publish("lecture", asf)
        direct_events = two_waves(direct_net, lambda name: direct)

        net, origin, directory, relays = make_world(
            asf, edges=edges, clients=clients, join_quantum=0.5
        )
        for relay in relays:
            relay.prefetch("lecture")
        one_fill = sum(map(len, asf.packed_packets()))
        by_name = {relay.name: relay for relay in relays}
        tier_events = two_waves(
            net, lambda name: by_name[directory.place(f"{name}|lecture")]
        )
        # both waves were served off the packet-run caches: 16x less origin
        # egress than direct serving (the retired edge-scale bench's figure
        # at PR 5: 64 clients x 2 waves / 8 edges)
        assert origin.bytes_served == edges * one_fill
        assert direct.bytes_served == 2 * clients * one_fill
        # join_quantum groups staggered viewers the origin never could
        # (11 842 < 14 720 at PR 5 on a 20 s lecture)
        assert tier_events < direct_events

    def test_seek_replay_served_from_local_buffer(self):
        net, origin, _, (edge,) = make_world()
        sink = []
        session = edge.open_session("lecture", "c0", sink.extend)
        edge.play(session.session_id)
        net.simulator.run(max_events=1_000_000)
        after_fill = origin.bytes_served
        served_once = len(sink)
        edge.seek(session.session_id, 0.0)  # replay from the top
        net.simulator.run(max_events=1_000_000)
        assert len(sink) > served_once  # the replay actually re-delivered
        assert origin.bytes_served == after_fill  # ...without origin help

    def test_lru_eviction_respects_byte_budget(self):
        first = make_asf("lec-a")
        second = make_asf("lec-b")
        size = len(first.header.pack()) + first.data_size()
        reset_counters("edge_cache")
        cache = PacketRunCache(max_bytes=int(size * 1.5))
        cache.store(first.fingerprint(), first)
        cache.store(second.fingerprint(), second)
        counters = get_counters("edge_cache")
        assert counters["evictions"] == 1
        assert first.fingerprint() not in cache
        assert cache.lookup(second.fingerprint()) is second
        assert cache.bytes_cached <= cache.max_bytes

    def test_lru_order_follows_use_not_insertion(self):
        reset_counters("edge_cache")
        a, b = make_asf("lec-a"), make_asf("lec-b")
        cache = PacketRunCache(max_bytes=10**9)
        cache.store(a.fingerprint(), a)
        cache.store(b.fingerprint(), b)
        cache.lookup(a.fingerprint())  # touch a: b becomes coldest
        assert cache.keys()[0] == b.fingerprint()


class TestTwoHopTeardown:
    def test_last_client_out_closes_the_upstream_session(self):
        net, origin, _, (edge,) = make_world(origin_qos=True)
        sinks = [[] for _ in range(2)]
        sessions = [
            edge.open_session("lecture", f"c{i}", sinks[i].extend)
            for i in range(2)
        ]
        assert len(origin.sessions) == 1
        edge.close_session(sessions[0].session_id)
        # one local client remains: the upstream session must survive
        assert len(origin.sessions) == 1
        assert "lecture" in edge.points
        edge.close_session(sessions[1].session_id)
        assert len(origin.sessions) == 0
        assert "lecture" not in edge.points
        origin.assert_no_qos_leaks()
        edge.assert_no_qos_leaks()
        origin.sessions.assert_consistent()
        edge.sessions.assert_consistent()

    def test_edge_crash_orphans_settle_at_restart(self):
        net, origin, _, (edge,) = make_world(origin_qos=True)
        sink = []
        session = edge.open_session("lecture", "c0", sink.extend)
        edge.play(session.session_id)
        net.simulator.run_until(net.simulator.now + 1.0)
        edge.crash()
        # the audit's leak: the edge died before closing its origin-side
        # replica session — the origin still holds it (and its QoS channel)
        assert len(origin.sessions) == 1
        assert edge._orphan_upstream
        edge.restart()
        net.simulator.run(max_events=100_000)
        assert len(origin.sessions) == 0
        assert not edge._orphan_upstream
        origin.assert_no_qos_leaks()
        edge.assert_no_qos_leaks()
        origin.sessions.assert_consistent()
        edge.sessions.assert_consistent()

    def test_shutdown_sweeps_everything(self):
        net, origin, _, (edge,) = make_world(origin_qos=True)
        for i in range(2):
            s = edge.open_session("lecture", f"c{i}", [].extend)
            edge.play(s.session_id)
        net.simulator.run_until(net.simulator.now + 0.5)
        edge.shutdown()
        assert len(edge.sessions) == 0 and not edge.points
        assert len(origin.sessions) == 0
        origin.assert_no_qos_leaks()
        edge.assert_no_qos_leaks()


class TestJoinQuantum:
    def test_staggered_clients_share_one_pacing_group(self):
        net, origin, _, (edge,) = make_world(join_quantum=0.5)
        edge.prefetch("lecture")
        sinks = [[] for _ in range(3)]
        sessions = []

        def open_at(i):
            session = edge.open_session("lecture", f"c{i}", sinks[i].extend)
            edge.play(session.session_id)
            # no deferral: the play starts at once, the latecomers by
            # joining the first one's group in progress
            assert session.pacing_group is not None
            sessions.append(session)

        # three plays 20 ms apart inside one quantum [base, base + 0.5)
        base = math.ceil(net.simulator.now / 0.5) * 0.5
        for i in range(3):
            net.simulator.schedule_at(base + 0.02 * (i + 1), lambda i=i: open_at(i))
        net.simulator.run_until(base + 0.1)
        # every session rides the same pacing group (one event chain for
        # all three), and the group's walk is past its first train
        groups = {id(s.pacing_group) for s in sessions}
        assert len(sessions) == 3
        assert len(groups) == 1
        assert sessions[0].pacing_group.cursor > 0
        net.simulator.run(max_events=1_000_000)
        reference = blob_of(origin.points["lecture"].content.packets)
        for sink in sinks:
            assert blob_of(sink) == reference

    def test_zero_quantum_plays_immediately(self):
        net, origin, _, (edge,) = make_world(join_quantum=0.0)
        edge.prefetch("lecture")
        sink = []
        session = edge.open_session("lecture", "c0", sink.extend)
        edge.play(session.session_id)
        assert session.pacing_group is not None  # no deferral


class TestPassthrough:
    def test_player_watches_through_the_edge(self):
        net, origin, directory, (edge,) = make_world()
        net.connect("edge0", "student", bandwidth=2_000_000, delay=0.02)
        player = MediaPlayer(net, "student")
        report = player.watch(directory.url_for("student", "lecture"))
        assert player.state is PlayerState.FINISHED
        assert report.rendered and not report.rebuffer_count
        assert all(rate == 0.0 for rate in report.loss_rates.values())

    def test_mbr_thinning_happens_at_the_edge(self):
        asf = mbr_asf()
        net, origin, directory, (edge,) = make_world(asf)
        # a narrow last mile forces the edge to pick a low rendition,
        # while the edge itself was filled with the full packet run
        net.connect("edge0", "student", bandwidth=150_000, delay=0.02)
        player = MediaPlayer(net, "student")
        player.connect(directory.url_for("student", "lecture"))
        player.play()
        net.simulator.run_until(net.simulator.now + 40.0)
        if player.state is not PlayerState.FINISHED:
            player.stop()
        renditions = asf.header.mbr_group("video")
        highest = max(renditions, key=lambda s: s.bitrate)
        # dsl-256k cannot fit a 150 kbps last mile: the *edge* must have
        # run rendition selection, not just proxied the origin's choice
        assert player.selected_video != highest.stream_number
        # the replica fill was NOT thinned: the edge holds every rendition
        local = edge.cache.lookup(asf.fingerprint())
        assert local is not None and blob_of(local.packets) == blob_of(asf.packets)

    def test_nak_repair_on_the_edge_last_mile(self):
        net, origin, directory, (edge,) = make_world()
        net.connect("edge0", "student", bandwidth=2_000_000, delay=0.02)
        downlink = net.link("edge0", "student")
        downlink.rng.seed(1234)
        edge.prefetch("lecture")
        after_fill = origin.bytes_served
        downlink.set_loss(loss_rate=0.05)
        player = MediaPlayer(net, "student", recovery=RecoveryConfig())
        player.connect(directory.url_for("student", "lecture"))
        player.play()
        net.simulator.run_until(net.simulator.now + 40.0)
        if player.state is not PlayerState.FINISHED:
            player.stop()
        report = player.report()
        # losses on the last mile repaired by the *edge's* packet cache
        assert report.recovery.get("naks_sent", 0) > 0
        assert edge.recovery_stats["repairs_sent"] > 0
        assert all(rate == 0.0 for rate in report.loss_rates.values())
        assert origin.bytes_served == after_fill

    def test_broadcast_passes_through_the_relay(self):
        net = VirtualNetwork()
        origin = MediaServer(net, "origin", port=8080)
        capture = LiveCaptureSession(
            net.simulator, get_profile("isdn-dual"), chunk=0.5
        )
        origin.publish("live", capture.stream)
        directory, (edge,) = build_edge_tier(net, origin, ["edge0"])
        net.connect("edge0", "viewer", bandwidth=2_000_000, delay=0.02)
        sink = []
        session = edge.open_session("live", "viewer", sink.extend)
        edge.play(session.session_id)
        net.simulator.run_until(6.0)
        capture.finish()
        net.simulator.run(max_events=100_000)
        assert session.broadcast
        assert sink  # live packets crossed both hops
        got = {p.sequence for p in sink}
        sent = {p.sequence for p in capture.stream.packets}
        assert got <= sent and len(got) > 0.9 * len(sent)
