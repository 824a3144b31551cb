"""Property: the local live stream keeps the relay's live receive rules.

A relay's one record of a live point is its local live stream: duplicate
drop and failover holes read the server's sequence index over it, the
gap check keeps only the highest sequence, and catch-up is a slice from
the first packet inside the history horizon. The rules these replaced —
a set of every sequence seen, a ``max`` over it per packet, and a
history deque bounded by send time — are copied here unchanged
(:class:`SeedLiveRecord`) and fed the same arrivals as one relay's live
leg: in order, duplicated, reordered, with sequence jumps, viewers
joining at generated instants, and failover re-attaches whose new leg
replays an overlapping stretch. The relay must append the reference's
sequences, send its gap NAKs, drop as many duplicates and serve the same
catch-up trains.
"""

import functools
from collections import deque

from hypothesis import given, settings, strategies as st

from repro.asf import ASFLiveStream
from repro.lod import LiveCaptureSession
from repro.media import get_profile
from repro.metrics.counters import get_counters, reset_counters
from repro.streaming import EdgeRelay, MediaServer
from repro.streaming.edge import BACKBONE_BANDWIDTH, BACKBONE_DELAY
from repro.web import VirtualNetwork


class SeedLiveRecord:
    """The relay's live receive rules before the local stream became
    the one record: a seen set, a ``max`` per packet, a history deque."""

    def __init__(self, history_seconds: float) -> None:
        self.history_seconds = history_seconds
        self.seen = set()
        self.history = deque()
        self.appended = []
        self.naks = []
        self.duplicates = 0

    def receive(self, packet, now_ms: float) -> None:
        if packet.sequence in self.seen:
            self.duplicates += 1
            return
        if self.seen:
            tail = max(self.seen)
            if packet.sequence > tail + 1:
                gap = [
                    s for s in range(tail + 1, packet.sequence)
                    if s not in self.seen
                ]
                if gap:
                    self.naks.append(gap)
        self.seen.add(packet.sequence)
        self.appended.append(packet.sequence)
        if self.history_seconds > 0.0:
            self.history.append(packet)
            floor = now_ms - self.history_seconds * 1000.0
            while self.history and self.history[0].send_time_ms < floor:
                self.history.popleft()

    def catch_up(self, now_ms: float):
        """The catch-up trains a viewer joining at ``now_ms`` is sent."""
        if self.history_seconds <= 0.0:
            return []
        since = now_ms - self.history_seconds * 1000.0
        train = [
            p.sequence for p in self.history
            if p.send_time_ms >= since and p.send_time_ms < now_ms
        ]
        return [train] if train else []

    def migrate(self) -> None:
        if self.seen:
            holes = [
                s for s in range(min(self.seen), max(self.seen))
                if s not in self.seen
            ]
            if holes:
                self.naks.append(holes)


@functools.lru_cache(maxsize=None)
def broadcast():
    """Header and packets of six seconds of live capture."""
    net = VirtualNetwork()
    capture = LiveCaptureSession(
        net.simulator, get_profile("isdn-dual"), chunk=0.5
    )
    net.simulator.run_until(6.0)
    capture.finish()
    return capture.stream.header, tuple(capture.stream.packets)


class LiveLeg:
    """One relay holding one live point, its upstream deliveries made by
    hand: the origin's stream never grows, so every arrival is the
    test's. Records the relay's upstream NAKs."""

    def __init__(self, history_seconds: float) -> None:
        reset_counters("edge_cache")
        header, self.pool = broadcast()
        self.net = VirtualNetwork()
        self.origin = MediaServer(self.net, "origin")
        self.origin.publish("live", ASFLiveStream(header))
        self.net.connect(
            "origin", "edge",
            bandwidth=BACKBONE_BANDWIDTH, delay=BACKBONE_DELAY,
        )
        self.relay = EdgeRelay(
            self.net, "edge", origin_url="http://origin:8080",
            live_history_seconds=history_seconds,
        )
        self.net.connect("edge", "viewer", bandwidth=2_000_000, delay=0.02)
        self.naks = []
        self.relay._nak_upstream = (
            lambda ref, sequences: self.naks.append(list(sequences))
        )

    @property
    def now_ms(self) -> float:
        return self.net.simulator.now * 1000.0

    def join(self):
        """Open and play one viewer; (session id, catch-up trains)."""
        session = self.relay.open_session("live", "viewer", lambda p: None)
        trains = []
        real = self.relay._send_train

        def spy(target, packets, *rest):
            trains.append([p.sequence for p in packets])
            real(target, packets, *rest)

        # play sends nothing synchronously but the catch-up train
        self.relay._send_train = spy
        try:
            self.relay.play(session.session_id)
        finally:
            del self.relay._send_train
        return session.session_id, trains

    def upstream_deliver(self):
        """The deliver callback of the relay's current upstream leg."""
        ref = self.relay._upstream["live"]
        return self.origin.sessions.get(ref.session_id).deliver

    def stream_sequences(self):
        return [p.sequence for p in self.relay.points["live"].content.packets]

    def duplicates_dropped(self) -> int:
        return get_counters("edge_cache").get("live_duplicates_dropped", 0)


OPS = ["next"] * 6 + ["jump", "back", "back", "join", "migrate"]


@settings(deadline=None, max_examples=60)
@given(
    history_seconds=st.sampled_from([0.0, 0.5, 1.0, 2.0, 30.0]),
    steps=st.lists(
        st.tuples(
            st.sampled_from(OPS),
            st.integers(min_value=0, max_value=6),
            st.sampled_from([0.0, 0.0, 0.05, 0.2, 0.5, 1.0]),
        ),
        min_size=10,
        max_size=80,
    ),
)
def test_the_local_stream_keeps_the_seen_set_rules(history_seconds, steps):
    leg = LiveLeg(history_seconds)
    seed = SeedLiveRecord(history_seconds)
    _, trains = leg.join()  # the first viewer opens the leg
    assert trains == seed.catch_up(leg.now_ms) == []
    pool, cursor = leg.pool, 0

    def deliver(index):
        packet = pool[index]
        seed.receive(packet, leg.now_ms)
        leg.upstream_deliver()([packet])

    for op, k, dt in steps:
        leg.net.simulator.run_until(leg.net.simulator.now + dt)
        if op == "join":
            now_ms = leg.now_ms
            _, trains = leg.join()
            assert trains == seed.catch_up(now_ms)
        elif op == "migrate":
            # the upstream is declared dead and the feed re-attached; the
            # new leg then replays an overlapping stretch of the feed
            settled = leg.relay.upstream_crashed(
                leg.relay.origin_url, migrate_to=leg.relay.origin_url
            )
            assert settled["feeds_migrated"] == 1
            seed.migrate()
            cursor = max(0, cursor - k)
        elif op == "back":
            # a jump may have run the cursor past the pool's end
            if cursor:
                deliver(max(0, min(cursor, len(pool)) - 1 - k))
        else:
            if op == "jump":
                cursor += k
            if cursor < len(pool):
                deliver(cursor)
                cursor += 1
        assert leg.naks == seed.naks
    assert leg.stream_sequences() == seed.appended
    assert leg.duplicates_dropped() == seed.duplicates
    now_ms = leg.now_ms
    _, trains = leg.join()
    assert trains == seed.catch_up(now_ms)


def test_a_late_packet_of_a_torn_down_leg_leaves_no_trace():
    leg = LiveLeg(history_seconds=30.0)
    viewer, _ = leg.join()
    first, late = leg.pool[0], leg.pool[1]
    old_deliver = leg.upstream_deliver()
    old_deliver([first])
    old_stream = leg.relay.points["live"].content
    # the last viewer leaves: the point and its upstream leg go
    leg.relay.close_session(viewer)
    assert "live" not in leg.relay.points
    # a packet the old leg still had in flight lands afterwards
    old_deliver([late])
    assert [p.sequence for p in old_stream.packets] == [first.sequence]
    # a re-attached point takes that sequence as new, not as a duplicate
    leg.join()
    leg.upstream_deliver()([late])
    assert leg.stream_sequences() == [late.sequence]
    assert leg.duplicates_dropped() == 0
