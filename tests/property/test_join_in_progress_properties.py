"""Property: a viewer joining a pacing group in progress is a lone viewer.

An edge starts every play at once. Plays of one point from the same
cursor under the same fast-start grant that land inside one
``join_quantum`` share one pacing group: the first creates it, each later
one is sent the trains the group already walked past (the catch-up) and
then rides the group's fires. Generated here: two to six plays inside one
interval plus one past it, each viewer on its own last mile of 1× to 20×
the content bitrate (two link classes, so two grants can meet in one
interval), single-rate or MBR content, and 0 or 1 % loss. Whatever is
drawn:

* same-interval plays with equal grants end in one group, and plays with
  different grants or in another interval never share one;
* every viewer is sent exactly what a lone viewer on the same link is
  sent — byte-identical, no packet twice, none skipped — and receives an
  in-order subset of it (all of it without loss);
* no message carries more than one ``pacing_quantum`` of media;
* no last mile drops a message at the default ``queue_limit``;
* the :class:`TraceChecker` audit is clean, fast-start grants included.
"""

import functools
from collections import defaultdict

from hypothesis import given, settings, strategies as st

from repro.asf import ASFEncoder, EncoderConfig, slide_commands
from repro.media import AudioObject, ImageObject, VideoObject, get_profile
from repro.obs import TraceChecker, Tracer
from repro.streaming import MediaServer, build_edge_tier
from repro.web import VirtualNetwork

DURATION = 8.0
JOIN_QUANTUM = 0.5
PACING_QUANTUM = 0.25
START = 2.0  # an interval boundary, after the edge's prefill
PROFILE = get_profile("dsl-256k")


def make_single():
    return ASFEncoder(EncoderConfig(profile=PROFILE)).encode_file(
        file_id="lec",
        video=VideoObject("talk", DURATION, width=320, height=240, fps=10),
        audio=AudioObject("voice", DURATION),
        images=[(ImageObject("s0", DURATION, width=320, height=240), 0.0)],
        commands=slide_commands([("s0", 0.0)]),
    )


def make_mbr():
    renditions = [
        get_profile(n) for n in ("modem-56k", "isdn-dual", "dsl-256k")
    ]
    return ASFEncoder(EncoderConfig(profile=renditions[-1])).encode_file_mbr(
        file_id="mbr",
        video=VideoObject("talk", DURATION, width=320, height=240, fps=10),
        renditions=renditions,
        audio=AudioObject("voice", DURATION),
        commands=slide_commands([("s0", 0.0)]),
    )


FILES = {"single": make_single(), "mbr": make_mbr()}
BITRATE = FILES["single"].header.total_bitrate


def run_world(asf, viewers, loss):
    """Serve ``viewers`` — ``(host, link bandwidth, play time)`` — from a
    warm edge. Returns per host: the trains sent, the packets received,
    the pacing group and grant at play time; plus the links and trace."""
    tracer = Tracer("join")
    net = VirtualNetwork()
    tracer.bind_clock(net.simulator)
    origin = MediaServer(
        net, "origin", pacing_quantum=PACING_QUANTUM, tracer=tracer,
        trace_label="origin",
    )
    origin.publish("lecture", asf)
    _, (edge,) = build_edge_tier(
        net, origin, ["edge0"], pacing_quantum=PACING_QUANTUM,
        join_quantum=JOIN_QUANTUM, tracer=tracer,
    )
    edge.prefetch("lecture")
    sent = defaultdict(list)
    send_train = edge._send_train

    def spy(session, packets, wire_size, traced=True):
        sent[session.client_host].append(list(packets))
        send_train(session, packets, wire_size, traced)

    edge._send_train = spy
    received = defaultdict(list)
    joined = {}
    links = []
    for i, (host, bandwidth, _) in enumerate(viewers):
        net.connect("edge0", host, bandwidth=bandwidth, delay=0.02)
        link = net.link("edge0", host)
        link.rng.seed(100 + i)
        link.set_loss(loss_rate=loss)
        links.append(link)

    def play(host):
        session = edge.open_session("lecture", host, received[host].extend)
        edge.play(session.session_id)
        joined[host] = (
            session.pacing_group,
            (session._burst_factor, session._burst_window_ms),
        )

    for host, _, at in viewers:
        net.simulator.schedule_at(at, lambda host=host: play(host))
    net.simulator.run(max_events=2_000_000)
    edge.shutdown()
    return sent, received, joined, links, tracer


def blobs(packets):
    return [p.pack() for p in packets]


@functools.cache
def lone_packets(kind, bandwidth):
    """What one viewer alone on a ``bandwidth`` last mile is sent."""
    sent, _, _, _, _ = run_world(FILES[kind], [("solo", bandwidth, START)], 0.0)
    return blobs(p for train in sent["solo"] for p in train)


@settings(deadline=None, max_examples=25)
@given(
    kind=st.sampled_from(sorted(FILES)),
    headrooms=st.tuples(
        st.integers(min_value=10, max_value=200),
        st.integers(min_value=10, max_value=200),
    ),
    offsets=st.lists(
        st.tuples(st.integers(0, 99), st.integers(0, 1)),
        min_size=2, max_size=6,
    ),
    past=st.tuples(st.integers(0, 99), st.integers(0, 1)),
    loss=st.sampled_from([0.0, 0.01]),
)
def test_joining_in_progress_sends_a_lone_viewers_packets(
    kind, headrooms, offsets, past, loss
):
    # a link class is a headroom in tenths of the content bitrate
    bandwidths = [h * BITRATE / 10 for h in headrooms]
    viewers = [
        (f"v{i}", bandwidths[cls], START + JOIN_QUANTUM * at / 100)
        for i, (at, cls) in enumerate(offsets)
    ]
    viewers.append(
        ("late", bandwidths[past[1]], START + JOIN_QUANTUM * (1 + past[0] / 100))
    )
    sent, received, joined, links, tracer = run_world(
        FILES[kind], viewers, loss
    )

    # one group per grant inside the interval; never across intervals
    inside = [host for host, _, _ in viewers[:-1]]
    for a in inside:
        for b in inside:
            same_grant = joined[a][1] == joined[b][1]
            assert (joined[a][0] is joined[b][0]) == same_grant
    assert all(joined["late"][0] is not joined[h][0] for h in inside)

    for host, bandwidth, _ in viewers:
        lone = lone_packets(kind, bandwidth)
        trains = sent[host]
        # exactly a lone viewer's packets: none twice, none skipped
        assert blobs(p for train in trains for p in train) == lone
        # a subset in order, all of it when nothing is lost
        got = blobs(received[host])
        it = iter(lone)
        assert all(blob in it for blob in got)
        if loss == 0.0:
            assert got == lone
        # the loss-unit rule: a message holds one quantum of media at most
        for train in trains:
            span_ms = train[-1].send_time_ms - train[0].send_time_ms
            assert span_ms <= PACING_QUANTUM * 1000.0

    assert all(link.stats.dropped_queue == 0 for link in links)
    checker = TraceChecker(tracer.records)
    checker.assert_ok()
    assert checker.grants_seen == len(viewers)
