"""Property: the fast-start grant changes *when* messages leave, never
which messages leave or what they carry.

For any link (1–20× the content bitrate, any delay, 0–5 % loss), pacing
quantum, start position and one seek, a session paced by the server's
grant and a reference session driven with ``burst_factor=1.0`` over an
identically seeded link put the same wire messages on it — so the link
loses the same ones and the receiver completes the same media units, per
stream and in order — and no message spans more than ``pacing_quantum``
of media, however fast the burst.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.asf import ASFEncoder, EncoderConfig
from repro.media import AudioObject, VideoObject, get_profile
from repro.obs import Tracer
from repro.streaming import MediaServer, SessionState
from repro.web import VirtualNetwork
from tests.helpers import CollectingDepacketizer

DURATION = 8.0
ASF = ASFEncoder(EncoderConfig(profile=get_profile("dsl-256k"))).encode_file(
    file_id="prop",
    video=VideoObject("talk", DURATION, width=320, height=240, fps=10),
    audio=AudioObject("voice", DURATION),
)
SEND_MS = {p.sequence: p.send_time_ms for p in ASF.packets}


def deliver(conditions, **play_kwargs):
    """Drive one session through play → seek → end; returns its trains
    (first/last sequence per wire message), the units its receiver
    completed per stream, the factor it ran at and the link's stats."""
    headroom, delay, loss, quantum, start, seek_after, seek_to, seed = conditions
    tracer = Tracer("prop")
    net = VirtualNetwork()
    net.connect(
        "server", "viewer", delay=delay, loss_rate=loss,
        bandwidth=headroom * ASF.header.total_bitrate,
    )
    link = net.link("server", "viewer")
    link.rng.seed(seed)
    server = MediaServer(net, "server", pacing_quantum=quantum, tracer=tracer)
    server.publish("p", ASF)
    receiver = CollectingDepacketizer()
    session = server.open_session("p", "viewer", receiver.push_train)
    server.play(session.session_id, start=start, **play_kwargs)
    factor = session._burst_factor
    # the seek lands on a delivery frontier, not a wall instant: both runs
    # walk the same trains, so they cross it at the same cursor
    frontier = session.packet_cursor + seek_after
    net.simulator.wait(
        lambda: session.packet_cursor >= frontier
        or session.state is SessionState.FINISHED
    )
    # land what is in flight first: how many messages are on the wire at
    # this instant is timing, which the grant does change
    if session.state is SessionState.STREAMING:
        server.pause(session.session_id)
    net.simulator.run()
    receiver.expect_replay()
    server.seek(session.session_id, seek_to)
    if session.state is SessionState.PAUSED:
        server.resume(session.session_id)
    net.simulator.run()
    trains = [
        (r["attrs"]["first_seq"], r["attrs"]["last_seq"])
        for r in tracer.events("packet.train")
    ]
    units = {}
    for unit in receiver.units:
        units.setdefault(unit.stream_number, []).append(
            (unit.object_number, unit.timestamp_ms, unit.data)
        )
    return trains, units, factor, link.stats


conditions = st.tuples(
    st.floats(min_value=1.0, max_value=20.0),  # link bandwidth / bitrate
    st.floats(min_value=0.0, max_value=0.2),  # delay
    st.sampled_from([0.0, 0.01, 0.05]),  # loss
    st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]),  # pacing quantum
    st.floats(min_value=0.0, max_value=6.0),  # start position
    st.integers(min_value=0, max_value=len(ASF.packets)),  # seek after n packets
    st.floats(min_value=0.0, max_value=DURATION - 0.5),  # seek target
    st.integers(min_value=0, max_value=10_000),  # link seed
)


@settings(deadline=None, max_examples=40)
@given(conditions)
def test_granted_delivery_equals_real_time_delivery(params):
    trains, units, factor, stats = deliver(params)
    ref_trains, ref_units, ref_factor, ref_stats = deliver(
        params, burst_factor=1.0
    )
    headroom, quantum = params[0], params[3]
    assert ref_factor == 1.0
    assert factor == pytest.approx(max(1.0, 0.9 * headroom))
    assert trains == ref_trains
    assert units == ref_units
    assert stats.dropped_loss == ref_stats.dropped_loss
    assert stats.dropped_queue == 0
    for first, last in trains:
        assert SEND_MS[last] - SEND_MS[first] <= quantum * 1000.0
