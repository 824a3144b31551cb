"""Reassemble once, render many.

Receivers of one in-process packet run share the reassembled
:class:`MediaUnit` objects (the memo on the offset-0 fragment,
``Payload._shared``), and every declared-size unit of one length shares
one zero block (``asf.packets.zero_block``). These tests gate the
*count* behind the memory claim where RSS itself cannot be gated, and
the isolation rules: a
republished run, a DRM session and a copy that crossed a pickle never
share, and the memo is invisible to bytes, equality and hashing.
"""

import pickle

from repro.asf import ASFEncoder, EncoderConfig, LicenseServer, slide_commands
from repro.asf.constants import SCRIPT_STREAM_NUMBER
from repro.asf.packets import DataPacket, Depacketizer, zero_block
from repro.media import AudioObject, ImageObject, VideoObject, get_profile
from repro.streaming import MediaPlayer, MediaServer
from repro.web import VirtualNetwork

# lan-1m video frames span several packets: the fragmented path
PROFILE = get_profile("lan-1m")
DURATION = 6.0
STUDENTS = [f"student{i}" for i in range(10)]


def make_asf(slides=("s0", "s1"), license_server=None):
    encoder = ASFEncoder(EncoderConfig(profile=PROFILE))
    per_slide = DURATION / len(slides)
    return encoder.encode_file(
        file_id="lec",
        video=VideoObject("talk", DURATION, width=320, height=240, fps=10),
        audio=AudioObject("voice", DURATION),
        images=[
            (ImageObject(name, per_slide, width=320, height=240), i * per_slide)
            for i, name in enumerate(slides)
        ],
        commands=slide_commands(
            [(name, i * per_slide) for i, name in enumerate(slides)]
        ),
        license_server=license_server,
    )


def make_world(asf, clients=STUDENTS):
    net = VirtualNetwork()
    for name in clients:
        net.connect("server", name, bandwidth=4_000_000, delay=0.02)
    server = MediaServer(net, "server", port=8080)
    server.publish("lecture", asf)
    return net, server


def watch_all(net, server, players):
    for player in players:
        player.connect(server.url_of("lecture"))
        player.play()
    for player in players:
        player.run_until_finished()
    return [player.report() for player in players]


def memos(asf):
    return [
        payload._shared
        for packet in asf.packets
        for payload in packet.payloads
        if payload._shared is not None
    ]


def number(unit):
    return (unit.stream_number, unit.object_number)


def numbers(report):
    return [number(r.unit) for r in report.rendered]


def reference_units(asf):
    """What a receiver that can never share reassembles, by number: every
    packet goes through its wire image first."""
    depacketizer = Depacketizer()
    for packet in asf.packets:
        depacketizer.push_packet(DataPacket.unpack(packet.pack()))
    return {number(unit): unit for unit in depacketizer.completed}


def test_ten_players_hold_one_copy_of_every_unit():
    asf = make_asf()
    assert any(
        not payload.is_complete_object
        for packet in asf.packets for payload in packet.payloads
    )
    net, server = make_world(asf)
    reports = watch_all(net, server, [MediaPlayer(net, s) for s in STUDENTS])

    one = numbers(reports[0])
    assert len(one) == len(set(one)) > 0
    assert all(numbers(report) == one for report in reports)
    units = {id(r.unit) for report in reports for r in report.rendered}
    assert len(units) == len(one)
    held = {id(r.unit.data) for report in reports for r in report.rendered}
    assert len(held) <= len(one)
    # every declared-size unit (all but the script commands: the encoder
    # generated no payload bytes) holds the zero block of its length
    declared = [
        r.unit for r in reports[0].rendered
        if r.unit.stream_number != SCRIPT_STREAM_NUMBER
    ]
    assert declared and not EncoderConfig(profile=PROFILE).with_data
    assert all(unit.data is zero_block(unit.size) for unit in declared)
    # and they are the right bytes
    expected = reference_units(asf)
    for rendered in reports[0].rendered:
        assert rendered.unit == expected[number(rendered.unit)]


def test_republish_reuses_object_numbers_but_never_a_unit():
    old = make_asf()
    new = make_asf(slides=("s0-fixed", "s1"))
    assert old.fingerprint() != new.fingerprint()
    net, server = make_world(old, ["early", "late"])
    early = watch_all(net, server, [MediaPlayer(net, "early")])[0]
    server.unpublish("lecture")
    server.publish("lecture", new)
    late = watch_all(net, server, [MediaPlayer(net, "late")])[0]

    assert numbers(early) == numbers(late)
    assert not (
        {id(r.unit) for r in early.rendered} & {id(r.unit) for r in late.rendered}
    )
    expected = reference_units(new)
    for rendered in late.rendered:
        assert rendered.unit == expected[number(rendered.unit)]


def test_bucket_mixing_two_generations_falls_through_to_the_join():
    asf = make_asf()
    warm = Depacketizer()
    for packet in asf.packets:
        warm.push_packet(packet)
    assert memos(asf)
    # the same content, every odd packet from another generation of the run
    carriers = {}
    mixed = Depacketizer()
    for packet in asf.packets:
        for payload in packet.payloads:
            carriers.setdefault(number(payload), set()).add(packet.sequence % 2)
        if packet.sequence % 2:
            packet = DataPacket.unpack(packet.pack())
        mixed.push_packet(packet)
    assert mixed.completed == warm.completed
    assert {frozenset(c) for c in carriers.values()} == {
        frozenset({0}), frozenset({1}), frozenset({0, 1})
    }
    for unit, first in zip(mixed.completed, warm.completed):
        assert (unit is first) == (carriers[number(unit)] == {0})


def test_drm_sessions_keep_private_descrambled_units():
    licenses = LicenseServer()
    asf = make_asf(license_server=licenses)
    clear = make_asf()
    net, server = make_world(asf, ["alice", "bob"])
    players = []
    for user in ("alice", "bob"):
        licenses.entitle("lec", user)
        players.append(MediaPlayer(net, user, license_server=licenses))
    alice, bob = watch_all(net, server, players)

    assert [r.unit for r in alice.rendered] == [r.unit for r in bob.rendered]
    assert not (
        {id(r.unit) for r in alice.rendered} & {id(r.unit) for r in bob.rendered}
    )
    # the shared run still holds what is on the wire: the scrambled bytes
    on_the_run = {id(unit) for _, unit in memos(asf)}
    assert on_the_run
    assert not on_the_run & {id(r.unit) for r in alice.rendered}
    clear_units = reference_units(clear)
    for rendered in alice.rendered:
        assert rendered.unit == clear_units[number(rendered.unit)]
    scrambled = reference_units(asf)
    assert scrambled != clear_units
    for _, unit in memos(asf):
        assert unit == scrambled[number(unit)]


def test_memo_is_invisible_to_bytes_equality_hash_and_pickle():
    asf = make_asf()
    twin = make_asf()
    payloads = [p for packet in asf.packets for p in packet.payloads]
    before = {
        "wire": [packet.pack() for packet in asf.packets],
        "fingerprint": asf.fingerprint(),
        "hashes": [hash(p) for p in payloads],
        "payload_pickle": [pickle.dumps(p) for p in payloads],
        "file_pickle": pickle.dumps(asf),
    }
    assert not memos(asf)

    net, server = make_world(asf, ["student0"])
    watch_all(net, server, [MediaPlayer(net, "student0")])
    assert memos(asf)

    assert [packet.pack() for packet in asf.packets] == before["wire"]
    assert [
        DataPacket(p.sequence, p.send_time_ms, p.payloads, p.packet_size).pack()
        for p in asf.packets
    ] == before["wire"]  # a fresh pack, not the cached image
    assert asf.fingerprint() == before["fingerprint"] == twin.fingerprint()
    assert [hash(p) for p in payloads] == before["hashes"]
    assert asf.packets == twin.packets and not memos(twin)
    assert [pickle.dumps(p) for p in payloads] == before["payload_pickle"]
    assert pickle.dumps(asf) == before["file_pickle"]
    copy = pickle.loads(pickle.dumps(asf))
    assert copy.packets == asf.packets and not memos(copy)
    assert copy.fingerprint() == before["fingerprint"]


def test_farm_results_cross_the_process_boundary_with_the_memo_empty():
    shared = make_asf()
    net, server = make_world(shared, ["student0"])
    watch_all(net, server, [MediaPlayer(net, "student0")])
    assert memos(shared)
    asf = pickle.loads(pickle.dumps(shared))
    assert not memos(asf)
    assert asf.fingerprint() == make_asf().fingerprint()
    # ... and the copy shares like any other run
    a, b = Depacketizer(), Depacketizer()
    for packet in asf.packets:
        a.push_packet(packet)
        b.push_packet(packet)
    assert a.completed == b.completed
    assert all(x is y for x, y in zip(a.completed, b.completed))
