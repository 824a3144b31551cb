"""A declared-size byte is held once: the zero-block table.

Lectures encoded without payload generation (``with_data=False``) carry
units of a declared size. Each is materialized as the one zero block of
its length (``asf.packets.zero_block``); the packetizer cuts such a unit
into blocks, a receiver reassembles blocks into a block, and packet
padding is a block too. These tests gate the isolation rules — real
bytes (``with_data=True``), a DRM session's descrambled units and a run
that crossed ``pickle`` or ``DataPacket.unpack`` never share a block —
and the deterministic count behind the memory claim where RSS cannot be
gated.
"""

import pickle

from repro.asf import ASFEncoder, EncoderConfig, LicenseServer, slide_commands
from repro.asf.constants import SCRIPT_STREAM_NUMBER
from repro.asf.packets import (
    ZERO_BLOCK_MAX,
    DataPacket,
    Depacketizer,
    MediaUnit,
    Packetizer,
    zero_block,
)
from repro.load import encode_lecture
from repro.media import AudioObject, ImageObject, VideoObject
from repro.streaming import MediaPlayer

from tests.helpers import rendered
from tests.test_reassembly_sharing import (
    DURATION,
    PROFILE,
    make_asf,
    make_world,
    reference_units,
    watch_all,
)

#: the held-bytes gate: distinct payload bytes a run holds, as a share of
#: the payload bytes it carries (before the table, every fragment held
#: its own: 100 %)
HELD_SHARE_MAX = 0.15


def is_block(data):
    return data is zero_block(len(data))


def media(units):
    return [u for u in units if u.stream_number != SCRIPT_STREAM_NUMBER]


def payloads(asf):
    return [payload for packet in asf.packets for payload in packet.payloads]


def held_payload_bytes(asf=None):
    """``(objects, bytes, content bytes)`` of a packet run's payloads:
    the distinct ``data`` objects its fragments hold, their bytes, and the
    bytes the fragments carry. By default the run of the 20 s ``lan-1m``
    lecture the load harness encodes."""
    if asf is None:
        asf = encode_lecture("lec", 20.0, profile="lan-1m")
    held = {}
    content = 0
    for payload in payloads(asf):
        held[id(payload.data)] = len(payload.data)
        content += len(payload.data)
    return len(held), sum(held.values()), content


def shares_no_block(units):
    """No unit holds a block (one-byte data aside: the interpreter may
    intern it)."""
    return not any(is_block(u.data) for u in units if u.size > 1)


def watch(asf, users, license_server=None):
    net, server = make_world(asf, users)
    players = [MediaPlayer(net, u, license_server=license_server) for u in users]
    return [[r.unit for r in rendered(report)]
            for report in watch_all(net, server, players)]


def real_asf():
    """``make_asf``'s lecture with real payload bytes."""
    encoder = ASFEncoder(EncoderConfig(profile=PROFILE, with_data=True))
    return encoder.encode_file(
        file_id="lec",
        video=VideoObject("talk", DURATION, width=320, height=240, fps=10),
        audio=AudioObject("voice", DURATION),
        images=[(ImageObject("s0", DURATION, width=320, height=240), 0.0)],
        commands=slide_commands([("s0", 0.0)]),
    )


def test_a_declared_size_run_is_blocks_from_encoder_to_reassembly():
    asf = make_asf()
    fragments = [p for p in payloads(asf) if p.stream_number != SCRIPT_STREAM_NUMBER]
    assert any(not p.is_complete_object for p in fragments)
    assert all(is_block(p.data) for p in fragments)
    one, two = watch(asf, ["student0", "student1"])
    assert media(one) and all(u.data is zero_block(u.size) for u in media(one))
    assert [u.data for u in one] == [u.data for u in two]
    expected = reference_units(asf)
    assert one == [expected[u.stream_number, u.object_number] for u in one]


def test_padding_is_a_block_and_packs_the_same_bytes():
    asf = make_asf()
    for packet in asf.packets:
        padding = packet.wire_parts()[-1]
        assert padding == bytes(packet.packet_size - packet.used())
        assert padding is zero_block(len(padding))
        wire = packet.pack()
        assert len(wire) == packet.packet_size
        assert DataPacket.unpack(wire) == packet


def test_real_payload_bytes_share_no_block():
    asf = real_asf()
    fragments = payloads(asf)
    assert any(not p.is_complete_object for p in fragments)
    assert not any(is_block(p.data) for p in fragments if len(p.data) > 1)
    one, two = watch(asf, ["student0", "student1"])
    assert media(one) and shares_no_block(one)
    assert one == two


def test_drm_sessions_descramble_into_private_units():
    licenses = LicenseServer()
    asf = make_asf(license_server=licenses)
    # the scrambled run on the wire is real bytes: no fragment is a block
    assert not any(is_block(p.data) for p in payloads(asf) if len(p.data) > 1)
    for user in ("alice", "bob"):
        licenses.entitle("lec", user)
    alice, bob = watch(asf, ["alice", "bob"], license_server=licenses)
    (shared,) = watch(make_asf(), ["carol"])
    assert alice == bob == shared
    assert shares_no_block(alice) and shares_no_block(bob)
    assert all(u.data is zero_block(u.size) for u in media(shared))


def _receive(packets):
    return Depacketizer().push_train(packets)


def test_a_pickled_run_reassembles_privately():
    asf = make_asf()
    copy = pickle.loads(pickle.dumps(asf))
    assert copy.packets == asf.packets
    assert not any(is_block(p.data) for p in payloads(copy) if len(p.data) > 1)
    units = _receive(copy.packets)
    assert units == _receive(asf.packets)
    assert media(units) and shares_no_block(units)


def test_an_unpacked_run_reassembles_privately():
    asf = make_asf()
    unpacked = [DataPacket.unpack(packet.pack()) for packet in asf.packets]
    assert unpacked == asf.packets
    units = _receive(unpacked)
    shared = _receive(asf.packets)
    assert units == shared
    assert media(units) and shares_no_block(units)
    assert all(u.data is zero_block(u.size) for u in media(shared))


def test_a_declared_size_over_the_cap_is_zeros_of_its_own():
    size = ZERO_BLOCK_MAX + 1
    data = zero_block(size)
    assert data == bytes(size) and not is_block(data)
    packets = Packetizer().packetize([[MediaUnit(1, 0, 0, True, data)]])
    fragments = [p.data for packet in packets for p in packet.payloads]
    assert len(fragments) > 1
    assert not any(is_block(fragment) for fragment in fragments)
    (unit,) = _receive(packets)
    assert unit.data == data and not is_block(unit.data)


def test_a_20s_lan_run_holds_its_payload_bytes_once():
    objects, held, content = held_payload_bytes()
    # 2 192 objects / 2 513 078 bytes when every fragment held its own
    assert content > 2_000_000
    assert held <= HELD_SHARE_MAX * content
    assert 0 < objects
