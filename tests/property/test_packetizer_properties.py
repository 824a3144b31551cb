"""Property: the one-pass packetizer writes what the per-packet one wrote.

The oracle is the write path the one-pass packetizer replaced, copied here
unchanged: :class:`SeedPacketizer` re-sums the open packet's payloads for
every fragment, builds each packet with a bitrate send time, rewrites the
send times in duration pacing and drops empty packets; :func:`seed_pack`
serializes field by field and concatenates. Both packetizers are fed the
same generated streams: 1–4 of them on one timeline (equal timestamps
across streams), zero-length units, units that fill a packet exactly and
units spanning several packets, at every packet size from the smallest
the packetizer accepts up to 6 000 bytes, in both pacing modes, with
random data, the zero block of the unit's length (a declared-size unit,
which the packetizer cuts into blocks without slicing) or zeros that only
equal it. Every packet must carry the oracle's sequence, send time, size
and payloads, and pack to the oracle's bytes, and every fragment of a
block-backed unit must be the block of its length.

A second oracle is the memoizing writer that wire parts replaced:
:func:`memo_pack_file` joins each payload's header and data, then each
packet's payloads, then the file's packets — three copies of every byte.
On the same generated streams, :meth:`DataPacket.pack`,
:meth:`ASFFile.pack` and :meth:`ASFFile.fingerprint` must equal it.
"""

import hashlib
import random
import struct
from typing import Iterable, List, Optional, Sequence, Tuple

from hypothesis import example, given, settings, strategies as st

from repro.asf.constants import TAG_DATA, TAG_PACKET
from repro.asf.header import FileProperties, HeaderObject, StreamProperties
from repro.asf.indexer import SimpleIndex
from repro.asf.packets import (
    PACKET_HEADER_SIZE,
    PAYLOAD_HEADER_SIZE,
    DataPacket,
    MediaUnit,
    Packetizer,
    Payload,
    zero_block,
)
from repro.asf.stream import ASFFile
from repro.asf.wire import pack_u8, pack_u16, pack_u32, pack_u64, write_object


# ---------------------------------------------------------------------------
# the oracle: the write path as it was before the one-pass packetizer
# ---------------------------------------------------------------------------


def _seed_pack_payload(payload: Payload) -> bytes:
    return (
        pack_u8(payload.stream_number)
        + pack_u32(payload.object_number)
        + pack_u32(payload.offset)
        + pack_u32(payload.object_size)
        + pack_u64(payload.timestamp_ms)
        + pack_u8(1 if payload.keyframe else 0)
        + pack_u32(len(payload.data))
        + payload.data
    )


def seed_pack(packet: DataPacket) -> bytes:
    """``DataPacket.pack`` before one struct per header, without the memo."""
    body = (
        pack_u32(packet.sequence)
        + pack_u32(packet.packet_size)
        + pack_u64(packet.send_time_ms)
        + pack_u8(len(packet.payloads))
        + pack_u16(0)  # reserved
    )
    for payload in packet.payloads:
        body += _seed_pack_payload(payload)
    padding = packet.packet_size - (len(body) + 8)
    assert padding >= 0, "the oracle never overflows a packet"
    return write_object(TAG_PACKET, body + b"\x00" * padding)


class SeedPacketizer(Packetizer):
    """``Packetizer`` before the one-pass loop: same checks and pacing
    modes, the per-packet ``free()`` walk."""

    def packetize(self, streams: Iterable[Sequence[MediaUnit]]) -> List[DataPacket]:
        units: List[MediaUnit] = []
        for stream_units in streams:
            units.extend(stream_units)
        units.sort(key=lambda u: (u.timestamp_ms, u.stream_number, u.object_number))

        packets: List[DataPacket] = []

        def new_packet() -> DataPacket:
            seq = len(packets)
            packet = DataPacket(
                sequence=seq,
                send_time_ms=round(seq * self.packet_interval_ms),
                packet_size=self.packet_size,
            )
            packets.append(packet)
            return packet

        def free(packet: DataPacket) -> int:
            return packet.packet_size - packet.used()

        current = new_packet()
        for unit in units:
            offset = 0
            total = len(unit.data)
            while True:
                space = free(current) - PAYLOAD_HEADER_SIZE
                if space <= 0:
                    current = new_packet()
                    continue
                fragment = unit.data[offset : offset + space]
                current.payloads.append(
                    Payload(
                        unit.stream_number,
                        unit.object_number,
                        offset,
                        total,
                        unit.timestamp_ms,
                        unit.keyframe,
                        fragment,
                    )
                )
                offset += len(fragment)
                if offset >= total:
                    break
                current = new_packet()
        filled = [p for p in packets if p.payloads]
        if self.pacing == "duration" and len(filled) > 1:
            max_ts = max(
                payload.timestamp_ms for p in filled for payload in p.payloads
            )
            for i, packet in enumerate(filled):
                packet.send_time_ms = round(i * max_ts / (len(filled) - 1))
        return filled


# ---------------------------------------------------------------------------
# the second oracle: the writer before wire parts, without its memos
# ---------------------------------------------------------------------------

_MEMO_PAYLOAD_HEADER = struct.Struct("<BIIIQBI")
_MEMO_PACKET_HEADER = struct.Struct("<4sIIIQBH")


def memo_pack_packet(packet: DataPacket) -> bytes:
    """``DataPacket.pack`` with the wire memo: ``header + data`` per
    payload, then one join per packet."""
    wires = [
        _MEMO_PAYLOAD_HEADER.pack(
            p.stream_number, p.object_number, p.offset, p.object_size,
            p.timestamp_ms, 1 if p.keyframe else 0, len(p.data),
        ) + p.data
        for p in packet.payloads
    ]
    used = PACKET_HEADER_SIZE + sum(map(len, wires))
    size = packet.packet_size
    head = _MEMO_PACKET_HEADER.pack(
        TAG_PACKET, size - 8, packet.sequence, size, packet.send_time_ms,
        len(wires), 0,
    )
    return b"".join([head, *wires, bytes(size - used)])


def memo_pack_file(asf: ASFFile) -> Tuple[bytes, str]:
    """``(ASFFile.pack(), ASFFile.fingerprint())`` of the memoizing
    writer: every packet's joined wire, then one join for the file."""
    wires = [memo_pack_packet(p) for p in asf.packets]
    parts = [
        asf.header.pack(),
        TAG_DATA,
        struct.pack("<I", 4 + sum(map(len, wires))),
        struct.pack("<I", len(wires)),
        *wires,
    ]
    if asf.index is not None:
        parts.append(asf.index.pack())
    digest = hashlib.sha1(asf.header.pack())
    for wire in wires:
        digest.update(wire)
    return b"".join(parts), digest.hexdigest()


# ---------------------------------------------------------------------------
# generated streams
# ---------------------------------------------------------------------------

SMALLEST_PACKET = PACKET_HEADER_SIZE + PAYLOAD_HEADER_SIZE + 1
BITRATES = [8_000, 56_000, 300_000.0, 1_000_000, 3_333.3]


def _capacity(packet_size: int) -> int:
    """Data bytes one payload carries in an otherwise empty packet."""
    return packet_size - PACKET_HEADER_SIZE - PAYLOAD_HEADER_SIZE


@st.composite
def unit_sizes(draw, packet_size):
    """Unit sizes in runs that hit the packet geometry: a unit that fills
    a fresh packet exactly (or k of them), a pair that shares one exactly,
    zero-length units, small ones and ones spanning several packets."""
    capacity = _capacity(packet_size)
    # data bytes two payloads share in an otherwise empty packet
    shared = max(0, capacity - PAYLOAD_HEADER_SIZE)
    sizes: List[int] = []
    for kind in draw(st.lists(
        st.sampled_from(["zero", "small", "exact", "pair", "large"]),
        max_size=10,
    )):
        if kind == "zero":
            sizes.append(0)
        elif kind == "small":
            sizes.append(draw(st.integers(min_value=1, max_value=max(1, capacity // 3))))
        elif kind == "exact":
            sizes.append(capacity * draw(st.integers(min_value=1, max_value=3)))
        elif kind == "pair":
            first = draw(st.integers(min_value=0, max_value=shared))
            sizes += [first, shared - first]
        else:
            sizes.append(draw(st.integers(min_value=0, max_value=3 * packet_size)))
    return sizes


#: what a generated unit's data is: random bytes, the zero block of its
#: length (a declared-size unit), or zeros of its own that only equal it
DATA_KINDS = ("random", "block", "zeros")


def _data(kind: str, size: int, rng: random.Random) -> bytes:
    if kind == "block":
        return zero_block(size)
    if kind == "zeros":
        return bytes(bytearray(size))
    return rng.randbytes(size)


@st.composite
def streams(draw):
    """``(packet_size, unit lists)``: 1–4 streams on one timeline, object
    numbers dense per stream, timestamps in 40 ms steps that collide
    across streams; each unit's data is one of :data:`DATA_KINDS`."""
    packet_size = draw(st.integers(min_value=SMALLEST_PACKET, max_value=6_000))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    unit_lists = []
    for stream in draw(st.lists(
        st.integers(min_value=1, max_value=127), min_size=1, max_size=4, unique=True
    )):
        units, ts = [], 0
        for number, size in enumerate(draw(unit_sizes(packet_size))):
            ts += 40 * draw(st.integers(min_value=0, max_value=2))
            kind = draw(st.sampled_from(DATA_KINDS))
            units.append(
                MediaUnit(stream, number, ts, rng.random() < 0.3, _data(kind, size, rng))
            )
        unit_lists.append(units)
    return packet_size, unit_lists


def assert_blocks_cut_into_blocks(packets, unit_lists):
    """Every fragment of a block-backed unit is the zero block of its
    length; no fragment of any other unit is (an empty one aside, and a
    one-byte one, which the interpreter may intern)."""
    blocks = {
        (u.stream_number, u.object_number): u.data is zero_block(u.size)
        for units in unit_lists for u in units
    }
    for packet in packets:
        for payload in packet.payloads:
            data = payload.data
            if blocks[payload.stream_number, payload.object_number]:
                assert data is zero_block(len(data))
            elif len(data) > 1:
                assert data is not zero_block(len(data))


def assert_writes_what_the_seed_writes(packetizer, seed, unit_lists):
    packets = packetizer.packetize(unit_lists)
    want = seed.packetize(unit_lists)
    assert isinstance(packets, list)
    assert [p.sequence for p in packets] == [p.sequence for p in want]
    assert [p.send_time_ms for p in packets] == [p.send_time_ms for p in want]
    for packet, seed_packet in zip(packets, want):
        assert packet.packet_size == seed_packet.packet_size
        assert packet.payloads == seed_packet.payloads
        wire = packet.pack()
        assert wire == seed_pack(seed_packet)
        assert DataPacket.unpack(wire) == packet
    assert len(packets) == len(want)
    assert_blocks_cut_into_blocks(packets, unit_lists)
    return packets


def test_units_that_end_on_a_packet_boundary():
    # packets filled exactly by one unit (0), a zero-length unit and a unit
    # (1), the middle fragments of a large unit (2, 3), its tail and a unit
    # (4), and a pair of units (5); a zero-length unit opens the last one
    packet_size = 700
    capacity = _capacity(packet_size)
    header = PAYLOAD_HEADER_SIZE
    sizes = [capacity, 0, capacity - header, 2 * capacity + 100,
             capacity - 100 - header, 300, capacity - 300 - header, 0]
    units = [MediaUnit(1, i, 40 * i, i == 0, random.Random(i).randbytes(size))
             for i, size in enumerate(sizes)]
    for pacing in ("bitrate", "duration"):
        packets = assert_writes_what_the_seed_writes(
            Packetizer(packet_size=packet_size, pacing=pacing),
            SeedPacketizer(packet_size=packet_size, pacing=pacing),
            [units],
        )
        full = [p.sequence for p in packets if p.used() == packet_size]
        assert full == [0, 1, 2, 3, 4, 5]
        assert len(packets) == 7


@settings(deadline=None, max_examples=200)
@given(
    drawn=streams(),
    pacing=st.sampled_from(["bitrate", "duration"]),
    bitrate=st.sampled_from(BITRATES),
)
@example(drawn=(SMALLEST_PACKET, []), pacing="duration", bitrate=300_000.0)
@example(drawn=(1_450, [[]]), pacing="bitrate", bitrate=300_000.0)
def test_packets_equal_the_seed_packetizer(drawn, pacing, bitrate):
    packet_size, unit_lists = drawn
    options = dict(packet_size=packet_size, bitrate=bitrate, pacing=pacing)
    assert_writes_what_the_seed_writes(
        Packetizer(**options), SeedPacketizer(**options), unit_lists
    )


def _file_of(packets: List[DataPacket], unit_lists, packet_size: int,
             indexed: bool) -> ASFFile:
    numbers = sorted({u.stream_number for units in unit_lists for u in units})
    header = HeaderObject(
        FileProperties("wire", packet_size=max(64, packet_size)),
        streams=[StreamProperties(n, "video") for n in numbers],
    )
    index: Optional[SimpleIndex] = None
    if indexed:
        index = SimpleIndex.build(packets, interval_ms=200)
    return ASFFile(header=header, packets=packets, index=index)


@settings(deadline=None, max_examples=100)
@given(
    drawn=streams(),
    pacing=st.sampled_from(["bitrate", "duration"]),
    indexed=st.booleans(),
)
@example(drawn=(SMALLEST_PACKET, []), pacing="bitrate", indexed=True)
def test_wire_parts_write_what_the_memoizing_writer_wrote(drawn, pacing, indexed):
    packet_size, unit_lists = drawn
    packets = Packetizer(packet_size=packet_size, pacing=pacing).packetize(unit_lists)
    assert_blocks_cut_into_blocks(packets, unit_lists)
    asf = _file_of(packets, unit_lists, packet_size, indexed)
    for packet in packets:
        assert packet.pack() == memo_pack_packet(packet)
    image, fingerprint = memo_pack_file(asf)
    assert asf.pack() == image
    assert asf.fingerprint() == fingerprint
    assert ASFFile.unpack(image).fingerprint() == fingerprint
