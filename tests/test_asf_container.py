"""Unit tests for the ASF container: wire format, header, packets, index."""

import pytest

from repro.asf.constants import ASFError, FLAG_BROADCAST, SCRIPT_STREAM_NUMBER
from repro.asf.header import FileProperties, HeaderObject, StreamProperties
from repro.asf.indexer import SimpleIndex, add_script_commands
from repro.asf.packets import (
    DataPacket,
    Depacketizer,
    MediaUnit,
    Packetizer,
    Payload,
    PAYLOAD_HEADER_SIZE,
    command_from_unit,
    units_from_commands,
)
from repro.asf.script_commands import ScriptCommand
from repro.asf.stream import ASFFile, ASFLiveStream
from repro.asf.wire import Reader, pack_str, write_object


class TestWire:
    def test_string_round_trip(self):
        r = Reader(pack_str("héllo wörld"))
        assert r.string() == "héllo wörld"

    def test_object_round_trip(self):
        blob = write_object(b"TEST", b"payload")
        tag, payload = Reader(blob).read_object()
        assert tag == b"TEST" and payload == b"payload"

    def test_truncation_detected(self):
        blob = write_object(b"TEST", b"payload")[:-2]
        with pytest.raises(ASFError):
            Reader(blob).read_object()

    def test_expect_object_mismatch(self):
        blob = write_object(b"AAAA", b"")
        with pytest.raises(ASFError):
            Reader(blob).expect_object(b"BBBB")

    def test_bad_tag_length(self):
        with pytest.raises(ASFError):
            write_object(b"TOOLONG", b"")


class TestHeader:
    def make_header(self):
        return HeaderObject(
            file_properties=FileProperties("f1", duration_ms=30_000),
            streams=[
                StreamProperties(1, "video", codec="mpeg4", bitrate=250_000,
                                 name="talk", extra={"width": "320"}),
                StreamProperties(2, "audio", codec="wma", bitrate=32_000),
            ],
            metadata={"title": "Lecture", "author": "Prof"},
            script_commands=[ScriptCommand(0, "SLIDE", "s0")],
        )

    def test_round_trip(self):
        header = self.make_header()
        clone = HeaderObject.unpack(header.pack())
        assert clone.file_properties.file_id == "f1"
        assert clone.file_properties.duration_ms == 30_000
        assert len(clone.streams) == 2
        assert clone.stream(1).extra == {"width": "320"}
        assert clone.metadata["author"] == "Prof"
        assert clone.script_commands == [ScriptCommand(0, "SLIDE", "s0")]

    def test_total_bitrate(self):
        assert self.make_header().total_bitrate == 282_000

    def test_streams_of_type(self):
        header = self.make_header()
        assert [s.stream_number for s in header.streams_of_type("audio")] == [2]

    def test_unknown_stream_number(self):
        with pytest.raises(ASFError):
            self.make_header().stream(9)

    def test_duplicate_stream_numbers_rejected(self):
        with pytest.raises(ASFError):
            HeaderObject(
                FileProperties("f"),
                streams=[
                    StreamProperties(1, "video"),
                    StreamProperties(1, "audio"),
                ],
            )

    def test_stream_number_range(self):
        with pytest.raises(ASFError):
            StreamProperties(0, "video")
        with pytest.raises(ASFError):
            StreamProperties(128, "video")

    def test_unknown_stream_type_rejected(self):
        with pytest.raises(ASFError):
            StreamProperties(1, "smellovision")

    def test_small_packet_size_rejected(self):
        with pytest.raises(ASFError):
            FileProperties("f", packet_size=10)

    def test_flags(self):
        props = FileProperties("f", flags=FLAG_BROADCAST)
        assert props.is_broadcast and not props.is_seekable


def make_units(stream=1, count=5, size=100, spacing_ms=100):
    return [
        MediaUnit(stream, i, i * spacing_ms, i % 2 == 0, bytes([i % 256]) * size)
        for i in range(count)
    ]


class TestPayloadPacket:
    def test_payload_round_trip(self):
        payload = Payload(3, 7, 0, 5, 1234, True, b"abcde")
        clone = Payload.unpack(Reader(payload.pack()))
        assert clone == payload

    def test_fragment_bounds_checked(self):
        with pytest.raises(ASFError):
            Payload(1, 0, 3, 4, 0, True, b"ab")  # 3+2 > 4

    def test_packet_fixed_size(self):
        packet = DataPacket(0, 0, [Payload(1, 0, 0, 3, 0, True, b"abc")],
                            packet_size=256)
        assert len(packet.pack()) == 256

    def test_packet_round_trip(self):
        packet = DataPacket(5, 777, [Payload(1, 0, 0, 3, 10, False, b"xyz")],
                            packet_size=200)
        clone = DataPacket.unpack(packet.pack())
        assert clone.sequence == 5
        assert clone.send_time_ms == 777
        assert clone.payloads == packet.payloads

    def test_packet_overflow_rejected(self):
        packet = DataPacket(0, 0, [Payload(1, 0, 0, 300, 0, True, b"x" * 300)],
                            packet_size=100)
        with pytest.raises(ASFError):
            packet.pack()

    def test_payload_count_overflow_rejected(self):
        # the payload count is one byte on the wire
        payloads = [Payload(1, i, 0, 1, 0, True, b"x") for i in range(256)]
        packet = DataPacket(0, 0, payloads, packet_size=16_000)
        with pytest.raises(ASFError):
            packet.pack()
        packet.payloads.pop()
        assert DataPacket.unpack(packet.pack()) == packet

    def test_truncated_packet_rejected(self):
        wire = DataPacket(0, 0, [Payload(1, 0, 0, 3, 0, True, b"abc")],
                          packet_size=200).pack()
        # cut in the packet header, the payload header, the padding
        for cut in (10, 40, 199):
            with pytest.raises(ASFError):
                DataPacket.unpack(wire[:cut])
        with pytest.raises(ASFError):
            DataPacket.unpack(b"PKTX" + wire[4:])
        # an object length shorter than the packet header fields
        with pytest.raises(ASFError):
            DataPacket.unpack(wire[:4] + (5).to_bytes(4, "little") + wire[8:])


class TestPacketizer:
    def test_small_units_share_packets(self):
        packets = Packetizer(packet_size=1450).packetize([make_units(size=50)])
        assert len(packets) == 1
        assert len(packets[0].payloads) == 5

    def test_large_unit_fragments(self):
        units = [MediaUnit(1, 0, 0, True, b"z" * 5000)]
        packets = Packetizer(packet_size=1450).packetize([units])
        assert len(packets) > 1
        offsets = [p.payloads[0].offset for p in packets]
        assert offsets[0] == 0 and offsets == sorted(offsets)

    def test_interleaving_by_timestamp(self):
        video = make_units(stream=1, count=3, spacing_ms=100)
        audio = make_units(stream=2, count=3, spacing_ms=100)
        packets = Packetizer(packet_size=1450).packetize([video, audio])
        seen = [
            (p.timestamp_ms, p.stream_number)
            for packet in packets
            for p in packet.payloads
        ]
        assert seen == sorted(seen)

    def test_pacing(self):
        pk = Packetizer(packet_size=1000, bitrate=8_000)  # 1s per packet
        units = [MediaUnit(1, i, 0, True, b"x" * 900) for i in range(3)]
        packets = pk.packetize([units])
        assert [p.send_time_ms for p in packets] == [0, 1000, 2000]

    def test_too_small_packet_size_rejected(self):
        with pytest.raises(ASFError):
            Packetizer(packet_size=PAYLOAD_HEADER_SIZE)

    def test_packet_closes_at_255_payloads(self):
        units = [MediaUnit(1, i, i, True, b"x") for i in range(400)]
        packets = Packetizer(packet_size=16_000).packetize([units])
        assert [len(p.payloads) for p in packets] == [255, 145]
        depacketizer = Depacketizer()
        for packet in packets:
            clone = DataPacket.unpack(packet.pack())
            assert clone == packet
            depacketizer.push_packet(clone)
        assert depacketizer.units_for(1) == units

    def test_zero_bitrate_rejected(self):
        with pytest.raises(ASFError):
            Packetizer(bitrate=0)


class TestDepacketizer:
    def roundtrip(self, unit_lists, packet_size=1450, drop=()):
        packets = Packetizer(packet_size=packet_size).packetize(unit_lists)
        depacketizer = Depacketizer()
        for i, packet in enumerate(packets):
            if i in drop:
                continue
            depacketizer.push_packet(packet)
        return depacketizer

    def test_lossless_reassembly(self):
        units = make_units(count=10, size=400)
        depk = self.roundtrip([units])
        got = depk.units_for(1)
        assert got == units

    def test_fragmented_reassembly(self):
        units = [MediaUnit(1, 0, 0, True, bytes(range(256)) * 30)]
        depk = self.roundtrip([units], packet_size=600)
        assert depk.units_for(1)[0].data == units[0].data

    def test_loss_detection(self):
        # 1380-byte units fill a 1450-byte packet exactly one-to-one
        # (packet overhead 27 + payload header 26 leaves no room for more)
        units = [MediaUnit(1, i, i * 10, True, b"q" * 1380) for i in range(5)]
        depk = self.roundtrip([units], drop={2})
        report = depk.loss_report()
        assert report.lost[1] == [2]
        assert report.delivered[1] == 4
        assert report.loss_rate(1) == pytest.approx(0.2)

    def test_packet_straddling_loss_hits_both_units(self):
        # 1200-byte units straddle 1450-byte packets: dropping one packet
        # loses every unit with a fragment in it
        units = [MediaUnit(1, i, i * 10, True, b"q" * 1200) for i in range(5)]
        depk = self.roundtrip([units], drop={2})
        assert depk.loss_report().lost[1] == [2, 3]

    def test_fragment_loss_kills_whole_object(self):
        units = [MediaUnit(1, 0, 0, True, b"q" * 4000)]
        depk = self.roundtrip([units], drop={1})
        assert depk.units_for(1) == []
        assert depk.loss_report().lost[1] == [0]

    def test_loss_rate_empty_stream(self):
        assert Depacketizer().loss_report().loss_rate(7) == 0.0


class TestScriptCommandUnits:
    def test_commands_ride_reserved_stream(self):
        units = units_from_commands([ScriptCommand(500, "SLIDE", "s1")])
        assert units[0].stream_number == SCRIPT_STREAM_NUMBER
        assert command_from_unit(units[0]) == ScriptCommand(500, "SLIDE", "s1")

    def test_non_command_unit_rejected(self):
        with pytest.raises(ASFError):
            command_from_unit(MediaUnit(1, 0, 0, True, b""))


class TestSimpleIndex:
    def make_packets(self):
        units = [
            MediaUnit(1, i, i * 500, i % 4 == 0, b"f" * 700) for i in range(20)
        ]
        return Packetizer(packet_size=1450).packetize([units])

    def test_entries_cover_duration(self):
        index = SimpleIndex.build(self.make_packets(), interval_ms=1000)
        assert len(index.entries) == 10  # 0..9.5s => entries at 0..9s

    def test_seek_monotone(self):
        index = SimpleIndex.build(self.make_packets())
        seeks = [index.seek(t) for t in (0, 2, 5, 9)]
        assert seeks == sorted(seeks)

    def test_seek_lands_at_or_before_keyframe(self):
        packets = self.make_packets()
        index = SimpleIndex.build(packets)
        start = index.seek(5.0)
        # the packet at `start` must contain a keyframe payload with ts <= 5s
        packet = next(p for p in packets if p.sequence == start)
        assert any(pl.keyframe and pl.timestamp_ms <= 5000 for pl in packet.payloads)

    def test_seek_empty_index(self):
        assert SimpleIndex().seek(3.0) == 0

    def test_round_trip(self):
        index = SimpleIndex.build(self.make_packets())
        clone = SimpleIndex.unpack_from(Reader(index.pack()))
        assert clone.entries == index.entries
        assert clone.interval_ms == index.interval_ms

    def test_bad_interval(self):
        with pytest.raises(ASFError):
            SimpleIndex(interval_ms=0)
