"""Depacketizer under adversity: loss, reordering, duplication.

The reassembly layer must stay exact when the network misbehaves:
out-of-order fragments still complete their object, duplicated packets
never produce a unit twice, and :meth:`Depacketizer.loss_report`
identifies exactly the objects that were dropped.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asf.packets import (
    DataPacket,
    Depacketizer,
    MediaUnit,
    Packetizer,
    Payload,
)


def fragment_packets(data: bytes, *, pieces: int, stream: int = 1,
                     object_number: int = 0, first_sequence: int = 0) -> list:
    """One object split across ``pieces`` single-payload packets."""
    step = (len(data) + pieces - 1) // pieces
    packets = []
    for i in range(pieces):
        chunk = data[i * step:(i + 1) * step]
        if not chunk:
            continue
        payload = Payload(
            stream, object_number, i * step, len(data), 0, True, chunk
        )
        packets.append(
            DataPacket(first_sequence + i, i * 10, [payload], packet_size=600)
        )
    return packets


class TestReordering:
    def test_out_of_order_fragments_reassemble(self):
        data = bytes(range(256)) * 3
        packets = fragment_packets(data, pieces=4)
        depacketizer = Depacketizer()
        finished = []
        for packet in (packets[2], packets[0], packets[3], packets[1]):
            finished += depacketizer.push_packet(packet)
        assert len(finished) == 1
        assert finished[0].data == data

    def test_reversed_delivery_of_many_objects(self):
        units = [
            MediaUnit(1, i, i * 100, True, bytes([i]) * 900) for i in range(6)
        ]
        packets = Packetizer(packet_size=700).packetize([units])
        depacketizer = Depacketizer()
        for packet in reversed(packets):
            depacketizer.push_packet(packet)
        got = {u.object_number: u.data for u in depacketizer.completed}
        assert got == {u.object_number: u.data for u in units}
        report = depacketizer.loss_report()
        assert report.lost[1] == []
        assert report.delivered[1] == 6

    def test_interleaved_objects_from_two_streams(self):
        a = fragment_packets(b"A" * 1000, pieces=3, stream=1)
        b = fragment_packets(b"B" * 1000, pieces=3, stream=2,
                             first_sequence=100)
        depacketizer = Depacketizer()
        for pa, pb in zip(a, b):
            depacketizer.push_packet(pb)
            depacketizer.push_packet(pa)
        datas = {u.stream_number: u.data for u in depacketizer.completed}
        assert datas == {1: b"A" * 1000, 2: b"B" * 1000}


class TestDuplication:
    def test_duplicate_packet_produces_unit_once(self):
        units = [MediaUnit(1, 0, 0, True, b"x" * 500)]
        packets = Packetizer(packet_size=600).packetize([units])
        depacketizer = Depacketizer()
        for packet in packets:
            depacketizer.push_packet(packet)
        for packet in packets:  # duplicated delivery of every packet
            assert depacketizer.push_packet(packet) == []
        assert len(depacketizer.completed) == 1
        assert depacketizer.loss_report().delivered[1] == 1

    def test_duplicate_fragment_mid_reassembly(self):
        data = b"y" * 1200
        packets = fragment_packets(data, pieces=3)
        depacketizer = Depacketizer()
        depacketizer.push_packet(packets[0])
        depacketizer.push_packet(packets[0])  # retransmit of the same fragment
        depacketizer.push_packet(packets[1])
        finished = depacketizer.push_packet(packets[2])
        assert len(finished) == 1
        assert finished[0].data == data
        assert len(depacketizer.completed) == 1

    def test_expect_replay_allows_reseeding(self):
        """After a seek the server re-sends old sequences on purpose."""
        units = [MediaUnit(1, i, i * 100, True, b"z" * 400) for i in range(3)]
        packets = Packetizer(packet_size=600).packetize([units])
        depacketizer = Depacketizer()
        for packet in packets:
            depacketizer.push_packet(packet)
        assert len(depacketizer.completed) == 3
        depacketizer.expect_replay()
        for packet in packets:
            depacketizer.push_packet(packet)
        # the replayed units complete again (the player re-buffers them)...
        assert len(depacketizer.completed) == 6
        # ...but delivery accounting stays per distinct object
        assert depacketizer.loss_report().delivered[1] == 3


class TestLossReports:
    def test_missing_object_reported(self):
        units = [MediaUnit(1, i, i * 100, True, b"m" * 900) for i in range(5)]
        packets = Packetizer(packet_size=700).packetize([units])
        drop = {p.sequence for p in packets if any(
            pl.object_number == 2 for pl in p.payloads
        )}
        depacketizer = Depacketizer()
        survivors = [p for p in packets if p.sequence not in drop]
        for packet in survivors:
            depacketizer.push_packet(packet)
        report = depacketizer.loss_report()
        assert 2 in report.lost[1]
        completed = {u.object_number for u in depacketizer.completed}
        assert 2 not in completed

    def test_gap_implied_by_numbering_counts_as_lost(self):
        """Even with no fragment seen, a hole below the max is a loss."""
        depacketizer = Depacketizer()
        for number in (0, 3):
            payload = Payload(1, number, 0, 4, 0, True, b"abcd")
            depacketizer.push_packet(DataPacket(number, 0, [payload],
                                                packet_size=600))
        report = depacketizer.loss_report()
        assert report.lost[1] == [1, 2]
        assert report.delivered[1] == 2
        assert report.loss_rate(1) == pytest.approx(0.5)

    def test_stream_begun_mid_window_counts_from_its_first_object(self):
        """A downshift's rendition starts mid-file: the objects before its
        first are not lost, a hole after it still is."""
        depacketizer = Depacketizer()
        for sequence, (stream, number) in enumerate(
            [(1, 0), (1, 1), (2, 40), (2, 42)]
        ):
            if stream == 2 and number == 40:
                depacketizer.expect_stream(2)
            payload = Payload(stream, number, 0, 4, 0, True, b"abcd")
            depacketizer.push_packet(
                DataPacket(sequence, 0, [payload], packet_size=600)
            )
        report = depacketizer.loss_report()
        assert report.lost == {1: [], 2: [41]}
        assert report.loss_rate(2) == pytest.approx(1 / 3)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=2_000),
                   min_size=1, max_size=12),
    drop=st.sets(st.integers(min_value=0, max_value=11)),
)
def test_packetize_drop_k_loss_report_exact(sizes, drop):
    """packetize → drop the packets carrying k objects → the loss report
    names exactly those objects, and every other object survives intact."""
    units = [
        MediaUnit(1, i, i * 50, True, bytes([i % 251]) * size)
        for i, size in enumerate(sizes)
    ]
    packets = Packetizer(packet_size=600).packetize([units])
    dropped_objects = {n for n in drop if n < len(units)}
    kept_packets = [
        p for p in packets
        if not any(pl.object_number in dropped_objects for pl in p.payloads)
    ]
    depacketizer = Depacketizer()
    for packet in kept_packets:
        depacketizer.push_packet(packet)

    completed = {u.object_number: u.data for u in depacketizer.completed}
    # objects sharing a packet with a dropped object may be collateral
    # damage; everything that did complete must be byte-exact
    for number, data in completed.items():
        assert data == units[number].data
    assert not (set(completed) & dropped_objects)

    report = depacketizer.loss_report()
    lost = set(report.lost.get(1, []))
    seen_or_done = lost | set(completed)
    if seen_or_done:
        highest = max(seen_or_done)
        # dense numbering: the report covers every hole up to the highest
        assert lost == set(range(highest + 1)) - set(completed)
    assert report.delivered.get(1, 0) == len(completed)
