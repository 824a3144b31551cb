"""Property-based tests on the ASF container wire format.

Random streams of media units must survive packetize → (binary round
trip) → depacketize byte-for-byte; DRM scrambling must be involutive and
size-preserving; script-command tables must round-trip in order.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.asf.drm import scramble
from repro.asf.packets import (
    DataPacket,
    Depacketizer,
    MediaUnit,
    Packetizer,
)
from repro.asf.script_commands import (
    ScriptCommand,
    pack_command_table,
    unpack_command_table,
)
from repro.asf.wire import Reader
from tests.helpers import units_for


def random_units(seed: int):
    rng = random.Random(seed)
    streams = rng.sample(range(1, 20), rng.randint(1, 3))
    unit_lists = []
    for stream in streams:
        units = []
        ts = 0
        for number in range(rng.randint(1, 12)):
            ts += rng.randint(10, 500)
            size = rng.randint(1, 4000)
            payload = bytes(rng.getrandbits(8) for _ in range(size))
            units.append(MediaUnit(stream, number, ts, rng.random() < 0.3, payload))
        unit_lists.append(units)
    return unit_lists


@settings(deadline=None, max_examples=30)
@given(
    st.integers(min_value=0, max_value=100_000),
    st.integers(min_value=200, max_value=3_000),
)
def test_packetize_depacketize_lossless(seed, packet_size):
    unit_lists = random_units(seed)
    packets = Packetizer(packet_size=packet_size).packetize(unit_lists)
    depacketizer = Depacketizer()
    for packet in packets:
        depacketizer.push_packet(packet)
    for units in unit_lists:
        stream = units[0].stream_number
        got = sorted(
            units_for(depacketizer, stream), key=lambda u: u.object_number
        )
        assert got == units


@settings(deadline=None, max_examples=30)
@given(
    st.integers(min_value=0, max_value=100_000),
    st.integers(min_value=200, max_value=3_000),
)
def test_packets_binary_round_trip(seed, packet_size):
    unit_lists = random_units(seed)
    packets = Packetizer(packet_size=packet_size).packetize(unit_lists)
    for packet in packets:
        blob = packet.pack()
        assert len(blob) == packet_size
        clone = DataPacket.unpack(blob)
        assert clone.sequence == packet.sequence
        assert clone.send_time_ms == packet.send_time_ms
        assert clone.payloads == packet.payloads


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=100_000))
def test_send_times_monotone(seed):
    unit_lists = random_units(seed)
    packets = Packetizer().packetize(unit_lists)
    times = [p.send_time_ms for p in packets]
    assert times == sorted(times)


@settings(deadline=None, max_examples=50)
@given(st.binary(max_size=5_000), st.text(min_size=1, max_size=20))
def test_scramble_involutive_and_size_preserving(data, key):
    once = scramble(data, key)
    assert len(once) == len(data)
    assert scramble(once, key) == data


@given(st.binary(min_size=16, max_size=1_000), st.text(min_size=1, max_size=10))
def test_scramble_changes_content(data, key):
    # a single byte can coincide with a zero keystream byte (1/256), but a
    # 16-byte zero keystream prefix is 2^-128 — effectively impossible
    assert scramble(data, key) != data


commands = st.lists(
    st.builds(
        ScriptCommand,
        st.integers(min_value=0, max_value=10**7),
        st.sampled_from(["SLIDE", "CAPTION", "URL", "ANNOTATION"]),
        st.text(max_size=30),
    ),
    max_size=20,
)


@given(commands)
def test_command_table_round_trip_sorted(cmds):
    table = pack_command_table(cmds)
    decoded = unpack_command_table(table)
    assert decoded == sorted(cmds)
