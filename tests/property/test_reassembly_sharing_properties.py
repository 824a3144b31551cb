"""Property: sharing reassembled units never changes what a receiver emits.

K depacketizers are fed the *same* packet objects of one ``Packetizer``
run — so they share units through ``Payload._shared`` — each under its
own schedule of drops, duplicates, reorders and replays. Every one of
them must emit exactly the units, in the order, and the loss report of a
memo-free reference on the same schedule: a depacketizer fed
``DataPacket.unpack(p.pack())`` copies, which can never share.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.asf.packets import DataPacket, MediaUnit, Packetizer
from tests.helpers import CollectingDepacketizer

OPS = ["keep"] * 6 + ["drop", "dup", "swap", "copy", "replay", "replay-suppress"]


def make_units(sizes):
    rng = random.Random(len(sizes))
    streams = ([], [])
    for i, size in enumerate(sizes):
        units = streams[i % 2]
        units.append(
            MediaUnit(1 + i % 2, len(units), 40 * i, i % 3 == 0, rng.randbytes(size))
        )
    return [units for units in streams if units]


def schedule_from(ops):
    """``(op, packet index)`` steps in delivery order. A ``copy`` reaches
    the receiver as a private unpacked packet (its bucket then mixes two
    generations of the run); a ``replay`` makes the source seek back to
    the middle of what it has sent and re-send from there."""
    steps = []
    for index, op in enumerate(ops):
        if op == "drop":
            continue
        steps.append(("copy" if op == "copy" else "push", index))
        if op == "dup":
            steps.append(("push", index))
        elif op == "swap" and len(steps) >= 2:
            steps[-1], steps[-2] = steps[-2], steps[-1]
        elif op.startswith("replay"):
            steps.append((op, index))
            steps.extend(("push", i) for i in range(index // 2, index + 1))
    return steps


def run_step(depacketizer, step, packets, *, shares):
    op, index = step
    if op.startswith("replay"):
        depacketizer.expect_replay(suppress_completed=op == "replay-suppress")
        return None
    packet = packets[index]
    if op == "copy" or not shares:
        packet = DataPacket.unpack(packet.pack())
    return depacketizer.push_packet(packet)


@settings(deadline=None, max_examples=60)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=5_000), min_size=1, max_size=10),
    packet_size=st.integers(min_value=200, max_value=3_000),
    data=st.data(),
)
def test_sharing_receivers_match_a_memo_free_reference(sizes, packet_size, data):
    packets = Packetizer(packet_size=packet_size).packetize(make_units(sizes))
    one_schedule = st.lists(
        st.sampled_from(OPS), min_size=len(packets), max_size=len(packets)
    ).map(schedule_from)
    schedules = data.draw(st.lists(one_schedule, min_size=2, max_size=4))

    sharing = [CollectingDepacketizer() for _ in schedules]
    references = [CollectingDepacketizer() for _ in schedules]
    # round-robin, so whichever receiver completes an object first fills
    # the memo and the others meet it mid-schedule
    for tick in range(max(map(len, schedules))):
        for receiver, reference, steps in zip(sharing, references, schedules):
            if tick >= len(steps):
                continue
            assert run_step(
                receiver, steps[tick], packets, shares=True
            ) == run_step(reference, steps[tick], packets, shares=False)
    for receiver, reference in zip(sharing, references):
        assert receiver.units == reference.units
        assert receiver.loss_report() == reference.loss_report()
        assert receiver.suppressed_duplicates == reference.suppressed_duplicates
    # a fault-free pass over the same run now takes every unit as it is
    first, second = CollectingDepacketizer(), CollectingDepacketizer()
    for packet in packets:
        first.push_packet(packet)
        second.push_packet(packet)
    assert all(a is b for a, b in zip(first.units, second.units))
    assert len(first.units) == len(sizes)
