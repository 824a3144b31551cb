"""Property: the duplicate filter's sequence runs act as the plain set.

``Depacketizer`` remembers the sequences seen since the last replay as
sorted half-open runs ``[lo, hi)``, not one set entry per packet. Generated
arrival orders — in order, duplicated, swapped, dropped, NAK-repaired some
packets later, a replay with or without suppression of completed objects,
a deep copy that carries on in place of the original — are fed to it and
to the per-payload oracle of ``tests/test_receive_plans.py``, which keeps a
plain ``set``. Step by step both emit the same units and the same gap
callbacks, and end with the same loss report; the runs hold exactly the
oracle's set and number at most its gaps + 1.
"""

import copy

from hypothesis import given, settings, strategies as st

from repro.asf.packets import Packetizer
from tests.test_receive_plans import SeedDepacketizer, make_units
from tests.helpers import CollectingDepacketizer

OPS = ["keep"] * 6 + ["drop", "dup", "swap", "repair", "replay", "suppress", "copy"]


def schedule_from(ops, lags):
    """``(op, packet index)`` steps in arrival order; a ``repair`` arrives
    after the packet ``lag`` places later (or at the end)."""
    steps, late = [], []
    for index, (op, lag) in enumerate(zip(ops, lags)):
        if op == "repair":
            late.append((index + lag, index))
        elif op != "drop":
            steps.append(("push", index))
        if op == "dup":
            steps.append(("push", index))
        elif op == "swap" and len(steps) >= 2:
            steps[-1], steps[-2] = steps[-2], steps[-1]
        elif op in ("replay", "suppress"):
            steps.append((op, index))
            steps.extend(("push", i) for i in range(index // 2, index + 1))
        elif op == "copy":
            steps.append(("copy", index))
        steps.extend(("push", lost) for due, lost in late if due == index)
    steps.extend(("push", lost) for due, lost in late if due >= len(ops))
    return steps


def runs_of(sequences):
    """A set of sequences as the flat sorted bounds of its maximal runs."""
    bounds = []
    for sequence in sorted(sequences):
        if bounds and bounds[-1] == sequence:
            bounds[-1] = sequence + 1
        else:
            bounds += [sequence, sequence + 1]
    return bounds


def gaps_in(sequences):
    """Maximal runs of unseen sequences below the highest seen."""
    ordered = sorted(sequences)
    return sum(1 for a, b in zip(ordered, ordered[1:]) if b > a + 1)


def split(depacketizer):
    """A deep copy that carries on in its place, as ``MediaPlayer.split_member``
    makes it: the gap hook is detached around the copy."""
    hook, depacketizer.on_gap = depacketizer.on_gap, None
    clone = copy.deepcopy(depacketizer)
    clone.on_gap = hook
    return clone


def assert_runs_match(receiver, seed):
    assert receiver._runs == runs_of(seed._seen_sequences)
    assert len(receiver._runs) // 2 <= gaps_in(seed._seen_sequences) + 1
    assert receiver._max_sequence == seed._max_sequence


@settings(deadline=None, max_examples=80)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=4_000), min_size=1, max_size=14),
    packet_size=st.integers(min_value=200, max_value=2_000),
    data=st.data(),
)
def test_runs_filter_what_a_set_filters(sizes, packet_size, data):
    run = Packetizer(packet_size=packet_size).packetize(make_units(sizes))
    twin = Packetizer(packet_size=packet_size).packetize(make_units(sizes))
    n = len(run)
    ops = data.draw(st.lists(st.sampled_from(OPS), min_size=n, max_size=n))
    lags = data.draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    gaps = ([], [])
    receiver = CollectingDepacketizer()
    receiver.on_gap = gaps[0].append
    seed = SeedDepacketizer(on_gap=gaps[1].append)
    for op, index in schedule_from(ops, lags):
        if op in ("replay", "suppress"):
            receiver.expect_replay(suppress_completed=op == "suppress")
            seed.expect_replay(suppress_completed=op == "suppress")
        elif op == "copy":
            receiver, seed = split(receiver), split(seed)
        else:
            assert receiver.push_packet(run[index]) == seed.push_packet(twin[index])
        assert_runs_match(receiver, seed)
    assert receiver.units == seed.units
    assert receiver.loss_report() == seed.loss_report()
    assert gaps[0] == gaps[1]


@settings(deadline=None, max_examples=20)
@given(sizes=st.lists(st.integers(min_value=1, max_value=4_000), min_size=1, max_size=30))
def test_a_loss_free_playback_is_one_run(sizes):
    run = Packetizer(packet_size=600).packetize(make_units(sizes))
    receiver = CollectingDepacketizer()
    for packet in run:
        receiver.push_packet(packet)
    assert receiver._runs == [run[0].sequence, run[-1].sequence + 1]
    report = receiver.loss_report()
    assert all(lost == [] for lost in report.lost.values())
