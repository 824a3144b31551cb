"""Property: receive plans never change what a receiver emits.

Receivers share one ``Packetizer`` run — and so its receive plans — each
under its own generated schedule: a start point anywhere in the run,
then per packet keep, drop, duplicate, swap with the next, a private
unpacked copy, a replay (a seek back) with or without suppression of
completed objects, or a deep-copy split that leaves a twin finishing the
same schedule. An identical but separate run is fed through the
per-payload depacketizer the plans replaced (the oracle in
``tests/test_receive_plans.py``) on the same schedules, in the same
interleaving. Every receiver must emit the oracle's units step by step,
identical by ``is`` wherever the oracle shares them, and end with its
loss report, suppressed duplicates and gap callbacks.
"""

import copy

from hypothesis import given, settings, strategies as st

from repro.asf.packets import DataPacket, Depacketizer, Packetizer
from tests.test_receive_plans import (
    SeedDepacketizer,
    assert_matches_seed,
    counting_plans,
    make_units,
)

OPS = ["keep"] * 8 + ["drop", "dup", "swap", "copy", "replay", "suppress", "split"]


def schedule_from(start, ops):
    """``(op, packet index)`` steps in delivery order, from ``start``."""
    steps = []
    for index, op in enumerate(ops[start:], start):
        if op == "drop":
            continue
        steps.append(("copy" if op == "copy" else "push", index))
        if op == "dup":
            steps.append(("push", index))
        elif op == "swap" and len(steps) >= 2:
            steps[-1], steps[-2] = steps[-2], steps[-1]
        elif op in ("replay", "suppress"):
            steps.append((op, index))
            steps.extend(("push", i) for i in range(index // 2, index + 1))
        elif op == "split":
            steps.append(("split", index))
    return steps


class Receiver:
    """One receiver and its oracle twin, walking one schedule."""

    def __init__(self, steps, new, seed):
        self.steps, self.at = steps, 0
        self.new, self.seed = new, seed
        self.gaps = ([], [])
        new.on_gap, seed.on_gap = self.gaps[0].append, self.gaps[1].append

    def step(self, run, twin, receivers):
        op, index = self.steps[self.at]
        self.at += 1
        if op in ("replay", "suppress"):
            self.new.expect_replay(suppress_completed=op == "suppress")
            self.seed.expect_replay(suppress_completed=op == "suppress")
        elif op == "split":
            # what MediaPlayer.split_member does: detach the gap hook,
            # deep-copy the depacketizer, re-attach
            clones = []
            for depacketizer in (self.new, self.seed):
                hook, depacketizer.on_gap = depacketizer.on_gap, None
                clones.append(copy.deepcopy(depacketizer))
                depacketizer.on_gap = hook
            clone = Receiver(self.steps, *clones)
            clone.at = self.at
            receivers.append(clone)
        else:
            packet, seed_packet = run[index], twin[index]
            if op == "copy":
                packet = DataPacket.unpack(packet.pack())
                seed_packet = DataPacket.unpack(seed_packet.pack())
            assert self.new.push_packet(packet) == self.seed.push_packet(seed_packet)

    @property
    def done(self):
        return self.at >= len(self.steps)


def make_run(sizes, packet_size):
    return Packetizer(packet_size=packet_size).packetize(make_units(sizes))


@settings(deadline=None, max_examples=80)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=5_000), min_size=1, max_size=12),
    packet_size=st.integers(min_value=200, max_value=3_000),
    data=st.data(),
)
def test_receivers_emit_what_the_per_payload_loop_emits(sizes, packet_size, data):
    run, twin = make_run(sizes, packet_size), make_run(sizes, packet_size)
    n = len(run)
    one_schedule = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.lists(st.sampled_from(OPS), min_size=n, max_size=n),
    ).map(lambda drawn: schedule_from(*drawn))
    schedules = data.draw(st.lists(one_schedule, min_size=2, max_size=5))
    receivers = [Receiver(s, Depacketizer(), SeedDepacketizer()) for s in schedules]
    # a random interleaving: whichever receiver reaches a packet first
    # builds its plan, and the others meet it mid-schedule
    rng = data.draw(st.randoms(use_true_random=False))
    while not all(r.done for r in receivers):
        rng.choice([r for r in receivers if not r.done]).step(run, twin, receivers)
    assert_matches_seed([r.new for r in receivers], [r.seed for r in receivers])
    for r in receivers:
        assert r.gaps[0] == r.gaps[1]


@settings(deadline=None, max_examples=40)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=5_000), min_size=1, max_size=12),
    packet_size=st.integers(min_value=200, max_value=3_000),
    receivers=st.integers(min_value=2, max_value=6),
)
def test_in_order_receivers_build_one_plan_per_packet(sizes, packet_size, receivers):
    run = make_run(sizes, packet_size)
    group = [Depacketizer() for _ in range(receivers)]
    with counting_plans() as built:
        for packet in run:
            outputs = [receiver.push_packet(packet) for receiver in group]
            assert all(
                len(out) == len(outputs[0])
                and all(a is b for a, b in zip(out, outputs[0]))
                for out in outputs
            )
    # the first receiver only marks each packet, the second builds its plan
    assert built == [packet.sequence for packet in run]
    assert len(group[0].completed) == len(sizes)
