"""Property: a train received as one is the train received packet by packet.

A wire message carries a train, the packets of one message in the order
sent, and every receiver takes it whole. Three receive layers take a
train in one call, and each is checked here against packet-by-packet
receipt over generated arrivals:

* ``Depacketizer.push_train`` against ``push_packet`` per packet, on an
  identical but separate packet run. The arrivals are kept, dropped,
  duplicated, swapped, NAK-repaired some packets later, copied, replayed
  (with or without suppression of completed objects) or split by a deep
  copy. Several receivers share each run's plans, in a random
  interleaving. Train by train both emit the same units, identical by
  ``is`` wherever the per-packet receivers share one, and they end with
  the same gap callbacks, ``completed``, ``suppressed_duplicates`` and
  loss report. The per-payload oracle of ``tests/test_receive_plans.py``
  walks the same schedule too, and the duplicate filter's runs hold its
  set of sequences after every train. Half the runs are walked first by
  two receivers, so every plan is built and the generated receivers
  follow them inline.
* ``JitterBuffer``, a sorted run, against the seed's
  ``(timestamp, arrival, unit)`` heap, copied here, under interleaved
  pushes, extends, pops, clears, late units and equal timestamps.
* ``RecoveryClient.take_train``, which notes a train and walks it,
  against the seed's per-packet ``note_arrival(sequence)`` before each
  push. Both end every train with the same units, repairs received,
  pending gaps and attempts, NAKs and NAK timer.

Trains ascend, as a server paces them, or not, as a relay's live
catch-up history ships a repair behind later sequences.

Two fixed cases stay beside them: a suppressing replay follows no plan,
also in a train that begins after one the replay already took; and a
catch-up train's repair behind later sequences leaves no gap pending.
"""

import copy
import heapq
import itertools
import sys
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from repro.asf.packets import DataPacket, Depacketizer, MediaUnit, Packetizer
from repro.media.clock import media_ms
from repro.net.engine import Simulator
from repro.streaming import RecoveryClient, RecoveryConfig
from repro.streaming.buffer import JitterBuffer
from tests.property.test_sequence_runs_properties import assert_runs_match
from tests.test_receive_plans import SeedDepacketizer, assert_matches_seed, make_units

OPS = ["keep"] * 8 + [
    "drop", "dup", "swap", "repair", "copy", "replay", "suppress", "split",
]


def schedule_from(ops, lags, cuts, ascending=True):
    """Arrival steps for one receiver, trains cut at ``cuts`` lengths.

    ``("train", [(private copy?, packet index), ...])`` is one wire
    message, in sequence order unless not ``ascending``: a relay's live
    catch-up history keeps a repair where it arrived, after later
    sequences. ``("replay" | "suppress" | "split", None)`` happen between
    messages. A ``repair`` arrives ``lag`` packets later (or at the
    end)."""
    arrivals, late = [], []
    for index, (op, lag) in enumerate(zip(ops, lags)):
        if op == "repair":
            late.append((index + lag, index))
        elif op != "drop":
            arrivals.append((op == "copy", index))
        if op == "dup":
            arrivals.append((False, index))
        elif op == "swap" and len(arrivals) >= 2:
            arrivals[-1], arrivals[-2] = arrivals[-2], arrivals[-1]
        elif op in ("replay", "suppress", "split"):
            arrivals.append((op, None))
            if op != "split":
                arrivals.extend((False, i) for i in range(index // 2, index + 1))
        arrivals.extend((False, lost) for due, lost in late if due == index)
    arrivals.extend((False, lost) for due, lost in late if due >= len(ops))
    steps, train, sizes = [], [], itertools.cycle(cuts)
    size = next(sizes)
    for kind, index in arrivals:
        # an ascending train: an arrival at or below the last starts the next
        if index is None or len(train) == size or (
            ascending and train and index <= train[-1][1]
        ):
            if train:
                steps.append(("train", train))
            train, size = [], next(sizes)
        if index is None:
            steps.append((kind, None))
        else:
            train.append((kind, index))
    if train:
        steps.append(("train", train))
    return steps


class Receiver:
    """One schedule walked three ways: a train at a time, packet by packet
    on the twin run, and by the per-payload oracle on a third run."""

    def __init__(self, steps, trains, packets, seed):
        self.steps, self.at = steps, 0
        self.trains, self.packets, self.seed = trains, packets, seed
        self.gaps = ([], [], [])
        for receiver, gaps in zip((trains, packets, seed), self.gaps):
            receiver.on_gap = gaps.append

    def step(self, runs, receivers):
        op, train = self.steps[self.at]
        self.at += 1
        sides = (self.trains, self.packets, self.seed)
        if op in ("replay", "suppress"):
            for receiver in sides:
                receiver.expect_replay(suppress_completed=op == "suppress")
            return
        if op == "split":
            # what MediaPlayer.split_member does: detach the gap hook,
            # deep-copy the depacketizer, re-attach
            clones = []
            for receiver in sides:
                hook, receiver.on_gap = receiver.on_gap, None
                clones.append(copy.deepcopy(receiver))
                receiver.on_gap = hook
            clone = Receiver(self.steps, *clones)
            clone.at = self.at
            receivers.append(clone)
            return
        messages = []
        for run in runs:
            packets = [run[index] for _, index in train]
            messages.append([
                DataPacket.unpack(p.pack()) if private else p
                for p, (private, _) in zip(packets, train)
            ])
        got = self.trains.push_train(messages[0])
        want = [u for p in messages[1] for u in self.packets.push_packet(p)]
        seed = [u for p in messages[2] for u in self.seed.push_packet(p)]
        assert got == want == seed
        assert_runs_match(self.trains, self.seed)

    @property
    def done(self):
        return self.at >= len(self.steps)


def make_run(sizes, packet_size):
    return Packetizer(packet_size=packet_size).packetize(make_units(sizes))


@settings(deadline=None, max_examples=80)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=5_000), min_size=1, max_size=14),
    packet_size=st.integers(min_value=200, max_value=3_000),
    led=st.booleans(),
    data=st.data(),
)
def test_a_train_yields_what_its_packets_yield_one_by_one(
    sizes, packet_size, led, data
):
    runs = [make_run(sizes, packet_size) for _ in range(3)]
    if led:
        # two receivers walk each run first: one marks every packet, the
        # next builds its plan, so every generated receiver can follow
        for run in runs:
            for receiver in (Depacketizer(), Depacketizer()):
                receiver.push_train(run)
    n = len(runs[0])
    one_schedule = st.tuples(
        st.lists(st.sampled_from(OPS), min_size=n, max_size=n),
        st.lists(st.integers(min_value=1, max_value=6), min_size=n, max_size=n),
        st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=4),
        st.booleans(),
    ).map(lambda drawn: schedule_from(*drawn))
    schedules = data.draw(st.lists(one_schedule, min_size=1, max_size=4))
    receivers = [
        Receiver(s, Depacketizer(), Depacketizer(), SeedDepacketizer())
        for s in schedules
    ]
    # whichever receiver reaches a packet first marks it, the next builds
    # its plan, and the others meet it mid-train
    rng = data.draw(st.randoms(use_true_random=False))
    while not all(r.done for r in receivers):
        rng.choice([r for r in receivers if not r.done]).step(runs, receivers)
    trains = [r.trains for r in receivers]
    assert_matches_seed(trains, [r.packets for r in receivers])
    assert_matches_seed(trains, [r.seed for r in receivers])
    for r in receivers:
        assert r.gaps[0] == r.gaps[1] == r.gaps[2]


@settings(deadline=None, max_examples=40)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=5_000), min_size=1, max_size=12),
    packet_size=st.integers(min_value=200, max_value=3_000),
    receivers=st.integers(min_value=2, max_value=5),
    cut=st.integers(min_value=1, max_value=12),
)
def test_in_order_trains_follow_one_plan_per_packet(sizes, packet_size, receivers, cut):
    run = make_run(sizes, packet_size)
    group = [Depacketizer() for _ in range(receivers)]
    for start in range(0, len(run), cut):
        train = run[start:start + cut]
        outputs = [receiver.push_train(train) for receiver in group]
        assert all(
            len(out) == len(outputs[0])
            and all(a is b for a, b in zip(out, outputs[0]))
            for out in outputs
        )
    # every follower is still on the chain the second receiver built
    assert all(r._serial == group[1]._serial for r in group[1:])
    assert all(len(r.completed) == len(sizes) for r in group)


# ----------------------------------------------------------------------
# the jitter buffer against the seed's heap
# ----------------------------------------------------------------------


class SeedJitterBuffer:
    """The seed's buffer: a heap of ``(timestamp, arrival, unit)``."""

    def __init__(self):
        self._heap = []
        self._seq = itertools.count()
        self.horizon_ms = {}

    def push(self, unit):
        timestamp = unit.timestamp_ms
        heapq.heappush(self._heap, (timestamp, next(self._seq), unit))
        stream = unit.stream_number
        if timestamp > self.horizon_ms.get(stream, -1):
            self.horizon_ms[stream] = timestamp

    def __len__(self):
        return len(self._heap)

    def pop_due_ms(self, due_ms):
        out = []
        while self._heap and self._heap[0][0] <= due_ms:
            out.append(heapq.heappop(self._heap)[2])
        return out

    def runway_ms(self, pos_ms, streams):
        horizons = [self.horizon_ms.get(s) for s in streams]
        if not horizons or None in horizons:
            return None
        return min(horizons) - pos_ms

    def depth(self, position):
        runway = self.runway_ms(media_ms(position), list(self.horizon_ms))
        return 0.0 if runway is None else max(0.0, runway / 1000.0)

    def clear(self):
        self._heap.clear()
        self.horizon_ms.clear()


BUFFER_OPS = st.lists(
    st.one_of(
        # a unit at, behind or ahead of the frontier: in order, late, equal
        st.tuples(st.just("push"), st.integers(1, 3), st.integers(-400, 300)),
        st.tuples(
            st.just("extend"),
            st.lists(st.tuples(st.integers(1, 3), st.integers(-400, 300)), max_size=12),
        ),
        st.tuples(st.just("pop"), st.integers(-100, 600)),
        st.tuples(st.just("clear")),
    ),
    max_size=60,
)


@settings(deadline=None, max_examples=150)
@given(ops=BUFFER_OPS)
def test_the_sorted_run_answers_what_the_heap_answers(ops):
    buffer, seed = JitterBuffer(), SeedJitterBuffer()
    frontier, playhead, number = 0, 0, itertools.count()

    def unit(stream, offset):
        nonlocal frontier
        # a coarse 20 ms grid, so equal timestamps are common
        timestamp = max(0, frontier + offset) // 20 * 20
        frontier = max(frontier, timestamp)
        return MediaUnit(stream, next(number), timestamp, True, b"")

    for op in ops:
        if op[0] == "push":
            u = unit(op[1], op[2])
            buffer.push(u)
            seed.push(u)
        elif op[0] == "extend":
            units = [unit(stream, offset) for stream, offset in op[1]]
            buffer.extend(units)
            for u in units:
                seed.push(u)
        elif op[0] == "pop":
            playhead = max(0, playhead + op[1])
            got, want = buffer.pop_due_ms(playhead), seed.pop_due_ms(playhead)
            assert len(got) == len(want)
            assert all(a is b for a, b in zip(got, want))
        else:
            buffer.clear()
            seed.clear()
        assert len(buffer) == len(seed)
        for streams in ([1], [1, 2], [1, 2, 3], []):
            assert buffer.runway_ms(playhead, streams) == seed.runway_ms(
                playhead, streams
            )
        assert buffer.depth(playhead / 1000.0) == seed.depth(playhead / 1000.0)
    rest, seed_rest = buffer.pop_due_ms(sys.maxsize), seed.pop_due_ms(sys.maxsize)
    assert len(rest) == len(seed_rest)
    assert all(a is b for a, b in zip(rest, seed_rest))
    assert len(buffer) == 0


# ----------------------------------------------------------------------
# noting a train against noting each packet
# ----------------------------------------------------------------------


def seed_note_arrival(client, sequence):
    """The seed's ``RecoveryClient.note_arrival(sequence)``."""
    client.last_arrival = client.simulator.now
    if client._pending.pop(sequence, None) is not None:
        client.counters.inc("repairs_received")
        if not client._pending:
            client._cancel_timer()


def tight_naks():
    """Two NAK attempts 0.1 s apart: the budget a :class:`Noted` runs on,
    patched over :class:`RecoveryConfig`'s constants for one test body."""
    return patch.multiple(RecoveryConfig, nak_timeout=0.1, nak_budget=2)


class Noted:
    """A receiver with a NAK loop, as the player wires one (inside
    :func:`tight_naks`)."""

    def __init__(self, runway):
        self.sim = Simulator()
        self.naks = []
        self.recovery = RecoveryClient(
            self.sim,
            RecoveryConfig(),
            send_nak=self.naks.append,
            runway=lambda: runway,
            on_downshift=lambda: False,
        )
        self.depacketizer = Depacketizer()
        self.depacketizer.on_gap = self.recovery.observe_gaps

    def state(self):
        timer = self.recovery._timer
        return (
            dict(self.recovery._pending),
            self.recovery.counters.as_dict(),
            None if timer is None else timer.time,
            list(self.naks),
            self.recovery.last_arrival,
        )


@settings(deadline=None, max_examples=100)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=4_000), min_size=2, max_size=14),
    data=st.data(),
)
def test_noting_a_train_is_noting_each_packet(sizes, data):
    with tight_naks():
        trains_run, packets_run = make_run(sizes, 600), make_run(sizes, 600)
        n = len(trains_run)
        ops = data.draw(st.lists(
            st.sampled_from(["keep"] * 5 + ["drop", "dup", "swap", "repair", "replay"]),
            min_size=n, max_size=n,
        ))
        lags = data.draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
        cuts = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
        gaps = data.draw(st.lists(st.sampled_from([0.0, 0.02, 0.05, 0.15]), min_size=1))
        runway = data.draw(st.sampled_from([0.0, 10.0]))
        ascending = data.draw(st.booleans())
        by_train, by_packet = Noted(runway), Noted(runway)
        steps = schedule_from(ops, lags, cuts, ascending)
        for step, (op, train) in enumerate(steps):
            dt = gaps[step % len(gaps)]
            for side in (by_train, by_packet):
                side.sim.run_until(side.sim.now + dt)
            if op == "replay":
                # what a seek does: forget the sequences, then the gaps
                for side in (by_train, by_packet):
                    side.depacketizer.expect_replay()
                    side.recovery.reset()
                continue
            message = [trains_run[index] for _, index in train]
            got = by_train.recovery.take_train(
                message, by_train.depacketizer.push_train
            )
            want = []
            for _, index in train:
                packet = packets_run[index]
                seed_note_arrival(by_packet.recovery, packet.sequence)
                want += by_packet.depacketizer.push_packet(packet)
            assert got == want
            assert by_train.state() == by_packet.state()
        for side in (by_train, by_packet):
            side.sim.run_until(side.sim.now + 2.0)
        assert by_train.state() == by_packet.state()


def test_a_suppressing_replay_follows_no_plan_across_trains():
    # whole objects only: every packet boundary has nothing open, so every
    # plan starts from serial 0, the state a suppressing receiver is in
    runs = [make_run([10] * 30, 300) for _ in range(2)]
    for receiver in (Depacketizer(), Depacketizer()):
        receiver.push_train(runs[0])
    assert all(packet._plan.prev == 0 for packet in runs[0])
    got, seed = Depacketizer(), SeedDepacketizer()
    got.push_train(runs[0][:4])
    for packet in runs[1][:4]:
        seed.push_packet(packet)
    got.expect_replay(suppress_completed=True)
    seed.expect_replay(suppress_completed=True)
    # the second train continues the first in order, on plans from serial
    # 0: only the replay's suppression keeps it off them
    for lo, hi in ((1, 2), (2, 5)):
        want = [u for p in runs[1][lo:hi] for u in seed.push_packet(p)]
        assert got.push_train(runs[0][lo:hi]) == want
    assert_matches_seed([got], [seed])


def test_a_repair_behind_later_sequences_in_a_catch_up_train_is_no_gap():
    with tight_naks():
        # a relay's live catch-up history: 8 and 9 were NAK-repaired, so
        # they sit behind 10 and 11 in the relay's stream and in the train
        # it ships
        runs = [make_run([900] * 8, 600) for _ in range(2)]
        order = [*range(8), 10, 11, 8, 9, 12]
        by_train, by_packet = Noted(10.0), Noted(10.0)
        got = by_train.recovery.take_train(
            [runs[0][i] for i in order], by_train.depacketizer.push_train
        )
        want = []
        for i in order:
            seed_note_arrival(by_packet.recovery, runs[1][i].sequence)
            want += by_packet.depacketizer.push_packet(runs[1][i])
        assert got == want
        assert by_train.state() == by_packet.state()
        counters = by_train.recovery.counters.as_dict()
        assert counters["gaps_observed"] == counters["repairs_received"] == 2
        for side in (by_train, by_packet):
            side.sim.run_until(2.0)
        assert by_train.state() == by_packet.state()
        assert not by_train.recovery._pending and not by_train.naks
