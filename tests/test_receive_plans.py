"""Depacketize once per packet run: shared receive plans, sliced trains.

The second receiver to reach a packet in sequence leaves a receive plan
on it (``DataPacket._plan``; the first only marks it); every receiver
whose open objects are the plan's starting state then takes the plan's
units without touching a payload. On the sending side an unthinned train
is a slice of the run.

The oracle is the per-payload depacketizer the plans replaced, copied
here (:class:`SeedDepacketizer`; since then only its loss report changed,
to count per delivery window) and fed an identical but
separate packet run: every receiver must emit what it emits — equal
units, identical by ``is`` wherever it shares them, the same loss report,
suppressed duplicates and gap callbacks.
"""

import contextlib
import copy
import gc
import pickle
import random
import weakref
from dataclasses import fields
from typing import Dict, List, Optional, Tuple

from repro.asf import ASFEncoder, EncoderConfig, slide_commands
from repro.asf import packets as packets_module
from repro.asf.packets import (
    DataPacket,
    Depacketizer,
    LossReport,
    MediaUnit,
    Packetizer,
    Payload,
)
from repro.media import AudioObject, ImageObject, VideoObject, get_profile
from repro.streaming import MediaPlayer, MediaServer
from repro.streaming.server import _PointSchedule
from repro.web import VirtualNetwork


# ---------------------------------------------------------------------------
# the oracle: the per-payload depacketizer, as it was before receive plans
# ---------------------------------------------------------------------------


def _seed_reassemble(bucket: Dict[int, Payload], last: Payload) -> MediaUnit:
    head = bucket.get(0)
    memo = head._shared if head is not None else None
    if memo is not None:
        rest, unit = memo
        if len(rest) + 1 == len(bucket) and all(
            bucket.get(fragment.offset) is fragment for fragment in rest
        ):
            return unit
    parts = [bucket[offset] for offset in sorted(bucket)]
    data = b"".join(part.data for part in parts)
    unit = MediaUnit(
        last.stream_number,
        last.object_number,
        last.timestamp_ms,
        last.keyframe,
        data[: last.object_size],
    )
    if (
        parts[0] is head
        and all(
            part.timestamp_ms == last.timestamp_ms
            and part.keyframe == last.keyframe
            and part.object_size == last.object_size
            for part in parts
        )
    ):
        object.__setattr__(head, "_shared", (tuple(parts[1:]), unit))
    return unit


class SeedDepacketizer:
    """``Depacketizer`` before receive plans: the per-payload loop only."""

    def __init__(self, *, on_gap=None) -> None:
        self._fragments: Dict[Tuple[int, int], Dict[int, Payload]] = {}
        self._have: Dict[Tuple[int, int], int] = {}
        self.completed: List[MediaUnit] = []
        #: per delivery window, the object numbers seen in it per stream
        self._seen_objects: List[Dict[int, set]] = [{}]
        #: ... and those completed in it
        self._window_done: List[Dict[int, set]] = [{}]
        self._completed_objects: Dict[int, set] = {}
        self._seen_sequences: set = set()
        self._max_sequence: Optional[int] = None
        self._suppress_completed = False
        self.suppressed_duplicates = 0
        self.on_gap = on_gap

    def expect_replay(self, *, suppress_completed: bool = False) -> None:
        self._seen_sequences.clear()
        self._max_sequence = None
        self._suppress_completed = suppress_completed
        self._seen_objects.append({})
        self._window_done.append({})

    def push_packet(self, packet: DataPacket) -> List[MediaUnit]:
        if packet.sequence in self._seen_sequences:
            return []
        self._seen_sequences.add(packet.sequence)
        if self.on_gap is not None and self._max_sequence is not None:
            if packet.sequence > self._max_sequence + 1:
                missing = [
                    seq
                    for seq in range(self._max_sequence + 1, packet.sequence)
                    if seq not in self._seen_sequences
                ]
                if missing:
                    self.on_gap(missing)
        if self._max_sequence is None or packet.sequence > self._max_sequence:
            self._max_sequence = packet.sequence
        finished: List[MediaUnit] = []
        fragments = self._fragments
        stream = seen = done = None
        for payload in packet.payloads:
            if payload.stream_number != stream:
                stream = payload.stream_number
                seen = self._seen_objects[-1].setdefault(stream, set())
                done = self._completed_objects.setdefault(stream, set())
            key = (stream, payload.object_number)
            if self._suppress_completed and payload.object_number in done:
                self.suppressed_duplicates += 1
                continue
            seen.add(payload.object_number)
            if payload.is_complete_object and key not in fragments:
                memo = payload._shared
                if memo is None:
                    unit = MediaUnit(
                        stream,
                        payload.object_number,
                        payload.timestamp_ms,
                        payload.keyframe,
                        payload.data,
                    )
                    object.__setattr__(payload, "_shared", ((), unit))
                else:
                    unit = memo[1]
                finished.append(unit)
                self.completed.append(unit)
                done.add(payload.object_number)
                self._window_done[-1].setdefault(stream, set()).add(
                    payload.object_number
                )
                continue
            bucket = fragments.setdefault(key, {})
            old = bucket.get(payload.offset)
            bucket[payload.offset] = payload
            have = self._have.get(key, 0) + len(payload.data)
            if old is not None:
                have -= len(old.data)
            self._have[key] = have
            if have >= payload.object_size:
                unit = _seed_reassemble(bucket, payload)
                finished.append(unit)
                self.completed.append(unit)
                done.add(payload.object_number)
                self._window_done[-1].setdefault(stream, set()).add(
                    payload.object_number
                )
                del fragments[key]
                del self._have[key]
        return finished

    def loss_report(self) -> LossReport:
        # a window spans from object 0 (the first) or its lowest completed
        # object to its highest completed one, or its highest seen while
        # no replay has closed it
        expected: Dict[int, set] = {}
        last = len(self._seen_objects) - 1
        for index, (seen, done) in enumerate(
            zip(self._seen_objects, self._window_done)
        ):
            for stream, numbers in seen.items():
                completed = done.get(stream, set())
                top = numbers if index == last else completed
                if not top or (index and not completed):
                    continue
                low = min(completed) if index else 0
                expected.setdefault(stream, set()).update(range(low, max(top) + 1))
        report = LossReport()
        for stream, numbers in expected.items():
            done = self._completed_objects.get(stream, set())
            report.delivered[stream] = len(done)
            report.lost[stream] = sorted(numbers - done)
        return report


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def make_units(sizes, streams=3):
    """Objects of ``sizes`` dealt round-robin over ``streams`` streams, with
    dense object numbers per stream."""
    rng = random.Random(len(sizes))
    per_stream: List[List[MediaUnit]] = [[] for _ in range(streams)]
    for i, size in enumerate(sizes):
        units = per_stream[i % streams]
        units.append(
            MediaUnit(1 + i % streams, len(units), 40 * i, i % 4 == 0,
                      rng.randbytes(size))
        )
    return [units for units in per_stream if units]


#: video-sized objects span packets, audio-sized ones share them
SIZES = [3_000, 120, 90, 2_500, 150, 60, 4_200, 100, 80, 900, 130, 70] * 3


def make_run(sizes=SIZES, packet_size=700):
    """A fresh packet run: equal to every other run of the same arguments,
    but its own packet and payload objects."""
    return Packetizer(packet_size=packet_size).packetize(make_units(sizes))


def assert_matches_seed(receivers, seeds):
    for got, want in zip(receivers, seeds):
        assert got.completed == want.completed
        assert got.loss_report() == want.loss_report()
        assert got.suppressed_duplicates == want.suppressed_duplicates
    # identical by `is` wherever the oracle shares a unit
    groups: Dict[int, set] = {}
    for got, want in zip(receivers, seeds):
        for unit, seed_unit in zip(got.completed, want.completed):
            groups.setdefault(id(seed_unit), set()).add(id(unit))
    assert all(len(ids) == 1 for ids in groups.values())


@contextlib.contextmanager
def counting_plans():
    """Yield a list that records the sequence of every plan built inside
    the block."""
    built: List[int] = []
    plan_class = packets_module._ReceivePlan

    class Counting(plan_class):
        __slots__ = ()

        def __init__(self, packet, *args):
            built.append(packet.sequence)
            super().__init__(packet, *args)

    packets_module._ReceivePlan = Counting
    try:
        yield built
    finally:
        packets_module._ReceivePlan = plan_class


def lead(packets):
    """Walk a run once, so the next receiver to reach each packet builds
    its plan (a packet's first arrival only marks it)."""
    leader = Depacketizer()
    for packet in packets:
        leader.push_packet(packet)


def spanning_packet(packets):
    """Index of a packet in the middle of an object's fragments, in the
    second half of the run."""
    for index in range(len(packets) // 2, len(packets) - 1):
        payloads = packets[index].payloads
        if any(p.offset > 0 and p.offset + len(p.data) < p.object_size
               for p in payloads):
            return index
    raise AssertionError("run has no object spanning three packets")


def record_states(depacketizer):
    """Log the receiver's state serial after each packet it takes.

    ``push_train`` follows a train's in-order plans inline, adopting each
    plan's serial, and sends every other packet through ``_arrive``. So
    the state a packet leaves is the serial after its ``_arrive`` call or,
    for a packet followed inline, its plan's serial. The last packet's
    state is checked against the receiver's serial once the train is
    taken, so a one-packet train logs the receiver's own state."""
    states, arrived = [], []
    push, arrive = depacketizer.push_train, depacketizer._arrive

    def logged_arrive(packet):
        units = arrive(packet)
        arrived.append((packet, depacketizer._serial))
        return units

    def logged(packets):
        arrived.clear()
        units = push(packets)
        arrivals = iter(arrived)
        arrival = next(arrivals, None)
        for packet in packets:
            if arrival is not None and arrival[0] is packet:
                states.append(arrival[1])
                arrival = next(arrivals, None)
            else:
                states.append(packet._plan.serial)
        assert arrival is None
        if packets:
            assert states[-1] == depacketizer._serial
        return units

    depacketizer._arrive = logged_arrive
    depacketizer.push_train = logged
    return states


# ---------------------------------------------------------------------------
# receive plans
# ---------------------------------------------------------------------------


def test_in_order_receivers_build_exactly_one_plan_per_packet():
    run, twin = make_run(), make_run()
    assert any(not p.is_complete_object for q in run for p in q.payloads)
    receivers = [Depacketizer() for _ in range(6)]
    seeds = [SeedDepacketizer() for _ in receivers]
    with counting_plans() as built:
        # four in lock-step, then two latecomers over the whole run
        for packet, seed_packet in zip(run, twin):
            for receiver, seed in zip(receivers[:4], seeds[:4]):
                assert receiver.push_packet(packet) == seed.push_packet(seed_packet)
        for receiver, seed in zip(receivers[4:], seeds[4:]):
            for packet, seed_packet in zip(run, twin):
                receiver.push_packet(packet)
                seed.push_packet(seed_packet)
    assert built == [packet.sequence for packet in run]
    assert all(isinstance(packet._plan, packets_module._ReceivePlan)
               for packet in run)
    assert_matches_seed(receivers, seeds)
    first = receivers[0].completed
    assert len(first) == len(SIZES)
    for receiver in receivers[1:]:
        assert all(a is b for a, b in zip(receiver.completed, first))


def test_a_lone_or_off_chain_receiver_builds_no_plan():
    run, twin = make_run(), make_run()
    lost = spanning_packet(run)
    receivers = [Depacketizer() for _ in range(3)]
    seeds = [SeedDepacketizer() for _ in receivers]
    leader, lossy, follower = receivers
    with counting_plans() as built:
        # alone on the run, the leader only marks packets: the per-payload loop
        for packet, seed_packet in zip(run, twin):
            assert leader.push_packet(packet) == seeds[0].push_packet(seed_packet)
        assert built == []
        assert all(packet._plan is packets_module._REACHED for packet in run)
        # the second arrival builds plans up to its loss, then loops
        states = []
        for index, (packet, seed_packet) in enumerate(zip(run, twin)):
            if index != lost:
                assert lossy.push_packet(packet) == seeds[1].push_packet(seed_packet)
                states.append(lossy._open)
        assert built == [packet.sequence for packet in run[:lost]]
        assert lossy._serial is None and lossy._open  # private past the loss
        # ... where it updates one state of its own in place, never a copy
        # per packet: a lossy session pays O(payloads), not O(objects open)
        assert all(state is lossy._open for state in states[lost:])
        for packet, seed_packet in zip(run, twin):
            follower.push_packet(packet)
            seeds[2].push_packet(seed_packet)
    assert built == [packet.sequence for packet in run]
    assert follower._serial == 0  # on the shared chain, nothing open
    assert_matches_seed(receivers, seeds)
    assert lossy.loss_report().lost != follower.loss_report().lost


def test_loss_reorder_duplicates_and_replays_match_the_seed():
    run, twin = make_run(), make_run()
    middle = spanning_packet(run)
    n = len(run)
    schedules = {
        "in order": list(range(n)),
        "lossy": [i for i in range(n) if i != middle],
        "reordered": list(range(middle)) + [middle + 1, middle]
        + list(range(middle + 2, n)),
        "duplicated": [i for i in range(n) for _ in (0, 1)],
        "seek back": list(range(middle + 2)) + ["replay"] + list(range(2, n)),
        "seek ahead": list(range(middle)) + ["replay"]
        + list(range(n - 3, n)),
        "reconnect": list(range(middle + 2)) + ["suppress"] + list(range(n)),
        "late start": list(range(middle, n)),
    }
    receivers, seeds = [], []
    gaps: Dict[str, Tuple[list, list]] = {}
    for name in schedules:
        gaps[name] = ([], [])
        receiver = Depacketizer()
        receiver.on_gap = gaps[name][0].append
        receivers.append(receiver)
        seeds.append(SeedDepacketizer(on_gap=gaps[name][1].append))
    for tick in range(max(map(len, schedules.values()))):
        for steps, receiver, seed in zip(schedules.values(), receivers, seeds):
            if tick >= len(steps):
                continue
            step = steps[tick]
            if step in ("replay", "suppress"):
                receiver.expect_replay(suppress_completed=step == "suppress")
                seed.expect_replay(suppress_completed=step == "suppress")
                continue
            assert receiver.push_packet(run[step]) == seed.push_packet(twin[step])
    assert_matches_seed(receivers, seeds)
    for name, (got, want) in gaps.items():
        assert got == want, name
    assert gaps["lossy"][0] == [[run[middle].sequence]]
    assert seeds[list(schedules).index("reconnect")].suppressed_duplicates > 0


def test_a_plan_rechecks_a_memo_repinned_since_it_was_built():
    """A foreign fragment re-pins an object's memo after its plan took the
    first unit; followers must then share what the reference path shares,
    not the unit the plan recorded."""
    run, twin = make_run(), make_run()
    carriers: Dict[Tuple[int, int], List[int]] = {}
    for index, packet in enumerate(run):
        for p in packet.payloads:
            carriers.setdefault((p.stream_number, p.object_number), []).append(index)
    spans = [(key, c) for key, c in carriers.items() if len(c) >= 3]
    lost = spans[0][1][1]  # the looping receiver never completes this one
    x, target = next((k, c) for k, c in spans if c[0] > spans[0][1][-1])
    copied = target[-1]  # the packet completing X reaches one receiver copied

    everything = [("push", i) for i in range(len(run))]
    schedules = {
        "leader": everything,  # marks every packet
        "builder": everything,  # builds every plan, X's from the pure bucket
        "copied": [("copy" if i == copied else "push", i) for i in range(len(run))],
        "follower": everything,
        "looping": [("push", i) for i in range(len(run)) if i != lost],
    }
    receivers = [Depacketizer() for _ in schedules]
    seeds = [SeedDepacketizer() for _ in schedules]
    states = record_states(receivers[3])
    # one after the other, so each completes X before the next
    for steps, receiver, seed in zip(schedules.values(), receivers, seeds):
        for op, index in steps:
            packet, seed_packet = run[index], twin[index]
            if op == "copy":
                packet = DataPacket.unpack(packet.pack())
                seed_packet = DataPacket.unpack(seed_packet.pack())
            assert receiver.push_packet(packet) == seed.push_packet(seed_packet)
    # the follower stayed on the shared chain, and took X's completion
    # from a plan: mid-X it held the serial of the plan before it
    assert len(states) == len(run) and None not in states
    assert states[copied - 1] == run[copied - 1]._plan.serial != 0
    assert receivers[4]._serial is None  # the looping one never got back
    assert_matches_seed(receivers, seeds)

    def unit_x(receiver):
        [unit] = [
            u for u in receiver.completed
            if (u.stream_number, u.object_number) == x
        ]
        return unit

    leader, builder, copied_x, follower, looping = map(unit_x, receivers)
    assert builder is leader
    assert copied_x is not leader
    # the copy re-pinned X's memo after the builder's plan recorded it
    assert follower is looping and follower is not leader


def test_a_runs_plans_die_with_it_while_a_receiver_holds_its_last():
    run = make_run()
    lead(run)
    receiver = Depacketizer()
    for packet in run[: spanning_packet(run) + 1]:
        receiver.push_packet(packet)
    last = packet._plan
    # mid-object: the receiver holds the state its last plan left
    assert receiver._open and receiver._open is last.open
    assert receiver._serial == last.serial
    plans = [
        weakref.ref(packet._plan) for packet in run
        if isinstance(packet._plan, packets_module._ReceivePlan)
    ]
    assert len(plans) > 2
    del run, packet, last
    gc.collect()
    # the receiver keeps the state, never a plan: none survives the run
    assert [ref() for ref in plans if ref() is not None] == []
    # ... and the receiver still finishes from the state it holds
    assert receiver.loss_report().lost


def test_deepcopy_and_pickle_mid_chain_write_out_the_reference_state():
    run, twin = make_run(), make_run()
    lead(run)
    half = spanning_packet(run) + 1
    receiver, seed = Depacketizer(), SeedDepacketizer()
    for packet, seed_packet in zip(run[:half], twin[:half]):
        receiver.push_packet(packet)
        seed.push_packet(seed_packet)
    plan = run[half - 1]._plan
    assert plan.open and receiver._open is plan.open
    assert receiver._serial == plan.serial

    clone, seed_clone = copy.deepcopy(receiver), copy.deepcopy(seed)
    restored = pickle.loads(pickle.dumps(receiver))
    # copying left the original on the chain
    assert receiver._open is plan.open and receiver._serial == plan.serial
    for other in (clone, restored):
        assert other._serial is None
        buckets = {
            key: packets_module._bucket(chain)
            for key, chain, _, _ in other._open.values()
        }
        assert buckets == seed_clone._fragments
        assert {
            key: have for key, _, have, _ in other._open.values()
        } == seed_clone._have
        assert other.loss_report() == seed_clone.loss_report()
        # the copy holds copied fragments, as the seed's copy does
        assert not {
            id(p) for bucket in buckets.values() for p in bucket.values()
        } & {id(p) for packet in run for p in packet.payloads}
    for packet, seed_packet in zip(run[half:], twin[half:]):
        for got in (receiver, clone, restored):
            got.push_packet(packet)
        seed.push_packet(seed_packet)
        seed_clone.push_packet(seed_packet)
    assert_matches_seed([receiver, clone], [seed, seed_clone])
    assert restored.completed == seed_clone.completed


def test_the_plan_memo_is_invisible_to_fields_equality_and_pickle():
    run, twin = make_run(), make_run()
    before = [pickle.dumps(packet) for packet in run]
    lead(run)
    lead(run)
    assert all(
        isinstance(packet._plan, packets_module._ReceivePlan) for packet in run
    )
    [memo] = [f for f in fields(DataPacket) if f.name == "_plan"]
    assert not (memo.init or memo.repr or memo.compare)
    assert run == twin and all(packet._plan is None for packet in twin)
    assert [repr(p) for p in run] == [repr(p) for p in twin]
    assert [pickle.dumps(packet) for packet in run] == before
    assert copy.deepcopy(run[0])._plan is None
    assert pickle.loads(pickle.dumps(run[0]))._plan is None
    assert [p.pack() for p in run] == [p.pack() for p in twin]


# ---------------------------------------------------------------------------
# end to end: players of one run, a cohort split mid-chain
# ---------------------------------------------------------------------------

PROFILE = get_profile("lan-1m")


def lecture(duration=6.0):
    return ASFEncoder(EncoderConfig(profile=PROFILE)).encode_file(
        file_id="lec",
        video=VideoObject("talk", duration, width=320, height=240, fps=10),
        audio=AudioObject("voice", duration),
        images=[(ImageObject("s0", duration, width=320, height=240), 0.0)],
        commands=slide_commands([("s0", 0.0)]),
    )


def test_players_of_one_run_follow_its_plans_and_a_split_twin_leaves_them():
    asf = lecture()
    net = VirtualNetwork()
    for host in ("delegate", "peer", "twin"):
        net.connect("server", host, bandwidth=4_000_000, delay=0.02)
    server = MediaServer(net, "server", port=8080)
    server.publish("lecture", asf)
    delegate = MediaPlayer(net, "delegate", multiplicity=2)
    peer = MediaPlayer(net, "peer")
    # the peer's session is first in the pacing group: it reaches every
    # packet first and only marks it, the delegate builds and follows
    for player in (peer, delegate):
        player.connect(server.url_of("lecture"))
        player.play()
    # a plan's serial: the delegate follows plans, mid-object
    net.simulator.wait(
        lambda: delegate._depacketizer._serial
        and delegate.state.name == "PLAYING"
    )
    twin = delegate.split_member("twin")
    assert delegate._depacketizer._serial
    assert twin._depacketizer._serial is None
    states = {
        player: record_states(player._depacketizer)
        for player in (delegate, peer)
    }
    reports = [p.run_until_finished() for p in (delegate, peer, twin)]

    assert all(
        isinstance(packet._plan, packets_module._ReceivePlan)
        for packet in asf.packets
    )
    # the delegate stays on the shared chain, the peer never joins it
    assert None not in states[delegate] and any(states[delegate])
    assert states[peer] and not any(states[peer])
    units = [[r.unit for r in report.rendered] for report in reports]
    assert units[0] == units[1] == units[2] and units[0]
    assert all(a is b for a, b in zip(units[0], units[1]))
    assert all(report.loss_rates == reports[0].loss_rates for report in reports)


# ---------------------------------------------------------------------------
# sliced trains
# ---------------------------------------------------------------------------


def mbr_lecture():
    renditions = [get_profile(n) for n in ("modem-56k", "isdn-dual", "dsl-256k")]
    return ASFEncoder(EncoderConfig(profile=renditions[-1])).encode_file_mbr(
        file_id="mbr",
        video=VideoObject("talk", 6.0, width=640, height=480, fps=25),
        renditions=renditions,
        audio=AudioObject("voice", 6.0),
        commands=slide_commands([("s0", 0.0)]),
    )


def test_sliced_trains_equal_the_entry_walk():
    asf = mbr_lecture()
    schedule = _PointSchedule(asf)
    videos = [s.stream_number for s in asf.header.mbr_group("video")]
    selections = [frozenset()] + [
        frozenset(v for v in videos if v != keep) for keep in videos
    ]
    n = len(schedule)
    rng = random.Random(0)
    ranges = [(0, n), (0, 1), (n - 1, n), (5, 5)] + [
        tuple(sorted(rng.sample(range(n + 1), 2))) for _ in range(20)
    ]
    withheld = 0
    for first, end in ranges:
        for excluded in selections:
            walk = [schedule.entry(i, excluded) for i in range(first, end)]
            withheld += walk.count(None)
            walk = [entry for entry in walk if entry is not None]
            batch, wire = schedule.train(first, end, excluded)
            assert len(batch) == len(walk)
            assert all(a is b for a, (b, _) in zip(batch, walk))
            assert wire == sum(size for _, size in walk)
    assert withheld  # thinning really withheld whole packets
