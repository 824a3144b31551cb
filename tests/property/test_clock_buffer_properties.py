"""Property-based tests on the presentation clock and jitter buffer."""

import random
import sys

from hypothesis import assume, given, settings, strategies as st

from repro.asf.packets import MediaUnit
from repro.media.clock import ClockError, PresentationClock
from repro.streaming.buffer import JitterBuffer


# ----------------------------------------------------------------------
# clock: random legal op sequences keep media time monotone while running
# ----------------------------------------------------------------------


def apply_ops(seed: int, n_ops: int = 30):
    """Drive a clock with random legal ops; return (clock, samples)."""
    rng = random.Random(seed)
    clock = PresentationClock()
    wall = 0.0
    clock.start(wall)
    samples = [(wall, clock.media_time(wall), clock.paused)]
    for _ in range(n_ops):
        wall += rng.uniform(0.01, 2.0)
        op = rng.choice(["tick", "pause", "resume", "rate", "seek"])
        try:
            if op == "pause":
                clock.pause(wall)
            elif op == "resume":
                clock.resume(wall)
            elif op == "rate":
                clock.set_rate(wall, rng.choice([0.5, 1.0, 2.0]))
            elif op == "seek":
                clock.seek(wall, rng.uniform(0, 100))
        except ClockError:
            pass  # illegal in current state: rejected, state unchanged
        samples.append((wall, clock.media_time(wall), clock.paused))
    return clock, samples


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=100_000))
def test_random_op_sequences_never_corrupt_clock(seed):
    """Any mix of legal/illegal ops leaves the clock queryable and sane."""
    clock, samples = apply_ops(seed)
    for wall, media, _paused in samples:
        assert media >= 0
    # the final state still answers queries consistently
    last_wall = samples[-1][0]
    if clock.paused:
        assert clock.media_time(last_wall + 50) == clock.media_time(last_wall)
    else:
        assert clock.media_time(last_wall + 1) > clock.media_time(last_wall)


@settings(deadline=None, max_examples=20)
@given(st.floats(min_value=0.1, max_value=50.0))
def test_media_time_frozen_while_paused(pause_at):
    clock = PresentationClock()
    clock.start(0.0)
    clock.pause(pause_at)
    assert clock.media_time(pause_at + 1) == clock.media_time(pause_at + 100)


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=100_000))
def test_media_time_monotone_between_seeks(seed):
    rng = random.Random(seed)
    clock = PresentationClock()
    clock.start(0.0)
    wall = 0.0
    last = clock.media_time(wall)
    for _ in range(30):
        wall += rng.uniform(0.01, 1.0)
        op = rng.choice(["tick", "pause", "resume", "rate"])
        try:
            if op == "pause":
                clock.pause(wall)
            elif op == "resume":
                clock.resume(wall)
            elif op == "rate":
                clock.set_rate(wall, rng.choice([0.5, 1.0, 3.0]))
        except ClockError:
            pass
        now = clock.media_time(wall)
        assert now >= last - 1e-9  # no seeks => never goes backwards
        last = now


@settings(deadline=None, max_examples=50)
@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.25, max_value=4.0),
)
def test_rate_scales_elapsed_media_time(run_for, idle, rate):
    clock = PresentationClock(rate=rate)
    clock.start(0.0)
    assert clock.media_time(run_for) == (
        __import__("pytest").approx(run_for * rate)
    )


# ----------------------------------------------------------------------
# jitter buffer: order, conservation, depth
# ----------------------------------------------------------------------


def random_units(seed: int, n: int = 40):
    rng = random.Random(seed)
    units = []
    for i in range(n):
        stream = rng.randint(1, 3)
        ts = rng.randint(0, 20_000)
        units.append(MediaUnit(stream, i, ts, True, b"x"))
    return units


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=100_000))
def test_pop_due_returns_sorted_and_conserves(seed):
    buffer = JitterBuffer()
    units = random_units(seed)
    for unit in units:
        buffer.push(unit)
    popped = []
    rng = random.Random(seed + 1)
    position = 0.0
    while len(buffer):
        position += rng.uniform(0.1, 5.0)
        popped.extend(buffer.pop_due(position))
    timestamps = [u.timestamp_ms for u in popped]
    assert timestamps == sorted(timestamps)
    assert sorted(u.object_number for u in popped) == sorted(
        u.object_number for u in units
    )


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=100_000))
def test_pop_due_never_returns_future_units(seed):
    buffer = JitterBuffer()
    for unit in random_units(seed):
        buffer.push(unit)
    position = 7.5
    for unit in buffer.pop_due(position):
        assert unit.timestamp <= position + 1e-9
    for unit in buffer.pop_due_ms(sys.maxsize):
        assert unit.timestamp > position - 1e-3


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=100_000))
def test_depth_is_min_over_requested_streams(seed):
    buffer = JitterBuffer()
    units = random_units(seed)
    for unit in units:
        buffer.push(unit)
    streams = sorted({u.stream_number for u in units})
    horizons = {
        s: max(u.timestamp_ms for u in units if u.stream_number == s) / 1000.0
        for s in streams
    }
    position = 1.0
    expected = max(0.0, min(h - position for h in horizons.values()))
    assert buffer.depth(position, streams) == __import__("pytest").approx(expected)


# ----------------------------------------------------------------------
# jitter buffer: the integer-ms API and the float-seconds API agree
# ----------------------------------------------------------------------


@settings(deadline=None, max_examples=100)
@given(
    rounds=st.lists(
        st.tuples(
            # units pushed this round: (stream, timestamp ms)
            st.lists(
                st.tuples(st.integers(1, 3), st.integers(0, 3_000)), max_size=8
            ),
            # playhead advance in half milliseconds: odd values land on .5
            st.integers(0, 400),
        ),
        min_size=1,
        max_size=25,
    ),
    streams=st.lists(st.integers(1, 4), max_size=3, unique=True),
)
def test_ms_api_matches_float_api(rounds, streams):
    by_ms, by_seconds = JitterBuffer(), JitterBuffer()
    pending = []  # the model: (timestamp, push order, unit)
    horizons = {}
    pushed = 0
    half_ms = 0
    for pushes, advance in rounds:
        for stream, ts in pushes:
            unit = MediaUnit(stream, pushed, ts, True, b"x")
            by_ms.push(unit)
            by_seconds.push(unit)
            pending.append((ts, pushed, unit))
            pushed += 1
            horizons[stream] = max(horizons.get(stream, -1), ts)
        half_ms += advance
        position = half_ms / 2000.0
        due_ms = (half_ms + 1) // 2  # the position's milliseconds, half-up
        due = sorted(entry for entry in pending if entry[0] <= due_ms)
        pending = [entry for entry in pending if entry[0] > due_ms]
        expected = [unit for _, _, unit in due]
        assert by_ms.pop_due_ms(due_ms) == expected
        assert by_seconds.pop_due(position) == expected
        # runway: min horizon over the streams, None once one is unseen
        if streams and all(s in horizons for s in streams):
            runway = min(horizons[s] for s in streams) - due_ms
            depth = max(0.0, min((horizons[s] - due_ms) / 1000.0 for s in streams))
        else:
            runway, depth = None, 0.0
        assert by_ms.runway_ms(due_ms, streams) == runway
        assert by_seconds.depth(position, streams) == depth
    assert by_ms.popped == by_seconds.popped == pushed - len(pending)
