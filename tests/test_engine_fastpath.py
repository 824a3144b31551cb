"""DES hot-loop fast path: unified drain, epoch ticks, leap, shared ticks.

Four engine guarantees the million-viewer load harness leans on:

* **unified drain** — ``run_until``/``run`` pop each heap entry once;
  cancelled entries are discarded in the same pass as live ones execute.
  ``Simulator.cancelled_drained`` counts every dead entry exactly once
  across all drain paths (hot loop, ``peek_time``, compaction), which is
  the regression observable for the old peek-then-step double scan.
* **epoch-anchored PeriodicTask** — tick *n* fires at exactly
  ``epoch + n·interval`` (one float product), never at an accumulated
  ``now + interval``; a million ticks stay on the grid.
* **fast_forward** — when only *skippable* periodic ticks remain
  pending, the clock leaps the window in O(1) per owner instead of
  executing ticks one by one; non-skippable events still run faithfully.
* **SharedTicker** — many callbacks ride one simulator event per
  epoch-aligned instant, and late registrants join on the grid.
"""

import pytest

from repro.net.engine import (
    PeriodicTask,
    SharedTicker,
    SimulationError,
    Simulator,
)


class TestUnifiedDrain:
    def test_every_cancelled_entry_drained_exactly_once(self):
        sim = Simulator()
        fired = []
        handles = [
            sim.schedule(0.001 * i, lambda i=i: fired.append(i))
            for i in range(1000)
        ]
        for handle in handles[::2]:
            sim.cancel(handle)
        sim.run_until(2.0)
        assert len(fired) == 500
        assert sim.cancelled_drained == 500
        assert not sim._queue and not sim._cancelled

    def test_compaction_and_hot_loop_never_double_count(self):
        # cancellation-heavy pacing: enough dead entries to trip heap
        # compaction mid-run, the rest drained by the hot loop — the
        # counter must come out exactly equal to the number cancelled
        sim = Simulator()
        fired = []
        cancelled = 0
        for wave in range(10):
            handles = [
                sim.schedule(1.0 + wave + 0.001 * i,
                             lambda: fired.append(1))
                for i in range(300)
            ]
            for handle in handles[: 270]:
                sim.cancel(handle)
                cancelled += 1
        sim.run_until(12.0)
        assert sim.cancelled_drained == cancelled
        assert len(fired) == 10 * 30
        assert not sim._queue and not sim._cancelled

    @pytest.mark.parametrize("drive", ["run_until", "run"])
    def test_compaction_inside_a_callback_keeps_the_dead_dead(self, drive):
        # a handler cancelling enough to trip compaction *while the drain
        # loop holds the heap*: the loop must keep popping the compacted
        # heap, never a stale copy in which the cancelled entries (their
        # seqs already forgotten) would run as live
        sim = Simulator()
        fired = []
        doomed = [
            sim.schedule(5.0 + 0.001 * i, lambda: fired.append("dead"))
            for i in range(200)
        ]
        sim.schedule(6.0, lambda: fired.append("live"))
        sim.schedule(1.0, lambda: [sim.cancel(h) for h in doomed])
        if drive == "run":
            sim.run()
        else:
            sim.run_until(10.0)
        assert fired == ["live"]
        assert sim.events_processed == 2
        assert sim.cancelled_drained == 200

    def test_peek_time_share_the_same_counter(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(first)
        assert sim.peek_time() == 2.0
        assert sim.cancelled_drained == 1
        sim.run_until(3.0)
        assert sim.cancelled_drained == 1  # not re-counted by the run

    def test_dead_entries_do_not_linger_in_the_heap(self):
        # the quadratic failure mode: cancelled entries surviving in the
        # queue make every later push/pop pay for them. Compaction must
        # keep the heap near the live population.
        sim = Simulator()
        handles = [
            sim.schedule(1.0 + 0.0001 * i, lambda: None)
            for i in range(10_000)
        ]
        for handle in handles[: 9_000]:
            sim.cancel(handle)
        assert len(sim._queue) < 2_500  # 1_000 live + bounded dead tail
        sim.run_until(3.0)
        assert sim.cancelled_drained == 9_000


class TestEpochAnchoredTicks:
    def test_hundred_thousand_ticks_on_exact_grid(self):
        sim = Simulator()
        interval = 0.05
        sample = {}
        task = PeriodicTask(
            sim, interval,
            lambda: sample.__setitem__(task.ticks, sim.now)
            if task.ticks % 10_000 == 0 else None,
        )
        sim.run_until(5_000.0, max_events=2_000_000)
        assert task.ticks >= 100_000
        # every sampled firing landed on the exact one-product grid value
        # — now + interval accumulation would have drifted off it by now
        for n, t in sample.items():
            assert t == n * interval
        assert task.next_time == task.epoch + task.ticks * task.interval

    def test_million_ticks_stay_aligned_across_a_leap(self):
        sim = Simulator()
        interval = 0.001
        skipped = []
        fires = []
        task = PeriodicTask(
            sim, interval, lambda: fires.append(sim.now),
            skippable=True, on_skip=skipped.append,
        )
        leapt = sim.fast_forward(1_000.0)
        # ticks 0.000 .. 1000.000 inclusive: 1_000_001 instants, all leapt
        assert leapt == 1_000_001
        assert task.ticks == 1_000_001
        assert sum(skipped) == leapt
        assert fires == []  # leapt ticks never invoke the callback
        # and the task is still on the exact grid: the next real fire
        # lands at one float product off the epoch
        sim.run_until(task.next_time)
        assert fires == [task.epoch + 1_000_001 * interval]

    def test_start_delay_anchors_the_epoch(self):
        sim = Simulator()
        sim.run_until(1.3)
        times = []
        task = PeriodicTask(sim, 0.5, lambda: times.append(sim.now),
                            start_delay=0.2)
        sim.run_until(3.0)
        assert task.epoch == 1.5
        assert times == [1.5 + i * 0.5 for i in range(4)]
        assert task.next_time == task.epoch + task.ticks * 0.5


class TestFastForward:
    def test_quiet_window_is_leapt_not_executed(self):
        sim = Simulator()
        beats = []
        skipped = []
        task = PeriodicTask(
            sim, 0.5, lambda: beats.append(sim.now),
            skippable=True, on_skip=skipped.append,
        )
        leapt = sim.fast_forward(100.0)
        assert sim.now == 100.0
        assert beats == []
        assert leapt == 201  # grid instants 0.0 .. 100.0
        assert sim.events_leapt == 201
        assert sum(skipped) == 201
        assert task.ticks == 201
        # the engine did not execute the ticks one by one
        assert sim.events_processed == 0

    def test_blockers_execute_normally_before_the_leap(self):
        sim = Simulator()
        beats = []
        ran = []
        PeriodicTask(
            sim, 0.5, lambda: beats.append(sim.now), skippable=True
        )
        sim.schedule(5.25, lambda: ran.append(sim.now))
        leapt = sim.fast_forward(10.0)
        assert ran == [5.25]
        # ticks before the blocker fired for real (0.0 .. 5.0) ...
        assert beats == [i * 0.5 for i in range(11)]
        # ... ticks after it (5.5 .. 10.0) were leapt
        assert leapt == 10
        assert sim.pending_blockers() == 0

    def test_empty_queue_just_advances_the_clock(self):
        sim = Simulator()
        assert sim.fast_forward(42.0) == 0
        assert sim.now == 42.0

    def test_cannot_run_backwards(self):
        sim = Simulator()
        sim.fast_forward(10.0)
        with pytest.raises(SimulationError):
            sim.fast_forward(5.0)

    def test_non_skippable_ticker_is_never_leapt(self):
        sim = Simulator()
        renders = []
        ticker = SharedTicker(sim, 0.05)  # a ticker is never skippable
        ticker.register(lambda: renders.append(sim.now))
        sim.fast_forward(1.0)
        # every render tick executed for real — active playback is
        # simulated faithfully even under fast_forward
        assert len(renders) == 21
        assert sim.events_leapt == 0

    def test_resumes_normal_execution_after_the_leap(self):
        sim = Simulator()
        beats = []
        task = PeriodicTask(
            sim, 1.0, lambda: beats.append(sim.now), skippable=True
        )
        sim.fast_forward(10.5)
        sim.run_until(12.0)
        assert beats == [11.0, 12.0]
        assert task.ticks == 13


class TestSharedTicker:
    def test_many_callbacks_one_event_per_instant(self):
        sim = Simulator()
        counts = [0] * 100
        ticker = SharedTicker(sim, 0.05)
        for i in range(100):
            ticker.register(lambda i=i: counts.__setitem__(i, counts[i] + 1))
        sim.run_until(0.2)
        # 5 instants (0.0 .. 0.2) -> 5 simulator events, not 500
        assert sim.events_processed == 5
        assert counts == [5] * 100

    def test_unregister_idles_the_ticker(self):
        sim = Simulator()
        fired = []
        ticker = SharedTicker(sim, 0.05)
        slot = ticker.register(lambda: fired.append(sim.now))
        sim.run_until(0.1)
        slot.stop()
        assert len(ticker) == 0
        before = sim.events_processed
        sim.run_until(1.0)
        assert sim.events_processed == before  # no idle ticking
        assert sim.pending() == 0

    def test_late_registrant_joins_on_the_grid(self):
        sim = Simulator()
        ticker = SharedTicker(sim, 0.05)
        slot = ticker.register(lambda: None)
        sim.run_until(0.1)
        slot.stop()
        sim.run_until(0.17)  # idle gap, clock between grid instants
        times = []
        ticker.register(lambda: times.append(sim.now))
        sim.run_until(0.31)
        assert times == [4 * 0.05, 5 * 0.05, 6 * 0.05]
