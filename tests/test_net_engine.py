"""Unit tests for the discrete-event engine and links (repro.net)."""

import pytest

from repro.net.engine import PeriodicTask, SimulationError, Simulator
from repro.net.link import Link


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(3.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_ties_break_by_priority_then_insertion(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("late"), priority=1)
        sim.schedule(1.0, lambda: log.append("first"), priority=-1)
        sim.schedule(1.0, lambda: log.append("second"), priority=-1)
        sim.run()
        assert log == ["first", "second", "late"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_run_until_stops_and_advances_clock(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(5.0, lambda: log.append(5))
        sim.run_until(3.0)
        assert log == [1]
        assert sim.now == 3.0
        assert sim.pending() == 1

    def test_cancel(self):
        sim = Simulator()
        log = []
        handle = sim.schedule(1.0, lambda: log.append("x"))
        sim.cancel(handle)
        sim.run()
        assert log == []
        assert sim.events_processed == 0

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        log = []

        def first():
            log.append("first")
            sim.schedule(1.0, lambda: log.append("nested"))

        sim.schedule(1.0, first)
        sim.run()
        assert log == ["first", "nested"]
        assert sim.now == 2.0

    def test_livelock_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule(0.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(h)
        assert sim.peek_time() == 2.0

    def test_pending_counts_live_events_only(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
        assert sim.pending() == 5
        sim.cancel(handles[0])
        assert sim.pending() == 4
        sim.run_until(2.5)  # runs events at t=2 (t=1 was cancelled)
        assert sim.pending() == 3

    def test_cancel_after_run_is_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        sim.cancel(handle)  # must not mark the dead seq cancelled forever
        assert sim.pending() == 0
        assert not sim._cancelled

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.cancel(handle)
        sim.cancel(handle)
        assert sim.pending() == 0
        assert len(sim._cancelled) == 1


class TestScheduleBatch:
    def test_batch_runs_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.5, lambda: log.append("solo"))
        sim.schedule_batch(
            (float(d), lambda d=d: log.append(d)) for d in (3, 1, 2)
        )
        sim.run()
        assert log == [1, 2, "solo", 3]

    def test_large_batch_heapify_path(self):
        # > 8 entries against an empty queue takes the heapify branch
        sim = Simulator()
        log = []
        sim.schedule_batch(
            (float(100 - i), lambda i=i: log.append(i)) for i in range(50)
        )
        sim.run()
        assert log == list(reversed(range(50)))

    def test_batch_handles_cancel(self):
        sim = Simulator()
        log = []
        handles = sim.schedule_batch(
            (float(i + 1), lambda i=i: log.append(i)) for i in range(20)
        )
        for handle in handles[::2]:
            sim.cancel(handle)
        sim.run()
        assert log == list(range(1, 20, 2))

    def test_empty_batch(self):
        sim = Simulator()
        assert sim.schedule_batch([]) == []
        assert sim.pending() == 0

    def test_batch_rejects_negative_delay(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_batch([(1.0, lambda: None), (-0.5, lambda: None)])

    def test_batch_ties_follow_insertion_order(self):
        sim = Simulator()
        log = []
        sim.schedule_batch((1.0, lambda i=i: log.append(i)) for i in range(12))
        sim.run()
        assert log == list(range(12))


class TestHeapCompaction:
    def test_mass_cancellation_purges_heap(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(200)]
        for handle in handles[:150]:
            sim.cancel(handle)
        # crossing the threshold rebuilt the heap at least once: the dead
        # entries do not all linger until popped
        assert len(sim._queue) < 200
        assert sim.pending() == 50
        sim.run()
        assert sim.events_processed == 50

    def test_small_cancellation_skips_compaction(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(20)]
        for handle in handles[:15]:
            sim.cancel(handle)
        # beneath the floor: dead entries stay until popped
        assert len(sim._queue) == 20
        sim.run()
        assert sim.events_processed == 5

    def test_compaction_preserves_order(self):
        sim = Simulator()
        log = []
        keep = []
        for i in range(300):
            handle = sim.schedule(float(i), lambda i=i: log.append(i))
            if i % 3 != 0:
                keep.append(i)
            else:
                sim.cancel(handle)
        sim.run()
        assert log == keep


class TestPeriodicTask:
    def test_ticks_at_interval(self):
        sim = Simulator()
        task = PeriodicTask(sim, 1.0, lambda: None)
        sim.run_until(5.5)
        assert task.ticks == 6  # t=0,1,2,3,4,5

    def test_stop(self):
        sim = Simulator()
        task = PeriodicTask(sim, 1.0, lambda: None)
        sim.run_until(2.5)
        task.stop()
        sim.run_until(10.0)
        assert task.ticks == 3

    def test_start_delay(self):
        sim = Simulator()
        task = PeriodicTask(sim, 1.0, lambda: None, start_delay=5.0)
        sim.run_until(4.9)
        assert task.ticks == 0
        sim.run_until(5.1)
        assert task.ticks == 1

    def test_invalid_interval(self):
        with pytest.raises(SimulationError):
            PeriodicTask(Simulator(), 0, lambda: None)


class TestLink:
    def test_serialization_plus_propagation(self):
        sim = Simulator()
        link = Link(sim, bandwidth=8_000, delay=0.5)  # 1000 bytes/s
        arrivals = []
        link.transmit(1000, lambda: arrivals.append(sim.now))
        sim.run()
        assert arrivals == [pytest.approx(1.5)]  # 1s serialize + 0.5s prop

    def test_fifo_queueing(self):
        sim = Simulator()
        link = Link(sim, bandwidth=8_000, delay=0.0)
        arrivals = []
        link.transmit(1000, lambda: arrivals.append(("a", sim.now)))
        link.transmit(1000, lambda: arrivals.append(("b", sim.now)))
        sim.run()
        assert arrivals == [("a", pytest.approx(1.0)), ("b", pytest.approx(2.0))]

    def test_queue_limit_tail_drop(self):
        sim = Simulator()
        link = Link(sim, bandwidth=8_000, delay=0.0, queue_limit=2)
        drops = []
        ok1 = link.transmit(1000, lambda: None)
        ok2 = link.transmit(1000, lambda: None)
        ok3 = link.transmit(1000, lambda: None, on_drop=drops.append)
        assert (ok1, ok2, ok3) == (True, True, False)
        assert drops == ["queue"]
        assert link.stats.dropped_queue == 1

    def test_queue_drains(self):
        sim = Simulator()
        link = Link(sim, bandwidth=8_000, delay=0.0, queue_limit=2)
        link.transmit(1000, lambda: None)
        link.transmit(1000, lambda: None)
        sim.run_until(1.5)
        assert link._queued == 1
        assert link.transmit(1000, lambda: None) is True

    def test_random_loss_reproducible(self):
        def run(seed):
            sim = Simulator()
            link = Link(sim, bandwidth=1e9, loss_rate=0.3, seed=seed)
            delivered = []
            for i in range(100):
                link.transmit(100, lambda i=i: delivered.append(i))
            sim.run()
            return delivered

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_loss_rate_statistics(self):
        sim = Simulator()
        link = Link(sim, bandwidth=1e9, loss_rate=0.25, seed=1, queue_limit=4000)
        for _ in range(2000):
            link.transmit(100, lambda: None)
        sim.run()
        assert link.stats.loss_rate == pytest.approx(0.25, abs=0.03)

    def test_loss_callback_reason(self):
        sim = Simulator()
        link = Link(sim, bandwidth=1e9, loss_rate=0.99, seed=3)
        reasons = []
        link.transmit(100, lambda: None, on_drop=reasons.append)
        sim.run()
        assert reasons == ["loss"]

    def test_jitter_varies_propagation(self):
        sim = Simulator()
        link = Link(sim, bandwidth=1e9, delay=0.1, jitter=0.05, seed=2)
        arrivals = []
        for _ in range(20):
            link.transmit(10, lambda: arrivals.append(sim.now))
        sim.run()
        gaps = {round(a, 6) for a in arrivals}
        assert len(gaps) > 5  # spread, not constant

    def test_parameter_validation(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Link(sim, bandwidth=0)
        with pytest.raises(SimulationError):
            Link(sim, loss_rate=1.0)
        with pytest.raises(SimulationError):
            Link(sim, queue_limit=0)
        link = Link(sim)
        with pytest.raises(SimulationError):
            link.transmit(0, lambda: None)
