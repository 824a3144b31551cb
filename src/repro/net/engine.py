"""Discrete-event simulation engine — the clock under every network run.

A minimal but complete DES core: events are ``(time, priority, seq,
callback)`` entries in a heap; :meth:`Simulator.run_until` executes them in
order, advancing :attr:`Simulator.now`. Everything in :mod:`repro.net`,
:mod:`repro.web` and :mod:`repro.streaming` schedules onto one shared
simulator, so a whole lecture delivery (server pacing, link queues, client
rendering) is one deterministic event sequence.

The hot loop is tuned for the million-viewer load harness
(:mod:`repro.load`): :meth:`Simulator.run_until` drains the heap in a
single pass (no peek-then-pop double scan of cancelled entries),
:class:`PeriodicTask` schedules against its epoch so a million ticks stay
exactly aligned, :class:`SharedTicker` lets many clients ride one
simulator event per aligned tick instant, and
:meth:`Simulator.fast_forward` leaps across quiet windows in which only
*skippable* periodic ticks remain pending.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple


class SimulationError(Exception):
    """Scheduling misuse (negative delays, running backwards...)."""


class EventHandle(NamedTuple):
    """Returned by :meth:`Simulator.schedule`; lets callers cancel.

    A tuple subclass rather than a dataclass: handles are minted once per
    scheduled event, which puts their construction cost on the engine's
    hottest path.
    """

    time: float
    seq: int


class Simulator:
    """A deterministic discrete-event scheduler."""

    #: compaction threshold: rebuild the heap once cancelled entries both
    #: outnumber half the queue and exceed this floor (tiny queues churn)
    COMPACT_MIN_CANCELLED = 64

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: List[Tuple[float, int, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._cancelled: set = set()
        self._pending_seqs: set = set()
        #: seqs of pending events whose owner tolerates being leapt over
        #: (see fast_forward); always a subset of _pending_seqs
        self._skippable_seqs: set = set()
        #: seq -> owner (PeriodicTask/SharedTicker) for skippable events
        self._skippable_owners: Dict[int, object] = {}
        self.events_processed = 0
        #: cancelled entries drained from the heap (each exactly once) —
        #: the regression counter for the unified drain path
        self.cancelled_drained = 0
        #: events leapt (never executed) by fast_forward
        self.events_leapt = 0
        # optional repro.obs.Tracer: only coarse run begin/end records —
        # per-event tracing would multiply the record stream by the event
        # count and is deliberately not offered
        self.tracer = None

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        skippable_owner: Optional[object] = None,
    ) -> EventHandle:
        """Run ``callback`` ``delay`` seconds from now.

        Ties on time break by ``priority`` (lower first), then insertion
        order — so a send scheduled before a receive at the same instant
        stays ordered. ``skippable_owner`` marks the event as a periodic
        tick :meth:`fast_forward` may leap; the owner must implement the
        ``next_time`` / ``leap_to`` protocol (see :class:`PeriodicTask`).
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        seq = next(self._seq)
        heapq.heappush(self._queue, (self.now + delay, priority, seq, callback))
        self._pending_seqs.add(seq)
        if skippable_owner is not None:
            self._skippable_seqs.add(seq)
            self._skippable_owners[seq] = skippable_owner
        return EventHandle(self.now + delay, seq)

    def schedule_at(
        self,
        when: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        skippable_owner: Optional[object] = None,
    ) -> EventHandle:
        if when < self.now:
            raise SimulationError(f"cannot schedule at {when} < now {self.now}")
        return self.schedule(
            when - self.now, callback, priority=priority,
            skippable_owner=skippable_owner,
        )

    def schedule_batch(
        self,
        events: Iterable[Tuple[float, Callable[[], None]]],
        *,
        priority: int = 0,
    ) -> List[EventHandle]:
        """Schedule many ``(delay, callback)`` pairs in one heap operation.

        For large batches the heap is extended and re-heapified once —
        O(n) instead of O(k·log n) sifts — which is what the packet pacer
        uses when a live capture chunk lands as dozens of packets at once.
        """
        entries = []
        handles = []
        for delay, callback in events:
            if delay < 0:
                raise SimulationError(f"negative delay {delay}")
            seq = next(self._seq)
            entries.append((self.now + delay, priority, seq, callback))
            handles.append(EventHandle(self.now + delay, seq))
            self._pending_seqs.add(seq)
        if not entries:
            return handles
        # heapify beats repeated pushes once the batch rivals log2(queue)
        if len(entries) > 8 and len(entries) ** 2 > len(self._queue):
            self._queue.extend(entries)
            heapq.heapify(self._queue)
        else:
            for entry in entries:
                heapq.heappush(self._queue, entry)
        return handles

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a pending event (no-op if it already ran)."""
        if handle.seq not in self._pending_seqs:
            return
        self._pending_seqs.discard(handle.seq)
        self._cancelled.add(handle.seq)
        if self._skippable_seqs:
            self._skippable_seqs.discard(handle.seq)
            self._skippable_owners.pop(handle.seq, None)
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Purge cancelled entries when they dominate the heap.

        Cancelled events otherwise linger until popped; a pacer that
        cancels most of what it schedules would make every push/pop pay
        for dead entries.
        """
        if (
            len(self._cancelled) > self.COMPACT_MIN_CANCELLED
            and len(self._cancelled) * 2 > len(self._queue)
        ):
            # in place: _drain holds the list across callbacks that cancel
            self._queue[:] = [e for e in self._queue if e[2] not in self._cancelled]
            heapq.heapify(self._queue)
            self.cancelled_drained += len(self._cancelled)
            self._cancelled.clear()

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None."""
        while self._queue and self._queue[0][2] in self._cancelled:
            self._cancelled.discard(heapq.heappop(self._queue)[2])
            self.cancelled_drained += 1
        return self._queue[0][0] if self._queue else None

    def step(self) -> bool:
        """Execute the next event; False when the queue is empty."""
        queue = self._queue
        while queue:
            time, _, seq, callback = heapq.heappop(queue)
            if seq in self._cancelled:
                self._cancelled.discard(seq)
                self.cancelled_drained += 1
                continue
            self._pending_seqs.discard(seq)
            if self._skippable_seqs:
                self._skippable_seqs.discard(seq)
                self._skippable_owners.pop(seq, None)
            self.now = time
            callback()
            self.events_processed += 1
            return True
        return False

    def wait(
        self, done: Callable[[], bool], *, deadline: float = math.inf
    ) -> bool:
        """Run events until ``done()`` holds — the one way to block.

        Gives up when the queue runs dry or the next event lies past
        ``deadline`` (an event at exactly ``deadline`` still runs); the
        clock never moves past the last event executed. Every event is
        dispatched through :meth:`step`, so a handler may itself ``wait``
        (an HTTP round-trip inside a fill inside a join) and the outer
        predicate is simply re-evaluated when the inner wait returns.
        Returns ``done()``.

        The head is read in place and popped once, by ``step``:
        :meth:`peek_time` runs only to drop cancelled heads, so a live
        event costs one heap pop and no ``peek_time`` call.
        """
        queue = self._queue
        cancelled = self._cancelled
        while not done():
            if queue and queue[0][2] in cancelled:
                self.peek_time()
            if not queue or queue[0][0] > deadline:
                return False
            self.step()
        return True

    def _drain(self, when: float, max_events: int) -> int:
        """Pop and execute every event due by ``when``; returns the count.

        The hot loop: one heap pop per entry, dead (cancelled) entries
        drained in the same pass as live ones — the former
        ``peek_time()``-then-``step()`` shape paid a second membership
        scan per event, which cancellation-heavy pacing turned into pure
        overhead. Stops early once more than ``max_events`` have run; the
        caller turns that into its livelock error.
        """
        # local bindings: every attribute lookup shaved here is paid back
        # once per event at 100k-viewer scale
        queue = self._queue
        cancelled = self._cancelled
        pending = self._pending_seqs
        pop = heapq.heappop
        processed = 0
        while queue and queue[0][0] <= when and processed <= max_events:
            entry = pop(queue)
            seq = entry[2]
            if seq in cancelled:
                cancelled.discard(seq)
                self.cancelled_drained += 1
                continue
            pending.discard(seq)
            if self._skippable_seqs:
                self._skippable_seqs.discard(seq)
                self._skippable_owners.pop(seq, None)
            self.now = entry[0]
            entry[3]()
            processed += 1
        self.events_processed += processed
        return processed

    def run_until(self, when: float, *, max_events: int = 1_000_000) -> None:
        """Process every event up to (and including) time ``when``."""
        if when < self.now:
            raise SimulationError("cannot run backwards")
        span = None
        if self.tracer is not None:
            span = self.tracer.begin("sim.run", until=when)
        processed = self._drain(when, max_events)
        if processed > max_events:
            if self.tracer is not None:
                self.tracer.end(span, events=processed, livelock=True)
            raise SimulationError(
                f"more than {max_events} events before t={when} "
                "(livelock in the model?)"
            )
        self.now = when
        if self.tracer is not None:
            self.tracer.end(span, events=processed)

    def run(self, *, max_events: int = 1_000_000) -> None:
        """Process events until the queue drains."""
        if self._drain(math.inf, max_events) > max_events:
            raise SimulationError(f"more than {max_events} events (livelock?)")

    def fast_forward(self, to: float, *, max_events: int = 1_000_000) -> int:
        """Like :meth:`run_until`, but leap quiet windows.

        Whenever every pending event belongs to a *skippable* periodic
        owner (render-tick buses, cohort heartbeats — anything scheduled
        with ``skippable_owner``), the engine stops executing them one by
        one: due ticks are cancelled, the clock jumps to ``to``, and each
        owner is resynchronized against its epoch (tick indices advance as
        if every tick had fired; callbacks are **not** invoked — owners
        observe the gap through their ``on_skip`` hook). Events that are
        not skippable are executed normally, so the method degrades to
        ``run_until`` in busy windows.

        Returns the number of tick events leapt (never executed).
        """
        if to < self.now:
            raise SimulationError("cannot run backwards")
        queue = self._queue
        cancelled = self._cancelled
        leapt = 0
        processed = 0
        while True:
            # the head is read in place, as in wait: one pop per event
            if queue and queue[0][2] in cancelled:
                self.peek_time()
            if not queue or queue[0][0] > to:
                break
            if len(self._pending_seqs) == len(self._skippable_seqs):
                # quiet window: only periodic ticks remain — leap
                owners = {
                    owner
                    for owner in self._skippable_owners.values()
                    if owner.next_time <= to
                }
                self.now = to
                for owner in owners:
                    leapt += owner.leap_to(self, to)
                continue
            self.step()
            processed += 1
            if processed > max_events:
                raise SimulationError(
                    f"more than {max_events} events before t={to} "
                    "(livelock in the model?)"
                )
        self.now = to
        self.events_leapt += leapt
        return leapt

    def pending(self) -> int:
        """Live (scheduled, not yet run or cancelled) event count — O(1)."""
        return len(self._pending_seqs)


def _first_tick_after(epoch: float, interval: float, to: float) -> int:
    """Index of the first grid point ``epoch + n·interval`` strictly after ``to``."""
    target = math.floor((to - epoch) / interval) + 1
    while epoch + (target - 1) * interval > to:
        target -= 1  # float fuzz pushed us one grid point too far
    while epoch + target * interval <= to:
        target += 1
    return target


class PeriodicTask:
    """A repeating event: fires every ``interval`` seconds until
    :meth:`stop` — e.g. a beacon sender or a live capture's chunk clock.

    Every tick is scheduled against the task's **epoch**
    (``start + n·interval``), not ``now + interval``: rescheduling off the
    current clock accumulates one float rounding error per tick, which
    after a million ticks walks the task measurably off its grid (and off
    the shared pacing groups aligned to it).

    ``skippable=True`` declares that the task tolerates
    :meth:`Simulator.fast_forward` leaping its ticks in quiet windows:
    callbacks for leapt ticks are not invoked; ``on_skip(n)`` (if given)
    is called once per leap with the number of ticks skipped, and
    :attr:`ticks` advances as if they had fired.
    """

    def __init__(
        self,
        simulator: Simulator,
        interval: float,
        callback: Callable[[], None],
        *,
        start_delay: float = 0.0,
        skippable: bool = False,
        on_skip: Optional[Callable[[int], None]] = None,
    ) -> None:
        if interval <= 0:
            raise SimulationError("interval must be positive")
        self.simulator = simulator
        self.interval = interval
        self.callback = callback
        self.skippable = skippable
        self.on_skip = on_skip
        self._stopped = False
        self.ticks = 0
        #: first-tick instant; every later tick lands on epoch + n·interval
        self.epoch = simulator.now + start_delay
        self.next_time = self.epoch
        self._handle: Optional[EventHandle] = simulator.schedule(
            start_delay, self._tick,
            skippable_owner=self if skippable else None,
        )

    def _tick(self) -> None:
        self._handle = None
        if self._stopped:
            return
        self.callback()
        self.ticks += 1
        if not self._stopped:
            self._schedule_next()

    def _schedule_next(self) -> None:
        when = self.epoch + self.ticks * self.interval
        now = self.simulator.now
        if when < now:
            when = now  # float fuzz or a leap landed us past the grid point
        self.next_time = when
        self._handle = self.simulator.schedule_at(
            when, self._tick, skippable_owner=self if self.skippable else None,
        )

    def leap_to(self, simulator: Simulator, to: float) -> int:
        """fast_forward protocol: absorb every tick due by ``to``.

        Cancels the pending tick event, advances :attr:`ticks` to the
        first grid point strictly after ``to``, reports the gap through
        ``on_skip``, and reschedules. Returns the number of ticks leapt.
        """
        if self._stopped or self.next_time > to:
            return 0
        if self._handle is not None:
            simulator.cancel(self._handle)
            self._handle = None
        target = _first_tick_after(self.epoch, self.interval, to)
        skipped = target - self.ticks
        self.ticks = target
        if skipped > 0 and self.on_skip is not None:
            self.on_skip(skipped)
        self._schedule_next()
        return max(0, skipped)

    def stop(self) -> None:
        self._stopped = True
        if self._handle is not None:
            self.simulator.cancel(self._handle)
            self._handle = None


class _TickerSlot:
    """One callback's registration on a :class:`SharedTicker`.

    A registrant may :meth:`sleep_until` a sim time: the ticker skips it
    at every instant before then, and :meth:`missed` tells it afterwards
    which instants it slept through.
    """

    __slots__ = ("ticker", "key", "callback", "wake", "since")

    def __init__(
        self, ticker: "SharedTicker", key: int, callback: Callable[[], None]
    ) -> None:
        self.ticker = ticker
        self.key = key
        self.callback = callback
        #: the ticker skips this slot at every instant before ``wake``
        self.wake = -math.inf
        #: tick index of the first instant :meth:`missed` has not reported
        self.since = 0

    def stop(self) -> None:
        self.ticker.unregister(self)

    def after_tick(self, job: Callable[[], None]) -> None:
        self.ticker.after_tick(job)

    def sleep_until(self, when: float) -> None:
        """Skip this slot at every instant before ``when``, from the next
        fire on; called from the slot's own callback."""
        self.wake = when
        self.since = self.ticker.ticks

    def wake_up(self) -> None:
        """Call this slot again at every instant."""
        self.wake = -math.inf

    def missed(self) -> List[float]:
        """The instants skipped since :meth:`sleep_until` (or the last
        call) whose turn for this slot has come, each as the sim time the
        slot would have been called at; they are not reported again, and
        an awake slot has none.

        An instant's turn has come once its fire is done, or while it
        runs, once the fire has walked past this slot's key. While a slot
        is registered its ticker fires at every grid instant, and no fire
        moves the clock, so instant ``k`` is ``epoch + k·interval``.
        """
        if self.wake == -math.inf:
            return []
        ticker = self.ticker
        end = ticker.ticks
        cursor = ticker._cursor
        if cursor is not None and self.key >= cursor:
            end -= 1  # the fire in progress has not reached this slot
        since = self.since
        if end <= since:
            return []
        self.since = end
        epoch, interval = ticker.epoch, ticker.interval
        return [epoch + k * interval for k in range(since, end)]


class SharedTicker:
    """Many periodic callbacks riding **one** simulator event per instant.

    A thousand cohort delegates each running a private 50 ms render
    :class:`PeriodicTask` cost a thousand heap entries per tick instant.
    Registering them on one :class:`SharedTicker` collapses that to a
    single event whose firing walks the callback list in registration
    order. Ticks are epoch-aligned (``epoch + n·interval``), so every
    client on the ticker renders on the same grid — which is also what
    lets their deliveries coalesce into shared pacing groups upstream.

    A registrant with nothing to do until some sim time sleeps through
    its slot (:meth:`_TickerSlot.sleep_until`): the fire skips it, and
    :meth:`_TickerSlot.missed` derives the instants it slept through
    from their tick indices. No fire moves the clock — blocking work goes
    to :meth:`after_tick` — so the ticker keeps no history.

    The ticker only occupies the event queue while it has registrants;
    late registrants join at the next grid instant. It is never
    skippable: what rides it (render loops) is active playback, which a
    quiet-window :meth:`Simulator.fast_forward` must not leap.
    """

    def __init__(self, simulator: Simulator, interval: float) -> None:
        if interval <= 0:
            raise SimulationError("interval must be positive")
        self.simulator = simulator
        self.interval = interval
        self.epoch = simulator.now
        #: index of the next grid instant to fire (during a fire: the one
        #: after it)
        self.ticks = 0
        self._slots: Dict[int, _TickerSlot] = {}
        self._keys = itertools.count()
        self._handle: Optional[EventHandle] = None
        #: jobs queued by the callbacks of the fire in progress, else None
        self._after: Optional[List[Callable[[], None]]] = None
        #: key of the slot the fire in progress is calling, else None
        self._cursor: Optional[int] = None

    def __len__(self) -> int:
        return len(self._slots)

    def register(self, callback: Callable[[], None]) -> _TickerSlot:
        slot = _TickerSlot(self, next(self._keys), callback)
        self._slots[slot.key] = slot
        if self._handle is None:
            self._schedule_next()
        return slot

    def unregister(self, slot: _TickerSlot) -> None:
        self._slots.pop(slot.key, None)
        if not self._slots and self._handle is not None:
            self.simulator.cancel(self._handle)
            self._handle = None

    def _schedule_next(self) -> None:
        now = self.simulator.now
        if now > self.epoch:
            # next grid instant at or after now
            n = math.ceil((now - self.epoch) / self.interval - 1e-12)
            self.ticks = max(self.ticks, n)
        when = self.epoch + self.ticks * self.interval
        if when < now:
            when = now
        self._handle = self.simulator.schedule_at(when, self._fire)

    def after_tick(self, job: Callable[[], None]) -> None:
        """Run ``job`` after this instant's callbacks, the next tick
        already scheduled.

        A job may block on a control round trip (a reconnect, a
        downshift, a close): a blocking wait runs the event loop, which a
        callback may not (see :meth:`_fire`). Outside a fire the job runs
        now.
        """
        if self._after is None:
            job()
        else:
            self._after.append(job)

    def _fire(self) -> None:
        self._handle = None
        simulator = self.simulator
        now = simulator.now
        self.ticks += 1
        after = self._after = []
        for slot in list(self._slots.values()):
            if slot.wake > now:
                continue
            self._cursor = slot.key
            slot.callback()
            if simulator.now != now:
                raise SimulationError(
                    f"a ticker callback ran the event loop from t={now} "
                    f"to t={simulator.now}: blocking work goes to after_tick"
                )
        self._cursor = None
        self._after = None
        if self._slots:
            self._schedule_next()
        for job in after:
            job()
