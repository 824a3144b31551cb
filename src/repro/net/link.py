"""Network links: bandwidth, propagation delay, jitter, loss, queueing.

A :class:`Link` is a unidirectional FIFO pipe on the shared simulator:
transmitting ``n`` bytes takes ``n·8/bandwidth`` of serialization after the
link becomes free (finite queue: packets beyond ``queue_limit`` in flight
are tail-dropped), then ``delay ± jitter`` of propagation, then the
receiver callback runs. Random loss is applied per packet with a seeded
RNG, so runs are reproducible. Loss can be i.i.d. (``loss_rate``) or bursty
via an optional :class:`GilbertElliott` two-state model, and a link can be
taken down/up or re-rated mid-run — the hooks the fault injector
(:mod:`repro.net.faults`) drives.

This is the substitution for the paper's campus network between the
Windows Media server and the students' browsers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from .engine import SimulationError, Simulator


@dataclass(frozen=True)
class GilbertElliott:
    """Two-state (good/bad) burst-loss model, stepped once per packet.

    In the *good* state packets drop with ``loss_good``; in *bad* with
    ``loss_bad``. After each packet the chain moves good→bad with
    ``p_enter`` and bad→good with ``p_exit``, so losses cluster into
    bursts of mean length ``1/p_exit`` instead of landing i.i.d.
    """

    p_enter: float  # good -> bad transition probability per packet
    p_exit: float  # bad -> good transition probability per packet
    loss_bad: float = 1.0
    loss_good: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p_enter", "p_exit", "loss_bad", "loss_good"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SimulationError(f"{name} must be in [0, 1], got {value}")
        if self.p_exit <= 0:
            raise SimulationError("p_exit must be positive (bad state must be escapable)")

    @property
    def average_loss(self) -> float:
        """Stationary loss rate of the chain."""
        pi_bad = self.p_enter / (self.p_enter + self.p_exit)
        return pi_bad * self.loss_bad + (1 - pi_bad) * self.loss_good

    @classmethod
    def from_average(
        cls, average_loss: float, *, mean_burst: float = 5.0
    ) -> "GilbertElliott":
        """Model with a target stationary loss rate and mean burst length."""
        if not 0 <= average_loss < 1:
            raise SimulationError("average_loss must be in [0, 1)")
        if mean_burst < 1:
            raise SimulationError("mean_burst must be >= 1 packet")
        p_exit = 1.0 / mean_burst
        p_enter = average_loss * p_exit / (1.0 - average_loss)
        return cls(p_enter=min(p_enter, 1.0), p_exit=p_exit)


@dataclass
class LinkStats:
    """Counters a link accumulates over a run."""

    sent: int = 0
    delivered: int = 0
    dropped_loss: int = 0
    dropped_queue: int = 0
    dropped_down: int = 0
    bytes_delivered: int = 0

    @property
    def loss_rate(self) -> float:
        return 1 - self.delivered / self.sent if self.sent else 0.0


class Link:
    """A unidirectional link with finite queue and random loss."""

    def __init__(
        self,
        simulator: Simulator,
        *,
        bandwidth: float = 1_000_000.0,  # bits/second
        delay: float = 0.02,  # propagation seconds
        jitter: float = 0.0,  # uniform ± seconds on propagation
        loss_rate: float = 0.0,
        burst_loss: Optional[GilbertElliott] = None,
        queue_limit: int = 64,  # packets queued awaiting serialization
        seed: int = 0,
        name: str = "link",
        tracer=None,
    ) -> None:
        if bandwidth <= 0:
            raise SimulationError("bandwidth must be positive")
        if delay < 0 or jitter < 0:
            raise SimulationError("delay/jitter must be >= 0")
        if not 0 <= loss_rate < 1:
            raise SimulationError("loss_rate must be in [0, 1)")
        if queue_limit < 1:
            raise SimulationError("queue_limit must be >= 1")
        self.simulator = simulator
        self.bandwidth = bandwidth
        self.delay = delay
        self.jitter = jitter
        self.loss_rate = loss_rate
        self.burst_loss = burst_loss
        self.queue_limit = queue_limit
        self.name = name
        self.up = True
        self._seed = seed
        #: built on the first read of :attr:`rng`; until then a loss-free
        #: link counts the draws it owes instead of making them
        self._rng: Optional[random.Random] = None
        self._draws = 0
        self.stats = LinkStats()
        # optional repro.obs.Tracer: link-state events only (per-packet
        # drops are summarized in stats — tracing them would dominate the
        # record stream and the overhead budget)
        self.tracer = tracer
        self._busy_until = 0.0
        self._queued = 0
        self._burst_bad = False

    @property
    def rng(self) -> random.Random:
        """The link's seeded generator, built on first use. It first makes
        the draws the link only counted, so every draw from it is the one a
        generator built with the link would make."""
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self._seed)
            for _ in range(self._draws):
                rng.random()
            self._draws = 0
        return rng

    def serialization_time(self, size_bytes: int) -> float:
        return size_bytes * 8 / self.bandwidth

    # -- fault hooks (driven by repro.net.faults) -----------------------

    def take_down(self) -> None:
        """Cut the link: every subsequent transmit drops until brought up.

        Packets already past serialization keep propagating — a cut wire
        does not reach back into the receiver's NIC.
        """
        self.up = False
        if self.tracer is not None:
            self.tracer.event("link.down", link=self.name)

    def bring_up(self) -> None:
        self.up = True
        if self.tracer is not None:
            self.tracer.event("link.up", link=self.name)

    def set_bandwidth(self, bandwidth: float) -> None:
        """Re-rate the link (bandwidth collapse / recovery) mid-run."""
        if bandwidth <= 0:
            raise SimulationError("bandwidth must be positive")
        self.bandwidth = bandwidth

    def set_loss(
        self,
        *,
        loss_rate: Optional[float] = None,
        burst_loss: Optional[GilbertElliott] = None,
    ) -> None:
        """Replace the loss process; burst model state restarts in *good*."""
        if loss_rate is not None:
            if not 0 <= loss_rate < 1:
                raise SimulationError("loss_rate must be in [0, 1)")
            self.loss_rate = loss_rate
        self.burst_loss = burst_loss
        self._burst_bad = False

    def _packet_lost(self) -> bool:
        """Sample the active loss process for one packet."""
        model = self.burst_loss
        if model is None:
            if self._rng is None and not self.loss_rate:
                # random() < 0 never holds: owe the draw, do not make it
                self._draws += 1
                return False
            return self.rng.random() < self.loss_rate
        rate = model.loss_bad if self._burst_bad else model.loss_good
        lost = self.rng.random() < rate
        flip = model.p_exit if self._burst_bad else model.p_enter
        if self.rng.random() < flip:
            self._burst_bad = not self._burst_bad
        return lost

    @property
    def queue_depth(self) -> int:
        return self._queued

    @property
    def landing_horizon(self) -> float:
        """Latest instant the last message this link accepted can land:
        its serialization end plus the longest propagation. Past it the
        wire carries nothing it has taken so far."""
        return self._busy_until + self.delay + self.jitter

    def transmit(
        self,
        size_bytes: int,
        on_delivery: Callable[[], None],
        *,
        on_drop: Optional[Callable[[str], None]] = None,
    ) -> bool:
        """Enqueue a packet; returns False if tail-dropped immediately.

        ``on_delivery`` runs at the receiver when the packet arrives;
        ``on_drop(reason)`` runs (immediately for queue drops, at
        would-have-arrived time for loss) when it does not.
        """
        if size_bytes <= 0:
            raise SimulationError("packet size must be positive")
        self.stats.sent += 1
        if not self.up:
            self.stats.dropped_down += 1
            if on_drop is not None:
                on_drop("down")
            return False
        if self._queued >= self.queue_limit:
            self.stats.dropped_queue += 1
            if on_drop is not None:
                on_drop("queue")
            return False
        start = max(self._busy_until, self.simulator.now)
        finish = start + self.serialization_time(size_bytes)
        self._busy_until = finish
        self._queued += 1

        propagation = self.delay
        if self.jitter > 0:
            propagation = max(0.0, propagation + self.rng.uniform(-self.jitter, self.jitter))
        lost = self._packet_lost()

        def serialized() -> None:
            self._queued -= 1

        self.simulator.schedule_at(finish, serialized, priority=-1)

        arrival = finish + propagation
        if lost:
            self.stats.dropped_loss += 1
            if on_drop is not None:
                self.simulator.schedule_at(arrival, lambda: on_drop("loss"))
            return True

        def delivered() -> None:
            self.stats.delivered += 1
            self.stats.bytes_delivered += size_bytes
            on_delivery()

        self.simulator.schedule_at(arrival, delivered)
        return True
