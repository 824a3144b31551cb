"""Transport channels over links: datagram and reliable in-order delivery.

Two channel types, matching how the real system used the network:

* :class:`DatagramChannel` — fire-and-forget, what media packets ride
  (late retransmitted video is useless, so the server doesn't try);
* :class:`ReliableChannel` — positive-ack ARQ with retransmission and
  in-order delivery, what HTTP control traffic rides (publish forms,
  play/pause/seek commands, license requests).

Messages carry arbitrary Python payloads plus an explicit ``size`` so wire
timing reflects real packet sizes without serializing everything twice.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict

from .engine import SimulationError, Simulator
from .link import Link


@dataclass(frozen=True)
class Message:
    """A transport-level message: opaque payload with a wire size."""

    payload: Any
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise SimulationError("message size must be positive")


class DatagramChannel:
    """Unreliable, unordered delivery straight over one link."""

    HEADER_SIZE = 28  # IP+UDP

    def __init__(
        self, link: Link, on_receive: Callable[[Message], None]
    ) -> None:
        self.link = link
        self.on_receive = on_receive
        self.sent = 0

    def send(self, message: Message) -> None:
        self.sent += 1
        self.link.transmit(
            message.size + self.HEADER_SIZE,
            lambda: self.on_receive(message),
        )


@dataclass
class _Pending:
    seq: int
    message: Message
    attempts: int = 0
    rto: float = 0.0  # current (backed-off) timeout for this message


class ReliableChannel:
    """Stop-and-wait-window ARQ with cumulative in-order delivery.

    Simple but complete: sequence numbers, a retransmission timer per
    message with exponential backoff (×``BACKOFF`` per retry, jittered,
    capped at ``RTO_MAX`` so partition-era retries don't hammer the link
    in lock-step), duplicate suppression, and in-order handoff to the
    receiver. Suitable for the control plane (a handful of small
    messages), not bulk media. A message still unacked after
    ``MAX_ATTEMPTS`` sends is given up on; the caller's own deadline
    (:meth:`HTTPClient.fetch <repro.web.http.HTTPClient.fetch>`) reports it.
    """

    ACK_SIZE = 40
    HEADER_SIZE = 40  # IP+TCP-ish
    RTO = 0.25
    MAX_ATTEMPTS = 8
    BACKOFF = 2.0
    RTO_MAX = 4.0
    JITTER = 0.1  # fraction of the rto, uniform ±
    SEED = 0

    def __init__(
        self,
        simulator: Simulator,
        out_link: Link,
        ack_link: Link,
        on_receive: Callable[[Message], None],
    ) -> None:
        self.simulator = simulator
        self.out_link = out_link
        self.ack_link = ack_link
        self.on_receive = on_receive
        self._next_seq = itertools.count()
        self._unacked: Dict[int, _Pending] = {}
        self._recv_buffer: Dict[int, Message] = {}
        self._next_deliver = 0
        self.retransmissions = 0

    @functools.cached_property
    def rng(self) -> random.Random:
        """The retry-jitter generator, built by the first retry."""
        return random.Random(self.SEED)

    # -- sender side ----------------------------------------------------

    def send(self, message: Message) -> int:
        seq = next(self._next_seq)
        pending = _Pending(seq, message, rto=self.RTO)
        self._unacked[seq] = pending
        self._transmit(pending)
        return seq

    def _transmit(self, pending: _Pending) -> None:
        pending.attempts += 1
        seq = pending.seq
        self.out_link.transmit(
            pending.message.size + self.HEADER_SIZE,
            lambda: self._arrive(seq, pending.message),
        )
        timeout = pending.rto
        # jitter desynchronizes *retries* only — first attempts keep the
        # deterministic base RTO, so loss-free timelines are unchanged
        if pending.attempts > 1:
            timeout *= 1 + self.rng.uniform(-self.JITTER, self.JITTER)
        self.simulator.schedule(timeout, lambda: self._timeout(seq))

    def _timeout(self, seq: int) -> None:
        pending = self._unacked.get(seq)
        if pending is None:
            return  # acked
        if pending.attempts >= self.MAX_ATTEMPTS:
            del self._unacked[seq]
            return
        pending.rto = min(pending.rto * self.BACKOFF, self.RTO_MAX)
        self.retransmissions += 1
        self._transmit(pending)

    def _acked(self, seq: int) -> None:
        self._unacked.pop(seq, None)

    @property
    def in_flight(self) -> int:
        return len(self._unacked)

    # -- receiver side ----------------------------------------------------

    def _arrive(self, seq: int, message: Message) -> None:
        # always ack, even duplicates (the ack may have been lost)
        self.ack_link.transmit(self.ACK_SIZE, lambda: self._acked(seq))
        # cumulative in-order delivery: anything below the delivery
        # frontier has already been handed up, no per-seq set needed
        if seq < self._next_deliver or seq in self._recv_buffer:
            return
        self._recv_buffer[seq] = message
        while self._next_deliver in self._recv_buffer:
            ready = self._recv_buffer.pop(self._next_deliver)
            self._next_deliver += 1
            self.on_receive(ready)
