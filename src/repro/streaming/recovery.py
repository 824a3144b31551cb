"""Selective retransmission, degradation, and stall detection for players.

Media rides fire-and-forget :class:`~repro.net.transport.DatagramChannel`s;
a dropped packet is gone unless somebody asks for it again. This module is
the asking. :class:`RecoveryClient` sits beside the player's depacketizer:

* **NAK loop** — sequence gaps the depacketizer reports become batched
  :class:`NakRequest`s on a small reverse datagram channel; the server
  re-sends the exact cached packets (no re-encode). Each missing sequence
  gets a bounded retry budget, and NAKs only go out while the *recovery
  window* is open — there must be enough buffered runway that a repair can
  still arrive before its deadline; chasing a packet whose play time has
  passed wastes the uplink.
* **Graceful degradation** — when gaps are abandoned faster than the
  budget can cover (collapsed link, sustained burst), the client asks the
  server for the next lower-bitrate rendition through the existing
  Intelligent-Streaming selection path, instead of rebuffering forever.
* **Stall watchdog** — :meth:`RecoveryClient.stalled` answers "has media
  stopped arriving entirely?" (server crash, partition). The player polls
  it from its *existing* render tick — crucially this module schedules no
  periodic events of its own, so a fault-free run costs zero extra
  simulator events. The NAK timer exists only while gaps are outstanding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

from ..asf.packets import DataPacket, MediaUnit
from ..net.engine import EventHandle, Simulator
from ..metrics.counters import Counters

#: wire size of one NAK datagram (session id + a handful of sequences)
NAK_WIRE_SIZE = 48


@dataclass(frozen=True)
class NakRequest:
    """Client → server: please re-send these packet sequences."""

    session_id: int
    sequences: Tuple[int, ...]


@dataclass(frozen=True)
class RecoveryConfig:
    """The client-side recovery state machine's constants.

    Each has the one value every caller runs with, so an instance only
    says "recovery on"; a test that needs a tight NAK budget or a short
    watchdog patches the class attribute.
    """

    #: gap detection -> first NAK (reorder grace)
    nak_delay: ClassVar[float] = 0.04
    #: retry spacing while a repair is pending
    nak_timeout: ClassVar[float] = 0.25
    nak_budget: ClassVar[int] = 4  # attempts per missing sequence
    #: buffered seconds required to keep asking
    min_runway: ClassVar[float] = 0.25
    #: abandoned repairs within the cooldown window that ask a downshift
    downshift_after: ClassVar[int] = 6
    #: seconds between downshift requests
    downshift_cooldown: ClassVar[float] = 4.0
    #: silence before declaring a stall
    watchdog_timeout: ClassVar[float] = 1.5
    #: first reconnect retry delay, doubled per attempt up to the max
    reconnect_backoff: ClassVar[float] = 0.25
    reconnect_backoff_max: ClassVar[float] = 2.0
    max_reconnects: ClassVar[int] = 10


class RecoveryClient:
    """Tracks missing sequences, emits NAKs, decides degradation/stalls.

    Wired by the player with callables instead of object references so it
    stays testable in isolation:

    * ``send_nak(sequences)`` — ship a batched NAK to the server;
    * ``runway()`` — buffered seconds ahead of the playhead (the recovery
      window key); may return ``inf`` while the clock is paused;
    * ``on_downshift()`` — ask for the next lower rendition; returns True
      if a shift actually happened (False: already at the floor).
    """

    def __init__(
        self,
        simulator: Simulator,
        config: RecoveryConfig,
        *,
        send_nak: Callable[[Tuple[int, ...]], None],
        runway: Callable[[], float],
        on_downshift: Callable[[], bool],
        counters: Optional[Counters] = None,
        tracer=None,
    ) -> None:
        self.simulator = simulator
        self.config = config
        self.send_nak = send_nak
        self.runway = runway
        self.on_downshift = on_downshift
        self.counters = counters if counters is not None else Counters("recovery")
        self.tracer = tracer  # optional repro.obs.Tracer
        self._pending: Dict[int, int] = {}  # sequence -> attempts so far
        self._timer: Optional[EventHandle] = None
        self._abandons: List[float] = []  # recent abandon times
        self._last_downshift: Optional[float] = None
        self.last_arrival: float = simulator.now

    # -- arrivals -------------------------------------------------------

    def note_arrival(self) -> None:
        """Media arrived, or its session moved: restart the arrival clock."""
        self.last_arrival = self.simulator.now

    def take_train(
        self,
        packets: Sequence[DataPacket],
        push_train: Callable[[Sequence[DataPacket]], List[MediaUnit]],
    ) -> List[MediaUnit]:
        """One wire message arrived: note it, walk it with ``push_train``
        (the depacketizer's) and return the units it completes.

        A train whose sequences ascend is noted whole before the walk, and
        that is what noting each packet before pushing it does: a gap the
        walk reveals lies below the packet that reveals it, so it holds
        none of the train's later sequences. Nor does a gap pending before
        the train lie above one the walk reveals — a gap is recorded below
        the highest sequence seen, and the replays that forget that
        sequence also :meth:`reset` — so the NAK timer is cancelled, or
        kept, exactly as packet by packet.

        Any other train is noted and walked packet by packet. A relay's
        live catch-up history keeps a NAK repair where it arrived, after
        later sequences, so the gap a later sequence reveals may be filled
        by a packet further down the same train.
        """
        last = -1
        for packet in packets:
            if packet.sequence < last:
                break
            last = packet.sequence
        else:
            self.note_train(packets)
            return push_train(packets)
        units: List[MediaUnit] = []
        for packet in packets:
            self.note_train((packet,))
            units += push_train((packet,))
        return units

    def note_train(self, packets: Sequence[DataPacket]) -> None:
        """Packets arrived; each of their sequences repairs a pending gap,
        if one is pending. :meth:`take_train` says when a whole train may
        be noted before it is walked."""
        self.last_arrival = self.simulator.now
        pending = self._pending
        if not pending:
            return
        for packet in packets:
            if pending.pop(packet.sequence, None) is not None:
                self.counters.inc("repairs_received")
                if not pending:
                    self._cancel_timer()
                    return

    def observe_gaps(self, sequences: List[int]) -> None:
        """The depacketizer skipped these sequences; start chasing them."""
        fresh = [s for s in sequences if s not in self._pending]
        if not fresh:
            return
        for seq in fresh:
            self._pending[seq] = 0
        self.counters.inc("gaps_observed", len(fresh))
        if self.tracer is not None:
            self.tracer.event("gap.observed", count=len(fresh))
        if self._timer is None:
            self._arm(self.config.nak_delay)

    # -- the NAK timer --------------------------------------------------

    def _arm(self, delay: float) -> None:
        self._timer = self.simulator.schedule(delay, self._fire)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self.simulator.cancel(self._timer)
            self._timer = None

    def _fire(self) -> None:
        self._timer = None
        if not self._pending:
            return
        window_open = self.runway() >= self.config.min_runway
        due: List[int] = []
        for seq in sorted(self._pending):
            # re-entrancy: _abandon may trigger a downshift whose HTTP
            # round trip drives the simulator, delivering repairs that
            # pop other pending entries while this loop runs
            attempts = self._pending.get(seq)
            if attempts is None:
                continue
            if attempts >= self.config.nak_budget or not window_open:
                self._abandon(seq)
                continue
            self._pending[seq] = attempts + 1
            due.append(seq)
        if due:
            self.counters.inc("naks_sent")
            self.counters.inc("sequences_nacked", len(due))
            if self.tracer is not None:
                self.tracer.event("nak.sent", count=len(due))
            self.send_nak(tuple(due))
        if self._pending:
            self._arm(self.config.nak_timeout)

    def _abandon(self, seq: int) -> None:
        del self._pending[seq]
        self.counters.inc("repairs_abandoned")
        if self.tracer is not None:
            self.tracer.event("repair.abandoned", sequence=seq)
        now = self.simulator.now
        window = self.config.downshift_cooldown
        self._abandons = [t for t in self._abandons if now - t <= window]
        self._abandons.append(now)
        if len(self._abandons) >= self.config.downshift_after:
            if self.request_downshift():
                self._abandons.clear()

    # -- degradation ----------------------------------------------------

    def request_downshift(self) -> bool:
        """Ask for a lower rendition, rate-limited by the cooldown."""
        now = self.simulator.now
        if (
            self._last_downshift is not None
            and now - self._last_downshift < self.config.downshift_cooldown
        ):
            return False
        self._last_downshift = now
        shifted = self.on_downshift()
        if shifted:
            self.counters.inc("downshifts")
        return shifted

    # -- stall detection ------------------------------------------------

    def stalled(self, now: float) -> bool:
        """True when nothing has arrived for ``watchdog_timeout`` seconds."""
        return now - self.last_arrival > self.config.watchdog_timeout

    def reset(self) -> None:
        """Forget all pending repairs and restart the arrival clock
        (pause/seek/reconnect: old gaps no longer apply)."""
        self._pending.clear()
        self._cancel_timer()
        self.last_arrival = self.simulator.now

    @property
    def pending_repairs(self) -> int:
        return len(self._pending)
