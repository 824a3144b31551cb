"""Timed Petri nets with place durations (OCPN execution semantics).

In the timed model used by OCPN/XOCPN and the paper's extended net, *places*
carry durations: a token entering place ``p`` is **locked** for ``tau(p)``
seconds (the media object is playing) and only afterwards becomes available
to output transitions. Transitions fire instantaneously as soon as all their
input tokens are unlocked (earliest-firing semantics), which is what makes
the net a deterministic schedule for a pre-orchestrated presentation.

:class:`TimedPetriNet` couples a :class:`~repro.core.petri.PetriNet`
structure with a duration map; :class:`TimedExecution` runs it and records a
:class:`~repro.core.scheduler.PresentationTimeline`-compatible event list:
``(time, kind, name)`` with kinds ``"enter"`` (token/playout starts),
``"exit"`` (playout ends / token unlocked) and ``"fire"``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from .petri import Marking, PetriNet, PetriNetError


@dataclass(frozen=True)
class TimedEvent:
    """One event in a timed execution trace."""

    time: float
    kind: str  # "enter" | "exit" | "fire"
    name: str  # place name for enter/exit, transition name for fire

    def __post_init__(self) -> None:
        if self.kind not in ("enter", "exit", "fire"):
            raise ValueError(f"unknown event kind {self.kind!r}")


class TimedPetriNet:
    """A Petri net whose places hold tokens for a fixed duration.

    Parameters
    ----------
    net:
        The underlying untimed structure.
    durations:
        Map place name -> playout duration in seconds. Places absent from
        the map are instantaneous (duration 0), e.g. control places.
    """

    def __init__(
        self, net: PetriNet, durations: Optional[Mapping[str, float]] = None
    ) -> None:
        self.net = net
        self._durations: Dict[str, float] = {}
        for place, tau in (durations or {}).items():
            self.set_duration(place, tau)

    def set_duration(self, place: str, tau: float) -> None:
        self.net.place(place)  # validates existence
        if tau < 0:
            raise ValueError(f"duration for {place!r} must be >= 0")
        self._durations[place] = float(tau)

    def duration(self, place: str) -> float:
        return self._durations.get(place, 0.0)

    @property
    def durations(self) -> Dict[str, float]:
        return dict(self._durations)

    def execute(
        self,
        *,
        max_firings: int = 100_000,
        stop_time: Optional[float] = None,
    ) -> "TimedExecution":
        """Run to quiescence under earliest-firing semantics; returns the
        completed :class:`TimedExecution`."""
        execution = TimedExecution(self)
        execution.run(max_firings=max_firings, stop_time=stop_time)
        return execution


class TimedExecution:
    """Stepwise executor for a :class:`TimedPetriNet`.

    The executor can be driven to completion with :meth:`run` or advanced
    event-by-event with :meth:`step`, which the interactive playback engine
    uses to interleave user actions (pause/skip) with net evolution.
    """

    def __init__(self, timed_net: TimedPetriNet) -> None:
        self.timed_net = timed_net
        self.net = timed_net.net
        self.now = 0.0
        self.events: List[TimedEvent] = []
        # (unlock_time, seq, place) heap of locked tokens
        self._locked: List[Tuple[float, int, str]] = []
        self._seq = itertools.count()
        # unlocked token counts per place
        self._available: Dict[str, int] = {}
        self.firings = 0
        # event-driven enabling: _armed holds transitions currently enabled
        # under the available marking; a transition's status can only change
        # when a place in its neighbourhood changes, so only those are
        # re-checked (keeps large compiled nets near-linear to execute)
        self._order: Dict[str, int] = {
            t.name: i for i, t in enumerate(self.net.transitions)
        }
        self._armed: set = set()
        self._prioritized = hasattr(self.net, "priority_enabled")
        self._recheck(self._order)
        for place, count in self.net.initial_marking.items():
            for _ in range(count):
                self._admit_token(place, self.now)

    # ------------------------------------------------------------------

    def _recheck(self, transitions) -> None:
        """Refresh the armed set for the given transitions."""
        marking = Marking(self._available)
        for t in transitions:
            if self.net.is_enabled(t, marking):
                self._armed.add(t)
            else:
                self._armed.discard(t)

    def _place_changed(self, place: str) -> None:
        """Re-check the neighbourhood of a place whose count changed.

        Consumers (postset) may gain/lose enabling; producers (preset)
        only matter when the place has a capacity bound.
        """
        affected = set(self.net.postset(place))
        affected.update(self.net.inhibited_by(place))
        if self.net.place(place).capacity is not None:
            affected.update(self.net.preset(place))
        self._recheck(affected)

    def _admit_token(self, place: str, when: float) -> None:
        """A token enters ``place`` at time ``when`` and locks for tau."""
        tau = self.timed_net.duration(place)
        self.events.append(TimedEvent(when, "enter", place))
        if tau <= 0:
            self._available[place] = self._available.get(place, 0) + 1
            self.events.append(TimedEvent(when, "exit", place))
            self._place_changed(place)
        else:
            heapq.heappush(self._locked, (when + tau, next(self._seq), place))

    def _release_until(self, when: float) -> None:
        """Unlock every token whose playout completes by ``when``."""
        while self._locked and self._locked[0][0] <= when + 1e-12:
            unlock_time, _, place = heapq.heappop(self._locked)
            self._available[place] = self._available.get(place, 0) + 1
            self.events.append(TimedEvent(unlock_time, "exit", place))
            self._place_changed(place)

    def _enabled(self) -> List[str]:
        if not self._armed:
            return []
        armed = sorted(self._armed, key=self._order.__getitem__)
        if self._prioritized:
            # apply the prioritized net's masking rule over the armed set
            top = max(self.net.transition(t).priority for t in armed)
            armed = [t for t in armed if self.net.transition(t).priority == top]
        return armed

    # ------------------------------------------------------------------

    def step(self) -> Optional[TimedEvent]:
        """Advance by one firing (or one unlock if nothing is enabled).

        Returns the ``fire`` event, or ``None`` when the net is quiescent.
        """
        self._release_until(self.now)
        enabled = self._enabled()
        while not enabled and self._locked:
            self.now = max(self.now, self._locked[0][0])
            self._release_until(self.now)
            enabled = self._enabled()
        if not enabled:
            return None
        transition = enabled[0]
        return self._fire(transition)

    def _fire(self, transition: str) -> TimedEvent:
        marking = Marking(self._available)
        if not self.net.is_enabled(transition, marking):
            raise PetriNetError(f"{transition!r} not enabled at t={self.now}")
        for place, weight in self.net.inputs(transition).items():
            self._available[place] -= weight
        for place in self.net.inputs(transition):
            self._place_changed(place)
        event = TimedEvent(self.now, "fire", transition)
        self.events.append(event)
        self.firings += 1
        for place, weight in self.net.outputs(transition).items():
            for _ in range(weight):
                self._admit_token(place, self.now)
        return event

    def run(
        self, *, max_firings: int = 100_000, stop_time: Optional[float] = None
    ) -> None:
        """Fire until quiescence, ``max_firings``, or ``stop_time``."""
        while self.firings < max_firings:
            if stop_time is not None and self.now > stop_time:
                break
            if self.step() is None:
                break
        # drain remaining unlocks so exit events are complete
        if stop_time is None:
            while self._locked:
                self.now = self._locked[0][0]
                self._release_until(self.now)
        else:
            self._release_until(stop_time)

    # ------------------------------------------------------------------
    # trace queries
    # ------------------------------------------------------------------

    def makespan(self) -> float:
        """Total presentation duration (time of the last event)."""
        return max((e.time for e in self.events), default=0.0)

    def playout_intervals(self, place: str) -> List[Tuple[float, float]]:
        """(start, end) pairs for each token playout in ``place``."""
        starts: List[float] = []
        intervals: List[Tuple[float, float]] = []
        for event in self.events:
            if event.name != place:
                continue
            if event.kind == "enter":
                starts.append(event.time)
            elif event.kind == "exit":
                intervals.append((starts.pop(0), event.time))
        return intervals
