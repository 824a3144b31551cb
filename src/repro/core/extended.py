"""The paper's contribution: the **extended timed Petri net** model.

Deng et al. extend OCPN/XOCPN along the three axes those models lack
(paper §1):

1. **Schedule changes caused by user interactions** — play, pause, resume,
   skip forward/backward between synchronization points, and playback-speed
   changes. The legal interaction sequences are themselves a small Petri net
   (the *control subnet*, :func:`build_control_net`): e.g. ``pause`` is only
   enabled while the ``playing`` place is marked. The
   :class:`InteractivePlayer` fires control transitions, so an illegal
   operation surfaces as :class:`~repro.core.petri.NotEnabledError` rather
   than undefined behaviour.

2. **Synchronization across distributed platforms** — a lecture plays at
   several sites connected by links with latency/jitter; a coordinator
   propagates interaction commands and periodic sync beacons
   (:class:`DistributedCoordinator`), and per-site drift is measurable.

3. **Floor control with multiple users** — a floor token place gives one
   user at a time the right to steer the shared presentation
   (:func:`build_floor_net`, :class:`FloorControl`); mutual exclusion is a
   P-invariant of the net.

The presentation itself is an OCPN compiled from a *segment sequence*
(:class:`ExtendedPresentation`) — the lecture structure of the paper, where
each segment is a slide synchronized with a video interval. Segment
boundaries are the net's synchronization points, which is what skip
operations target.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .intervals import Interval
from .ocpn import (
    CompiledOCPN,
    MediaLeaf,
    Spec,
    SpecError,
    compile_spec,
    sequence,
    spec_duration,
    spec_intervals,
)
from .petri import Marking, NotEnabledError, PetriNet


# ----------------------------------------------------------------------
# control subnet (interaction axis)
# ----------------------------------------------------------------------


class Interaction(enum.Enum):
    """User interactions of the extended model."""

    PLAY = "play"
    PAUSE = "pause"
    RESUME = "resume"
    SKIP_FORWARD = "skip_forward"
    SKIP_BACKWARD = "skip_backward"
    SET_SPEED = "set_speed"
    STOP = "stop"


#: Control transitions allowed per interaction, keyed by transition name.
CONTROL_TRANSITIONS = {
    Interaction.PLAY: "t_play",
    Interaction.PAUSE: "t_pause",
    Interaction.RESUME: "t_resume",
    Interaction.SKIP_FORWARD: "t_skip_fwd",
    Interaction.SKIP_BACKWARD: "t_skip_back",
    Interaction.SET_SPEED: "t_speed",
    Interaction.STOP: "t_stop",
}


def build_control_net() -> PetriNet:
    """The interaction-state subnet: idle → playing ⇄ paused → stopped.

    Skip and speed-change are self-loops on ``playing`` (they mutate the
    schedule, not the control state); ``stop`` is reachable from both
    ``playing`` and ``paused`` (via resume). One token circulates — the
    P-invariant ``idle + playing + paused + stopped = 1``, so the player is
    always in exactly one state; ``python -m repro nets check`` proves it
    and that ``stopped`` is the only dead marking.
    """
    net = PetriNet("control")
    net.add_place("idle", tokens=1)
    net.add_place("playing")
    net.add_place("paused")
    net.add_place("stopped")
    net.add_transition("t_play")
    net.add_arc("idle", "t_play")
    net.add_arc("t_play", "playing")
    net.add_transition("t_pause")
    net.add_arc("playing", "t_pause")
    net.add_arc("t_pause", "paused")
    net.add_transition("t_resume")
    net.add_arc("paused", "t_resume")
    net.add_arc("t_resume", "playing")
    for name in ("t_skip_fwd", "t_skip_back", "t_speed"):
        net.add_transition(name)
        net.add_arc("playing", name)
        net.add_arc(name, "playing")
    net.add_transition("t_stop")
    net.add_arc("playing", "t_stop")
    net.add_arc("t_stop", "stopped")
    return net


# ----------------------------------------------------------------------
# presentation structure (segments = sync points)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """One synchronization unit of a lecture (e.g. a slide + its video)."""

    name: str
    spec: Spec

    @property
    def duration(self) -> float:
        return spec_duration(self.spec)


class ExtendedPresentation:
    """A lecture as an ordered list of segments, compiled to one OCPN.

    Exposes the nominal schedule (per-leaf intervals, segment boundaries)
    that :class:`InteractivePlayer` renders against.
    """

    def __init__(self, segments: Sequence[Segment], *, name: str = "lecture") -> None:
        if not segments:
            raise SpecError("a presentation needs at least one segment")
        names = [s.name for s in segments]
        if len(set(names)) != len(names):
            raise SpecError("segment names must be unique")
        self.name = name
        self.segments = list(segments)
        self.spec: Spec = sequence(*(s.spec for s in segments))
        self.compiled: CompiledOCPN = compile_spec(self.spec, name=name)
        self.schedule: Dict[str, Interval] = spec_intervals(self.spec)
        # segment boundaries on the presentation timeline
        self.boundaries: List[float] = [0.0]
        for segment in self.segments:
            self.boundaries.append(self.boundaries[-1] + segment.duration)

    @property
    def duration(self) -> float:
        return self.boundaries[-1]

    def segment_index_at(self, position: float) -> int:
        """Index of the segment containing presentation time ``position``."""
        if position < 0:
            raise ValueError("position must be >= 0")
        for i in range(len(self.segments)):
            if position < self.boundaries[i + 1]:
                return i
        return len(self.segments) - 1

    def segment_start(self, index: int) -> float:
        return self.boundaries[index]

    def active_leaves(self, position: float) -> List[str]:
        """Media leaves whose interval covers ``position`` (render set)."""
        return sorted(
            name
            for name, interval in self.schedule.items()
            if interval.start <= position < interval.end
        )

    def verify(self) -> None:
        """Check the compiled net reproduces the interval-algebra schedule."""
        from .ocpn import verify_schedule

        verify_schedule(self.compiled)


# ----------------------------------------------------------------------
# interactive player (schedule-change axis)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PlayerEvent:
    """A state- or render-relevant event emitted by the player."""

    wall_time: float
    position: float
    kind: str  # "interaction" | "segment" | "render"
    detail: str


class InteractivePlayer:
    """Executes an :class:`ExtendedPresentation` under user control.

    Wall-clock time is advanced explicitly with :meth:`advance` (the network
    simulator drives it); presentation position advances at ``rate`` while
    the control net marks ``playing``. All interactions are validated by the
    control subnet — the formal content of the paper's "dynamical operations
    of users".
    """

    def __init__(self, presentation: ExtendedPresentation, *, user: str = "local") -> None:
        self.presentation = presentation
        self.user = user
        self.control = build_control_net()
        self.wall_time = 0.0
        self.position = 0.0
        self.rate = 1.0
        self.events: List[PlayerEvent] = []
        self._last_segment: Optional[int] = None

    # -- state queries ---------------------------------------------------

    @property
    def state(self) -> str:
        """Current control-net state: idle/playing/paused/stopped."""
        for place in ("idle", "playing", "paused", "stopped"):
            if self.control.marking[place]:
                return place
        raise AssertionError("control net lost its token")  # pragma: no cover

    @property
    def finished(self) -> bool:
        return self.position >= self.presentation.duration - 1e-9

    def current_segment(self) -> int:
        return self.presentation.segment_index_at(
            min(self.position, self.presentation.duration - 1e-9)
        )

    def active_media(self) -> List[str]:
        if self.state != "playing":
            return []
        return self.presentation.active_leaves(min(self.position, self.presentation.duration - 1e-9))

    # -- interactions ------------------------------------------------------

    def _fire(self, interaction: Interaction, detail: str = "") -> None:
        transition = CONTROL_TRANSITIONS[interaction]
        self.control.fire(transition)  # raises NotEnabledError when illegal
        self.events.append(
            PlayerEvent(self.wall_time, self.position, "interaction",
                        detail or interaction.value)
        )

    def play(self) -> None:
        self._fire(Interaction.PLAY)
        self._note_segment()

    def pause(self) -> None:
        self._fire(Interaction.PAUSE)

    def resume(self) -> None:
        self._fire(Interaction.RESUME)

    def stop(self) -> None:
        self._fire(Interaction.STOP)

    def set_speed(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self._fire(Interaction.SET_SPEED, f"speed={rate}")
        self.rate = rate

    def skip_forward(self) -> int:
        """Jump to the start of the next segment; returns the new index."""
        self._fire(Interaction.SKIP_FORWARD)
        index = min(self.current_segment() + 1, len(self.presentation.segments) - 1)
        self.position = self.presentation.segment_start(index)
        self._note_segment()
        return index

    def skip_backward(self) -> int:
        """Jump to the start of the previous segment (or this one's start)."""
        self._fire(Interaction.SKIP_BACKWARD)
        index = self.current_segment()
        # skipping back from mid-segment returns to its start; from a
        # boundary, to the previous segment
        if abs(self.position - self.presentation.segment_start(index)) < 1e-9:
            index = max(0, index - 1)
        self.position = self.presentation.segment_start(index)
        self._note_segment()
        return index

    def seek(self, position: float) -> None:
        """Direct positioning (used by sync beacons), no control firing."""
        if position < 0:
            raise ValueError("position must be >= 0")
        self.position = min(position, self.presentation.duration)
        self._note_segment()

    # -- time ------------------------------------------------------------

    def _note_segment(self) -> None:
        segment = self.current_segment()
        if segment != self._last_segment:
            self._last_segment = segment
            self.events.append(
                PlayerEvent(
                    self.wall_time,
                    self.position,
                    "segment",
                    self.presentation.segments[segment].name,
                )
            )

    def advance(self, wall_dt: float) -> None:
        """Advance wall time; position moves only while playing."""
        if wall_dt < 0:
            raise ValueError("time cannot go backwards")
        self.wall_time += wall_dt
        if self.state == "playing" and not self.finished:
            # advance segment-by-segment so boundary events are emitted
            remaining = wall_dt * self.rate
            while remaining > 1e-12 and not self.finished:
                boundary = self.presentation.boundaries[self.current_segment() + 1]
                step = min(remaining, boundary - self.position)
                self.position += step
                remaining -= step
                if self.position >= boundary - 1e-12:
                    self.position = boundary
                    if not self.finished:
                        self._note_segment()
            if self.finished:
                self.position = self.presentation.duration

    def segment_events(self) -> List[PlayerEvent]:
        return [e for e in self.events if e.kind == "segment"]


# ----------------------------------------------------------------------
# floor control (multi-user axis)
# ----------------------------------------------------------------------


def build_floor_net(users: Sequence[str]) -> PetriNet:
    """The floor-control net: one floor token, per-user request/grant/release.

    Places per user ``u``: ``idle_u``, ``waiting_u``, ``holding_u``.
    Shared place ``floor`` holds the single floor token. Mutual exclusion
    (at most one ``holding_*`` marked) follows from the P-invariant
    ``floor + Σ holding_u = 1``, which ``python -m repro nets check``
    proves with :func:`repro.core.analysis.is_p_invariant` for 2–4 users.
    """
    if not users:
        raise ValueError("floor net needs at least one user")
    if len(set(users)) != len(users):
        raise ValueError("user names must be unique")
    net = PetriNet("floor-control")
    net.add_place("floor", tokens=1, label="floor token")
    for user in users:
        net.add_place(f"idle_{user}", tokens=1)
        net.add_place(f"waiting_{user}")
        net.add_place(f"holding_{user}")
        net.add_transition(f"request_{user}")
        net.add_arc(f"idle_{user}", f"request_{user}")
        net.add_arc(f"request_{user}", f"waiting_{user}")
        net.add_transition(f"grant_{user}")
        net.add_arc(f"waiting_{user}", f"grant_{user}")
        net.add_arc("floor", f"grant_{user}")
        net.add_arc(f"grant_{user}", f"holding_{user}")
        net.add_transition(f"release_{user}")
        net.add_arc(f"holding_{user}", f"release_{user}")
        net.add_arc(f"release_{user}", "floor")
        net.add_arc(f"release_{user}", f"idle_{user}")
    return net


class FloorControl:
    """FIFO floor arbitration over :func:`build_floor_net`.

    The Petri net defines *legality*; this class adds the *policy* (grant
    order) and an audit log. Grants happen explicitly via :meth:`grant_next`
    or implicitly on release when someone is waiting.
    """

    def __init__(self, users: Sequence[str], *, tracer=None) -> None:
        self.users = list(users)
        self.net = build_floor_net(users)
        self.queue: List[str] = []
        self.log: List[Tuple[float, str, str]] = []  # (time, action, user)
        self.now = 0.0
        self.tracer = tracer  # optional repro.obs.Tracer

    def _check_user(self, user: str) -> None:
        if user not in self.users:
            raise KeyError(f"unknown user {user!r}")

    @property
    def holder(self) -> Optional[str]:
        for user in self.users:
            if self.net.marking[f"holding_{user}"]:
                return user
        return None

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("time cannot go backwards")
        self.now += dt

    def request(self, user: str) -> bool:
        """User asks for the floor; granted immediately if free.

        Returns True if the floor was granted right away.
        """
        self._check_user(user)
        self.net.fire(f"request_{user}")
        self.log.append((self.now, "request", user))
        self.queue.append(user)
        if self.holder is None:
            return self.grant_next() == user
        return False

    def grant_next(self) -> Optional[str]:
        """Grant the floor to the longest-waiting user, if any."""
        if self.holder is not None or not self.queue:
            return None
        user = self.queue.pop(0)
        self.net.fire(f"grant_{user}")
        self.log.append((self.now, "grant", user))
        if self.tracer is not None:
            self.tracer.event("floor.grant", user=user)
        return user

    def release(self, user: str) -> Optional[str]:
        """Holder gives the floor back; auto-grants to the next waiter."""
        self._check_user(user)
        self.net.fire(f"release_{user}")  # NotEnabledError if not holder
        self.log.append((self.now, "release", user))
        if self.tracer is not None:
            self.tracer.event("floor.release", user=user)
        return self.grant_next()

    def drop(self, user: str) -> Optional[str]:
        """Forcibly evict a departed user from the arbitration.

        A site crash/disconnect fires no ``release`` of its own — without
        this, a holder's death orphans the floor token forever. Dropping
        the holder fires the net's ordinary ``release`` transition (the
        P-invariant ``floor + Σ holding_u = 1`` is untouched) and grants
        the next waiter; dropping a waiter removes it from the FIFO queue
        so it can never be granted a floor it is not present to use (its
        ``waiting`` token strands harmlessly — by policy the queue, not
        the marking, decides grants). Returns the new holder, if any.
        """
        self._check_user(user)
        if self.holder == user:
            self.net.fire(f"release_{user}")
            self.log.append((self.now, "drop", user))
            if self.tracer is not None:
                self.tracer.event("floor.drop", user=user)
            return self.grant_next()
        if user in self.queue:
            self.queue.remove(user)
            self.log.append((self.now, "drop", user))
        return None

    def holding_times(self) -> Dict[str, float]:
        """Total floor-holding time per user (for fairness metrics)."""
        held: Dict[str, float] = {u: 0.0 for u in self.users}
        grant_time: Dict[str, float] = {}
        for when, action, user in self.log:
            if action == "grant":
                grant_time[user] = when
            elif action in ("release", "drop") and user in grant_time:
                # dropping the holder ends its tenure like a release
                held[user] += when - grant_time.pop(user)
        current = self.holder
        if current is not None and current in grant_time:
            held[current] += self.now - grant_time[current]
        return held


# ----------------------------------------------------------------------
# distributed synchronization axis
# ----------------------------------------------------------------------


@dataclass
class SiteLink:
    """Network and clock characteristics between coordinator and one site.

    ``clock_skew`` is the site's local-clock rate error (e.g. ``0.01`` means
    the replica's presentation clock runs 1% fast) — without periodic
    beacons this makes drift grow linearly with play time, which is exactly
    the failure mode of static OCPN schedules on distributed platforms.
    """

    latency: float = 0.05
    jitter: float = 0.0
    clock_skew: float = 0.0

    def delay(self, rng) -> float:
        if self.jitter <= 0:
            return self.latency
        return max(0.0, self.latency + rng.uniform(-self.jitter, self.jitter))


@dataclass(frozen=True)
class _PendingCommand:
    deliver_at: float
    action: str
    param: float = 0.0


class DistributedCoordinator:
    """Master/replica playback across sites — the paper's "distributed
    platforms" synchronization.

    The master player holds ground truth. Interaction commands are relayed
    to every site with per-link delay; every ``beacon_interval`` seconds the
    master broadcasts its position and replicas snap to it when their drift
    exceeds ``drift_threshold``. Setting ``beacon_interval=None`` disables
    beacons (the OCPN strawman) — bench S1 compares the two.
    """

    def __init__(
        self,
        presentation: ExtendedPresentation,
        sites: Mapping[str, SiteLink],
        *,
        beacon_interval: Optional[float] = 1.0,
        drift_threshold: float = 0.05,
        rng=None,
    ) -> None:
        import random

        self.presentation = presentation
        self.master = InteractivePlayer(presentation, user="master")
        self.sites: Dict[str, InteractivePlayer] = {
            name: InteractivePlayer(presentation, user=name) for name in sites
        }
        self.links = dict(sites)
        self.beacon_interval = beacon_interval
        self.drift_threshold = drift_threshold
        self.rng = rng or random.Random(0)
        self._pending: Dict[str, List[_PendingCommand]] = {name: [] for name in sites}
        self._next_beacon = beacon_interval
        self.drift_samples: Dict[str, List[Tuple[float, float]]] = {
            name: [] for name in sites
        }

    # -- command relay ----------------------------------------------------

    def _broadcast(self, action: str, param: float = 0.0) -> None:
        for name, link in self.links.items():
            deliver = self.master.wall_time + link.delay(self.rng)
            self._pending[name].append(_PendingCommand(deliver, action, param))

    def command(self, action: str, param: float = 0.0) -> None:
        """Apply an interaction at the master and relay it to all sites."""
        self._apply(self.master, action, param)
        self._broadcast(action, param)

    @staticmethod
    def _apply(player: InteractivePlayer, action: str, param: float) -> None:
        if action == "play":
            player.play()
        elif action == "pause":
            player.pause()
        elif action == "resume":
            player.resume()
        elif action == "stop":
            player.stop()
        elif action == "speed":
            player.set_speed(param)
        elif action == "skip_forward":
            player.skip_forward()
        elif action == "skip_backward":
            player.skip_backward()
        elif action == "beacon":
            if abs(player.position - param) > 1e-12:
                player.seek(param)
        else:
            raise ValueError(f"unknown action {action!r}")

    # -- time -------------------------------------------------------------

    def advance(self, dt: float, *, step: float = 0.01) -> None:
        """Advance global wall time in small steps, delivering commands."""
        remaining = dt
        while remaining > 1e-12:
            chunk = min(step, remaining)
            self.master.advance(chunk)
            for name, player in self.sites.items():
                player.advance(chunk * (1.0 + self.links[name].clock_skew))
                due = [c for c in self._pending[name] if c.deliver_at <= self.master.wall_time]
                self._pending[name] = [
                    c for c in self._pending[name] if c.deliver_at > self.master.wall_time
                ]
                for cmd in sorted(due, key=lambda c: c.deliver_at):
                    try:
                        self._apply(player, cmd.action, cmd.param)
                    except NotEnabledError:
                        pass  # command arrived after a conflicting one; beacon repairs
                self.drift_samples[name].append(
                    (self.master.wall_time, abs(player.position - self.master.position))
                )
            remaining -= chunk
            if self.beacon_interval is not None and self.master.wall_time >= (
                self._next_beacon or 0.0
            ):
                self._next_beacon += self.beacon_interval
                self._send_beacons()

    def _send_beacons(self) -> None:
        for name, link in self.links.items():
            deliver = self.master.wall_time + link.delay(self.rng)
            # beacon carries the master position *projected* to delivery time
            projected = self.master.position
            if self.master.state == "playing":
                projected = min(
                    self.presentation.duration,
                    projected + (deliver - self.master.wall_time) * self.master.rate,
                )
            self._pending[name].append(_PendingCommand(deliver, "beacon", projected))

    # -- metrics ------------------------------------------------------------

    def max_drift(self, site: str) -> float:
        samples = self.drift_samples[site]
        return max((d for _, d in samples), default=0.0)

    def mean_drift(self, site: str) -> float:
        samples = self.drift_samples[site]
        if not samples:
            return 0.0
        return sum(d for _, d in samples) / len(samples)
