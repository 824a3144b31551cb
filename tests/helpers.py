"""Fixtures shared by several test modules (not collected as tests)."""

from typing import Any, List, NamedTuple, Tuple

from repro.asf.packets import Depacketizer
from repro.core.petri import PetriNet
from repro.load import LectureSpec
from repro.streaming import MediaPlayer, RenderDigest


def lecture_catalog(
    count: int,
    duration: float,
    *,
    stagger: float = 0.0,
    live_fraction: float = 0.0,
) -> Tuple[LectureSpec, ...]:
    """A simple catalog: ``count`` lectures, start times ``stagger``
    apart, the first ``live_fraction`` of them marked live simulcasts."""
    live_count = int(round(count * live_fraction))
    return tuple(
        LectureSpec(
            name=f"lec{i}",
            duration=duration,
            start_time=i * stagger,
            live=i < live_count,
        )
        for i in range(count)
    )


def net_from(name, tokens, transitions, *chains) -> PetriNet:
    """A validated net: ``tokens`` maps every place to its initial count,
    ``transitions`` names the transitions, and each chain
    ``("p", "t", "q", …)`` arcs consecutive nodes."""
    net = PetriNet(name)
    for place, count in tokens.items():
        net.add_place(place, tokens=count)
    for transition in transitions:
        net.add_transition(transition)
    for chain in chains:
        for source, target in zip(chain, chain[1:]):
            net.add_arc(source, target)
    net.validate()
    return net


def firing_times(execution, transition):
    """When a timed execution fired ``transition``, in order."""
    return [
        e.time for e in execution.events
        if e.kind == "fire" and e.name == transition
    ]


class CollectingDepacketizer(Depacketizer):
    """A depacketizer that keeps ``units``: what its pushes returned, in
    order. The depacketizer itself keeps no list of the units it completed;
    a deep copy or a pickle of this one carries its list along."""

    def __init__(self):
        super().__init__()
        self.units = []

    def push_train(self, packets):
        units = super().push_train(packets)
        self.units += units
        return units


def units_for(units, stream_number):
    """The units of one stream among ``units`` (what a depacketizer's
    pushes returned), in order."""
    return [u for u in units if u.stream_number == stream_number]


class Rendered(NamedTuple):
    """One unit handed to the renderer."""

    wall_time: float
    position: float
    unit: Any


class RenderLog(RenderDigest):
    """A render digest that also keeps what it folds: ``entries``, one
    :class:`Rendered` per unit, in render order. A player keeps only the
    digest; a test that needs the whole log installs this one before the
    player plays (:func:`log_renders`). A split twin inherits a copy, as it
    inherits the digest, and every report carries one."""

    __slots__ = ("entries",)

    def __init__(self):
        super().__init__()
        self.entries: List[Rendered] = []

    def add(self, wall_time, position, unit):
        super().add(wall_time, position, unit)
        self.entries.append(Rendered(wall_time, position, unit))

    def copy(self):
        other = super().copy()
        other.entries = list(self.entries)
        return other


def log_renders(player):
    """Give ``player`` a :class:`RenderLog`; returns the player."""
    player._digest = RenderLog()
    return player


def rendered(report):
    """The render log in the report of a player given a :class:`RenderLog`."""
    return report.digest.entries


class TickingPlayer(MediaPlayer):
    """A player that never sleeps: its tick runs at every render instant,
    traced or not, so nothing is left to settle. The every-instant oracle
    a sleeping player is compared against; its split twins tick too."""

    def _doze(self, now, wake):
        pass
