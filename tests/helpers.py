"""Fixtures shared by several test modules (not collected as tests)."""

from typing import Tuple

from repro.core.petri import PetriNet
from repro.load import LectureSpec


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
