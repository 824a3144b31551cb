"""Base Petri net model: places, transitions, arcs, markings, firing.

This module implements the classical place/transition net of Murata [1] and
Peterson [2], which everything else in :mod:`repro.core` builds upon:

* :class:`Place` — a condition or resource holder carrying tokens.
* :class:`Transition` — an event; *enabled* when every input place holds at
  least as many tokens as its arc weight (and every inhibitor arc's place
  holds fewer than its weight), and *firing* moves tokens.
* :class:`Arc` — a weighted, directed connection; normal or inhibitor.
* :class:`Marking` — an immutable token assignment, usable as a dict key so
  reachability graphs can be built over it.
* :class:`PetriNet` — the net itself, with enabling/firing semantics and
  incidence-matrix export for invariant analysis.

The multimedia models (OCPN, XOCPN, the paper's extended timed net) subclass
or wrap these primitives; see :mod:`repro.core.timed` and
:mod:`repro.core.ocpn`.

References
----------
[1] T. Murata, "Petri Nets: Properties, Analysis and Applications,"
    Proc. IEEE 77(4), 1989.
[2] J. L. Peterson, "Petri Net Theory and the Modeling of Systems,"
    Prentice-Hall, 1981.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple


class PetriNetError(Exception):
    """Base class for all structural and behavioural net errors."""


class DuplicateNodeError(PetriNetError):
    """A place or transition with the same name already exists."""


class UnknownNodeError(PetriNetError):
    """A referenced place or transition does not exist in the net."""


class NotEnabledError(PetriNetError):
    """An attempt was made to fire a transition that is not enabled."""


@dataclass(frozen=True)
class Place:
    """A place (circle) in a Petri net.

    Parameters
    ----------
    name:
        Unique identifier within the net.
    capacity:
        Optional maximum number of tokens the place may hold
        (``None`` = unbounded, the classical model).
    label:
        Optional human-readable annotation (e.g. the media object the
        place represents in an OCPN).
    """

    name: str
    capacity: Optional[int] = None
    label: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("place name must be non-empty")
        if self.capacity is not None and self.capacity < 0:
            raise ValueError(f"place {self.name!r}: capacity must be >= 0")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class Transition:
    """A transition (bar) in a Petri net.

    Parameters
    ----------
    name:
        Unique identifier within the net.
    priority:
        Used by :mod:`repro.core.prioritized`; among simultaneously enabled
        transitions, higher priority fires first. The base semantics of
        :meth:`PetriNet.enabled` ignore priority.
    label:
        Optional human-readable annotation (e.g. "sync point t1").
    """

    name: str
    priority: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("transition name must be non-empty")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class Arc:
    """A directed arc between a place and a transition (either direction).

    ``source`` and ``target`` are node names; exactly one endpoint must be a
    place and the other a transition (validated by :class:`PetriNet`).
    ``inhibitor`` arcs may only run place→transition and *disable* the
    transition when the place holds ``weight`` or more tokens.
    """

    source: str
    target: str
    weight: int = 1
    inhibitor: bool = False

    def __post_init__(self) -> None:
        if self.weight < 1:
            raise ValueError("arc weight must be >= 1")


class Marking(Mapping[str, int]):
    """An immutable token count per place, hashable for graph search.

    Only places with a non-zero count are stored; ``marking["p"]`` returns 0
    for any unknown key, so markings over the same net compare equal
    regardless of which zero entries were supplied.
    """

    __slots__ = ("_counts", "_hash")

    def __init__(self, counts: Optional[Mapping[str, int]] = None) -> None:
        cleaned: Dict[str, int] = {}
        for name, count in (counts or {}).items():
            if count < 0:
                raise ValueError(f"negative token count for place {name!r}")
            if count:
                cleaned[name] = count
        self._counts: Dict[str, int] = cleaned
        self._hash = hash(frozenset(cleaned.items()))

    def __getitem__(self, place: str) -> int:
        return self._counts.get(place, 0)

    def __iter__(self) -> Iterator[str]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Marking):
            return self._counts == other._counts
        if isinstance(other, Mapping):
            return self._counts == {k: v for k, v in other.items() if v}
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}:{v}" for k, v in sorted(self._counts.items()))
        return f"Marking({{{inner}}})"

    def with_delta(self, delta: Mapping[str, int]) -> "Marking":
        """Return a new marking with ``delta`` added per place."""
        counts = dict(self._counts)
        for name, change in delta.items():
            counts[name] = counts.get(name, 0) + change
        return Marking(counts)

    def total(self) -> int:
        """Total number of tokens across all places."""
        return sum(self._counts.values())


class PetriNet:
    """A place/transition net with weighted and inhibitor arcs.

    The net is mutable during construction (``add_place`` etc.) and then
    queried/fired. Firing never mutates the net structure; the *current
    marking* is tracked on the instance but all behavioural methods also
    accept an explicit marking so analyses can explore without side effects.

    Examples
    --------
    >>> net = PetriNet("producer-consumer")
    >>> _ = net.add_place("buffer")
    >>> _ = net.add_transition("produce")
    >>> _ = net.add_arc("produce", "buffer")
    >>> net.set_marking({})
    >>> net.fire("produce")
    >>> net.marking["buffer"]
    1
    """

    def __init__(self, name: str = "net") -> None:
        self.name = name
        self._places: Dict[str, Place] = {}
        self._transitions: Dict[str, Transition] = {}
        # arcs indexed for O(1) enabling checks
        self._inputs: Dict[str, Dict[str, Arc]] = {}  # transition -> place -> arc
        self._outputs: Dict[str, Dict[str, Arc]] = {}  # transition -> place -> arc
        self._inhibitors: Dict[str, Dict[str, Arc]] = {}
        self._place_out: Dict[str, List[str]] = {}  # place -> transitions it feeds
        self._place_in: Dict[str, List[str]] = {}  # place -> transitions feeding it
        self._place_inhibits: Dict[str, List[str]] = {}  # place -> transitions it inhibits
        self.marking: Marking = Marking()
        self.initial_marking: Marking = Marking()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_place(
        self,
        name: str,
        *,
        capacity: Optional[int] = None,
        label: str = "",
        tokens: int = 0,
    ) -> Place:
        """Add a place; optionally seed ``tokens`` into the current marking."""
        if name in self._places or name in self._transitions:
            raise DuplicateNodeError(f"node {name!r} already exists")
        place = Place(name, capacity=capacity, label=label)
        self._places[name] = place
        self._place_out[name] = []
        self._place_in[name] = []
        self._place_inhibits[name] = []
        if tokens:
            self.marking = self.marking.with_delta({name: tokens})
            self.initial_marking = self.initial_marking.with_delta({name: tokens})
        return place

    def add_transition(self, name: str, *, priority: int = 0, label: str = "") -> Transition:
        if name in self._places or name in self._transitions:
            raise DuplicateNodeError(f"node {name!r} already exists")
        transition = Transition(name, priority=priority, label=label)
        self._transitions[name] = transition
        self._inputs[name] = {}
        self._outputs[name] = {}
        self._inhibitors[name] = {}
        return transition

    def add_arc(
        self, source: str, target: str, *, weight: int = 1, inhibitor: bool = False
    ) -> Arc:
        """Connect a place to a transition or vice versa.

        Inhibitor arcs must run place→transition.
        """
        arc = Arc(source, target, weight=weight, inhibitor=inhibitor)
        if source in self._places and target in self._transitions:
            if inhibitor:
                self._inhibitors[target][source] = arc
                self._place_inhibits[source].append(target)
            else:
                self._inputs[target][source] = arc
                self._place_out[source].append(target)
        elif source in self._transitions and target in self._places:
            if inhibitor:
                raise PetriNetError("inhibitor arcs must run place -> transition")
            self._outputs[source][target] = arc
            self._place_in[target].append(source)
        else:
            raise UnknownNodeError(
                f"arc {source!r}->{target!r} must connect an existing place and transition"
            )
        return arc

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def places(self) -> Tuple[Place, ...]:
        return tuple(self._places.values())

    @property
    def transitions(self) -> Tuple[Transition, ...]:
        return tuple(self._transitions.values())

    def place(self, name: str) -> Place:
        try:
            return self._places[name]
        except KeyError:
            raise UnknownNodeError(f"no place named {name!r}") from None

    def transition(self, name: str) -> Transition:
        try:
            return self._transitions[name]
        except KeyError:
            raise UnknownNodeError(f"no transition named {name!r}") from None

    def inputs(self, transition: str) -> Dict[str, int]:
        """Map of input place name -> arc weight for ``transition``."""
        self.transition(transition)
        return {p: a.weight for p, a in self._inputs[transition].items()}

    def outputs(self, transition: str) -> Dict[str, int]:
        """Map of output place name -> arc weight for ``transition``."""
        self.transition(transition)
        return {p: a.weight for p, a in self._outputs[transition].items()}

    def preset(self, place: str) -> Tuple[str, ...]:
        """Transitions that output into ``place``."""
        self.place(place)
        return tuple(self._place_in[place])

    def postset(self, place: str) -> Tuple[str, ...]:
        """Transitions consuming from ``place`` (via normal arcs)."""
        self.place(place)
        return tuple(self._place_out[place])

    def inhibited_by(self, place: str) -> Tuple[str, ...]:
        """Transitions with an inhibitor arc from ``place``."""
        self.place(place)
        return tuple(self._place_inhibits[place])

    # ------------------------------------------------------------------
    # behaviour
    # ------------------------------------------------------------------

    def set_marking(self, counts: Mapping[str, int]) -> None:
        """Set both the current and the initial marking."""
        for name in counts:
            self.place(name)
        self.marking = Marking(counts)
        self.initial_marking = self.marking

    def reset(self) -> None:
        """Restore the initial marking."""
        self.marking = self.initial_marking

    def is_enabled(self, transition: str, marking: Optional[Marking] = None) -> bool:
        """True if ``transition`` may fire under ``marking`` (default: current)."""
        m = self.marking if marking is None else marking
        self.transition(transition)
        for place, arc in self._inputs[transition].items():
            if m[place] < arc.weight:
                return False
        for place, arc in self._inhibitors[transition].items():
            if m[place] >= arc.weight:
                return False
        # capacity constraints on output places
        for place, arc in self._outputs[transition].items():
            cap = self._places[place].capacity
            if cap is not None:
                consumed = self._inputs[transition].get(place)
                after = m[place] + arc.weight - (consumed.weight if consumed else 0)
                if after > cap:
                    return False
        return True

    def enabled(self, marking: Optional[Marking] = None) -> List[str]:
        """Names of all transitions enabled under ``marking``."""
        return [t for t in self._transitions if self.is_enabled(t, marking)]

    def fire_delta(self, transition: str) -> Dict[str, int]:
        """Token delta produced by firing ``transition`` (no enabling check)."""
        delta: Dict[str, int] = {}
        for place, arc in self._inputs[transition].items():
            delta[place] = delta.get(place, 0) - arc.weight
        for place, arc in self._outputs[transition].items():
            delta[place] = delta.get(place, 0) + arc.weight
        return delta

    def successor(self, marking: Marking, transition: str) -> Marking:
        """Marking reached by firing ``transition`` from ``marking``."""
        if not self.is_enabled(transition, marking):
            raise NotEnabledError(
                f"transition {transition!r} is not enabled in {marking!r}"
            )
        return marking.with_delta(self.fire_delta(transition))

    def fire(self, transition: str) -> Marking:
        """Fire ``transition`` from the current marking, updating it."""
        self.marking = self.successor(self.marking, transition)
        return self.marking

    def run(
        self,
        *,
        max_steps: int = 10_000,
        chooser: Optional[callable] = None,
    ) -> List[str]:
        """Fire enabled transitions until quiescence or ``max_steps``.

        ``chooser`` picks among enabled transitions (default: first by
        insertion order — deterministic). Returns the fired sequence.
        """
        fired: List[str] = []
        for _ in range(max_steps):
            enabled = self.enabled()
            if not enabled:
                break
            choice = enabled[0] if chooser is None else chooser(enabled)
            self.fire(choice)
            fired.append(choice)
        return fired

    # ------------------------------------------------------------------
    # linear-algebraic view (Murata section V)
    # ------------------------------------------------------------------

    def incidence_matrix(self) -> Tuple[List[str], List[str], List[List[int]]]:
        """Return (place_names, transition_names, C) with C[i][j] = net
        token change of place i when transition j fires.

        Inhibitor arcs do not contribute (they carry no tokens).
        """
        place_names = list(self._places)
        transition_names = list(self._transitions)
        index = {p: i for i, p in enumerate(place_names)}
        matrix = [[0] * len(transition_names) for _ in place_names]
        for j, t in enumerate(transition_names):
            for place, arc in self._inputs[t].items():
                matrix[index[place]][j] -= arc.weight
            for place, arc in self._outputs[t].items():
                matrix[index[place]][j] += arc.weight
        return place_names, transition_names, matrix

    # ------------------------------------------------------------------
    # structural checks
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`PetriNetError` on structural problems.

        Checks that every transition has at least one input or output arc
        (isolated transitions are almost always construction bugs) and that
        capacities are not already violated by the current marking.
        """
        for t in self._transitions:
            if not self._inputs[t] and not self._outputs[t] and not self._inhibitors[t]:
                raise PetriNetError(f"transition {t!r} is isolated (no arcs)")
        for p, place in self._places.items():
            if place.capacity is not None and self.marking[p] > place.capacity:
                raise PetriNetError(
                    f"place {p!r} holds {self.marking[p]} tokens, capacity {place.capacity}"
                )

    def copy(self, *, name: Optional[str] = None) -> "PetriNet":
        """Structural deep copy, including current and initial markings."""
        clone = PetriNet(name or self.name)
        for p in self._places.values():
            clone.add_place(p.name, capacity=p.capacity, label=p.label)
        for t in self._transitions.values():
            clone.add_transition(t.name, priority=t.priority, label=t.label)
        for t in self._transitions:
            for arc in itertools.chain(
                self._inputs[t].values(),
                self._outputs[t].values(),
                self._inhibitors[t].values(),
            ):
                clone.add_arc(
                    arc.source, arc.target, weight=arc.weight, inhibitor=arc.inhibitor
                )
        clone.marking = self.marking
        clone.initial_marking = self.initial_marking
        return clone

    def __repr__(self) -> str:
        return (
            f"PetriNet({self.name!r}, places={len(self._places)}, "
            f"transitions={len(self._transitions)})"
        )
