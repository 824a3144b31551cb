"""Explicit-state analysis of Petri nets.

The classical decision procedures from Murata's survey that the paper
leans on when it claims Petri nets give the model "both practice and
theory", in the one shape the system runs (``python -m repro nets check``,
:mod:`repro.core.netcheck`):

* :func:`reachability_graph` — exhaustive exploration with a state cap;
  its dead markings, fired transitions and token bound are read off the
  one graph.
* :func:`bound`, :func:`is_safe` — token-count limits.
* :func:`is_p_invariant` — ``yᵀC = 0`` for a declared weight vector.

All functions take the net's *initial marking* as the starting point unless
an explicit marking is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .petri import Marking, PetriNet, PetriNetError


class StateSpaceLimitExceeded(PetriNetError):
    """Raised when reachability exploration exceeds the state cap."""


@dataclass
class ReachabilityGraph:
    """Explicit reachability graph.

    Attributes
    ----------
    initial:
        The starting marking.
    markings:
        All reachable markings (including ``initial``).
    edges:
        ``(source_marking, transition_name, target_marking)`` triples.
    """

    initial: Marking
    markings: Set[Marking] = field(default_factory=set)
    edges: List[Tuple[Marking, str, Marking]] = field(default_factory=list)

    def successors(self, marking: Marking) -> List[Tuple[str, Marking]]:
        return [(t, dst) for src, t, dst in self.edges if src == marking]

    def transitions_fired(self) -> Set[str]:
        """Every transition that fires somewhere in the graph."""
        return {t for _, t, _ in self.edges}

    def dead_markings(self) -> List[Marking]:
        """Markings with no outgoing edge."""
        sources = {src for src, _, _ in self.edges}
        return [m for m in self.markings if m not in sources]

    def bound(self) -> int:
        """The most tokens any place holds in any reachable marking."""
        return max((n for m in self.markings for n in m.values()), default=0)

    def __len__(self) -> int:
        return len(self.markings)


def reachability_graph(
    net: PetriNet,
    *,
    initial: Optional[Marking] = None,
    max_states: int = 100_000,
) -> ReachabilityGraph:
    """Exhaustive construction of the reachability graph.

    Raises :class:`StateSpaceLimitExceeded` if more than ``max_states``
    distinct markings are found (the net may be unbounded, or its
    interleavings too many to enumerate).
    """
    start = net.initial_marking if initial is None else initial
    graph = ReachabilityGraph(initial=start)
    graph.markings.add(start)
    frontier = [start]
    while frontier:
        marking = frontier.pop()
        for t in net.enabled(marking):
            nxt = marking.with_delta(net.fire_delta(t))
            graph.edges.append((marking, t, nxt))
            if nxt not in graph.markings:
                graph.markings.add(nxt)
                if len(graph.markings) > max_states:
                    raise StateSpaceLimitExceeded(
                        f"more than {max_states} reachable markings"
                    )
                frontier.append(nxt)
    return graph


def bound(net: PetriNet, *, max_states: int = 100_000) -> int:
    """The k such that the net is k-bounded (max tokens in any place)."""
    return reachability_graph(net, max_states=max_states).bound()


def is_safe(net: PetriNet, *, max_states: int = 100_000) -> bool:
    """True if every place holds at most one token in every reachable marking.

    OCPNs are safe by construction; this is a key sanity check for the
    compiled multimedia nets.
    """
    return bound(net, max_states=max_states) <= 1


def is_p_invariant(net: PetriNet, weights: Dict[str, int]) -> bool:
    """Check yᵀC = 0 for an explicit weight vector ``weights``.

    A P-invariant is a weighted set of places whose total token count no
    firing changes — e.g. mutual exclusion in the floor-control net is
    ``floor + Σ holding_u = 1``. The invariants a net must keep are
    declared (:mod:`repro.core.netcheck`) and verified with this predicate.
    """
    place_names, transition_names, C = net.incidence_matrix()
    index = {p: i for i, p in enumerate(place_names)}
    for p in weights:
        if p not in index:
            raise PetriNetError(f"unknown place {p!r}")
    for j in range(len(transition_names)):
        if sum(w * C[index[p]][j] for p, w in weights.items()) != 0:
            return False
    return True
