"""Prioritized Petri nets — the comparison baseline (Guan, Yu & Yang [13]).

Reference [13] of the paper handles user interaction in distributed
multimedia by assigning *priorities* to transitions: among simultaneously
enabled transitions, only those of maximal priority may fire, so an
interaction transition with high priority preempts ordinary playback
transitions. The paper's extended model instead uses a separate control
subnet; bench S1 compares the two under interactive workloads.

:class:`PrioritizedPetriNet` refines the enabling rule of
:class:`~repro.core.petri.PetriNet`; a
:class:`~repro.core.timed.TimedPetriNet` over it fires under the
prioritized rule, because the timed execution picks the first entry of
``net.enabled()``.
"""

from __future__ import annotations

from typing import List, Optional

from .petri import Marking, PetriNet


class PrioritizedPetriNet(PetriNet):
    """A Petri net whose enabling rule respects transition priorities.

    A transition is *priority-enabled* when it is ordinarily enabled and no
    other ordinarily-enabled transition has a strictly higher priority.
    ``is_enabled`` keeps the base semantics (structural enabling);
    :meth:`enabled` applies the priority filter, so reachability-style
    analyses can still use the untimed rule explicitly.
    """

    def enabled(self, marking: Optional[Marking] = None) -> List[str]:
        base = [t for t in (tr.name for tr in self.transitions) if self.is_enabled(t, marking)]
        if not base:
            return []
        top = max(self.transition(t).priority for t in base)
        return [t for t in base if self.transition(t).priority == top]

    def priority_enabled(self, transition: str, marking: Optional[Marking] = None) -> bool:
        return transition in self.enabled(marking)
