"""The distance-learning classroom: floor control over a shared lecture.

The paper motivates the extended net with "the floor control with multiple
users": several students watch the same presentation, and only the user
holding the floor may steer it (pause for a question, jump back to a
slide). :class:`Classroom` composes the two core mechanisms:

* the **floor-control Petri net** (:class:`repro.core.extended.FloorControl`)
  arbitrates who may interact — mutual exclusion is a net invariant;
* the **distributed coordinator**
  (:class:`repro.core.extended.DistributedCoordinator`) replicates the
  held-floor user's commands to every site and keeps replicas in sync.

Interactions from non-holders raise :class:`FloorDenied` — the formal
counterpart of a greyed-out control in the UI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from ..core.extended import (
    DistributedCoordinator,
    ExtendedPresentation,
    FloorControl,
    SiteLink,
)
from ..metrics.stats import jain_index


class FloorDenied(Exception):
    """An interaction was attempted by a user not holding the floor."""


@dataclass
class ClassroomEvent:
    """Audit-log entry: who did what, when."""

    time: float
    user: str
    action: str
    detail: str = ""


class Classroom:
    """A shared lecture session with floor-arbitrated control."""

    teacher = "teacher"

    def __init__(
        self,
        presentation: ExtendedPresentation,
        students: Mapping[str, SiteLink],
        *,
        beacon_interval: Optional[float] = 1.0,
        tracer=None,
    ) -> None:
        if self.teacher in students:
            raise ValueError("teacher must not also be a student site")
        self.users = [self.teacher, *students]
        self.floor = FloorControl(self.users, tracer=tracer)
        self.coordinator = DistributedCoordinator(
            presentation, students, beacon_interval=beacon_interval
        )
        self.events: List[ClassroomEvent] = []
        # the teacher starts with the floor (they are presenting)
        self.floor.request(self.teacher)
        self._log(self.teacher, "request_floor", "granted")

    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.coordinator.master.wall_time

    @property
    def floor_holder(self) -> Optional[str]:
        return self.floor.holder

    def advance(self, dt: float) -> None:
        self.coordinator.advance(dt)
        self.floor.advance(dt)

    def _log(self, user: str, action: str, detail: str = "") -> None:
        self.events.append(ClassroomEvent(self.now, user, action, detail))

    # -- floor management ---------------------------------------------

    def request_floor(self, user: str) -> bool:
        granted = self.floor.request(user)
        self._log(user, "request_floor", "granted" if granted else "queued")
        return granted

    def release_floor(self, user: str) -> Optional[str]:
        next_holder = self.floor.release(user)
        self._log(user, "release_floor", f"next={next_holder}")
        return next_holder

    def site_disconnected(self, user: str) -> Optional[str]:
        """A user's site link died (crash, partition) — reclaim the floor.

        The departed user fires no ``release_floor`` of their own; without
        this hook a disconnected holder orphans the floor and the whole
        classroom deadlocks. Drops the user from arbitration (releasing
        the floor if held, leaving the queue if waiting), logs the audit
        trail, and returns the next holder if the floor moved.
        """
        held = self.floor.holder == user
        next_holder = self.floor.drop(user)
        self._log(user, "disconnect", "held floor" if held else "")
        if held:
            self._log(
                user,
                "floor_reclaimed",
                f"next={next_holder}" if next_holder else "floor free",
            )
        return next_holder

    # -- arbitrated interactions ----------------------------------------

    def interact(self, user: str, action: str, param: float = 0.0) -> None:
        """Apply ``action`` to the shared presentation if ``user`` holds
        the floor; otherwise raise :class:`FloorDenied`."""
        if self.floor.holder != user:
            self._log(user, "denied", action)
            raise FloorDenied(
                f"{user!r} does not hold the floor "
                f"(holder: {self.floor.holder!r})"
            )
        self.coordinator.command(action, param)
        self._log(user, action, str(param) if param else "")

    # -- reporting ---------------------------------------------------------

    def fairness(self) -> Dict[str, float]:
        """Floor-holding time per user (Jain-style fairness inputs)."""
        return self.floor.holding_times()

    def jain_index(self) -> float:
        """Jain's fairness index over users who requested the floor."""
        return jain_index(self.fairness().values())

    def denial_count(self) -> int:
        return sum(1 for e in self.events if e.action == "denied")

    def max_drift(self) -> float:
        return max(
            (self.coordinator.max_drift(site) for site in self.coordinator.sites),
            default=0.0,
        )
