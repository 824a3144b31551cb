"""QoS channel management — the XOCPN idea made operational.

XOCPN "set[s] up channels according to the required QoS of the data"
(paper §1). :class:`QoSManager` performs admission control over a link's
capacity: a reservation names a bandwidth; admitted reservations
subtract from available capacity until released. The streaming server uses
this to decide whether a new client at a given profile can be admitted or
must be offered a lower profile.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List

from .link import Link


class QoSError(Exception):
    """Admission failures and reservation misuse."""


@dataclass(frozen=True)
class QoSSpec:
    """What a media stream needs from the network."""

    bandwidth: float  # bits/second

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise QoSError("bandwidth must be positive")


@dataclass(frozen=True)
class Reservation:
    """An admitted QoS channel."""

    reservation_id: int
    spec: QoSSpec
    owner: str


class QoSManager:
    """Admission control over one link's capacity.

    ``headroom`` keeps a fraction of the raw bandwidth unreservable
    (protocol overhead, cross traffic) — the same margin
    :func:`repro.media.profiles.select_profile` assumes.
    """

    def __init__(
        self,
        link: Link,
        *,
        headroom: float = 0.9,
        tracer=None,
        label: str = "",
    ) -> None:
        if not 0 < headroom <= 1:
            raise QoSError("headroom must be in (0, 1]")
        self.link = link
        self.capacity = link.bandwidth * headroom
        self._reservations: Dict[int, Reservation] = {}
        self._ids = itertools.count(1)
        self.rejected = 0
        # optional repro.obs.Tracer; label disambiguates reservation ids
        # across managers (the server runs one manager per client link)
        self.tracer = tracer
        self.label = label

    def _rid(self, reservation: Reservation) -> str:
        return f"{self.label or 'qos'}#{reservation.reservation_id}"

    @property
    def reserved(self) -> float:
        return sum(r.spec.bandwidth for r in self._reservations.values())

    @property
    def available(self) -> float:
        return self.capacity - self.reserved

    def can_admit(self, spec: QoSSpec) -> bool:
        return spec.bandwidth <= self.available

    def reserve(self, spec: QoSSpec, *, owner: str = "") -> Reservation:
        """Admit or raise :class:`QoSError` explaining the failure."""
        if spec.bandwidth > self.available:
            self.rejected += 1
            raise QoSError(
                f"insufficient bandwidth: need {spec.bandwidth:g}, "
                f"available {self.available:g}"
            )
        reservation = Reservation(next(self._ids), spec, owner)
        self._reservations[reservation.reservation_id] = reservation
        if self.tracer is not None:
            self.tracer.event(
                "qos.reserve",
                rid=self._rid(reservation),
                owner=owner,
                bandwidth=spec.bandwidth,
            )
        return reservation

    def release(self, reservation: Reservation) -> None:
        if reservation.reservation_id not in self._reservations:
            raise QoSError(f"reservation {reservation.reservation_id} not active")
        del self._reservations[reservation.reservation_id]
        if self.tracer is not None:
            self.tracer.event(
                "qos.release",
                rid=self._rid(reservation),
                owner=reservation.owner,
            )

    def active(self) -> List[Reservation]:
        return list(self._reservations.values())

    def assert_no_leaks(self) -> None:
        """Raise :class:`QoSError` if any reservation is still held.

        Tests call this at teardown: every admission path — clean close,
        crash, abort, failed handshake — must have released its channel.
        """
        if self._reservations:
            owners = ", ".join(
                f"#{r.reservation_id} owner={r.owner or '?'} "
                f"bw={r.spec.bandwidth:g}"
                for r in self._reservations.values()
            )
            raise QoSError(f"leaked reservations: {owners}")

    def best_effort_bandwidth(self, demand: float) -> float:
        """Rate available to an unreserved flow asking for ``demand``."""
        return max(0.0, min(demand, self.available))
