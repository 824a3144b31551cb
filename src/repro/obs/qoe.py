"""Per-session QoE extraction and cross-session aggregation.

:class:`SessionQoE` condenses one player's
:class:`~repro.streaming.client.PlaybackReport` into the quality-of-
experience facts the paper's campus deployment would have monitored:
startup delay, rebuffering, the downshift timeline, delivery ratio
against the clean (fault-free) byte count, and the NAK/repair totals of
the recovery layer. :class:`QoEAggregator` folds any number of sessions
into :class:`~repro.metrics.histogram.Histogram`-backed summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..metrics.histogram import Histogram


@dataclass
class SessionQoE:
    """QoE facts for one playback session."""

    client: str = ""
    point: str = ""
    #: modeled viewers behind this session (a cohort delegate's size);
    #: aggregation weights every distribution and total by it
    multiplicity: int = 1
    startup_delay: float = 0.0
    rebuffer_count: int = 0
    rebuffer_time: float = 0.0
    duration_watched: float = 0.0
    media_bytes: int = 0
    #: media bytes a fault-free run would have delivered (0 = unknown)
    clean_media_bytes: int = 0
    #: (position_seconds, new_video_stream) per downshift, in order
    downshifts: List[Tuple[float, Optional[int]]] = field(default_factory=list)
    naks_sent: int = 0
    repairs_received: int = 0

    @property
    def delivery_ratio(self) -> float:
        """Delivered fraction of the clean byte count (1.0 if unknown)."""
        if self.clean_media_bytes <= 0:
            return 1.0
        return self.media_bytes / self.clean_media_bytes

    @classmethod
    def from_report(
        cls,
        report: Any,
        *,
        clean_media_bytes: int = 0,
        client: str = "",
        multiplicity: int = 1,
    ) -> "SessionQoE":
        """Build from a :class:`PlaybackReport` (duck-typed)."""
        recovery = report.recovery
        return cls(
            client=client,
            point=report.point,
            multiplicity=multiplicity,
            startup_delay=report.startup_latency,
            rebuffer_count=report.rebuffer_count,
            rebuffer_time=report.rebuffer_time,
            duration_watched=report.duration_watched,
            media_bytes=report.media_bytes,
            clean_media_bytes=clean_media_bytes,
            downshifts=list(report.downshifts),
            naks_sent=recovery.get("naks_sent", 0),
            repairs_received=recovery.get("repairs_received", 0),
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "client": self.client,
            "point": self.point,
            "multiplicity": self.multiplicity,
            "startup_delay": self.startup_delay,
            "rebuffer_count": self.rebuffer_count,
            "rebuffer_time": self.rebuffer_time,
            "duration_watched": self.duration_watched,
            "media_bytes": self.media_bytes,
            "clean_media_bytes": self.clean_media_bytes,
            "delivery_ratio": self.delivery_ratio,
            "downshifts": [list(d) for d in self.downshifts],
            "naks_sent": self.naks_sent,
            "repairs_received": self.repairs_received,
        }


class QoEAggregator:
    """Folds per-session QoE into distribution summaries."""

    def __init__(self) -> None:
        self.sessions: List[SessionQoE] = []
        self._weights: List[int] = []
        self.startup = Histogram("startup_delay")
        self.rebuffer_time = Histogram("rebuffer_time")
        self.delivery = Histogram("delivery_ratio")

    def add(self, qoe: SessionQoE, *, weight: Optional[int] = None) -> None:
        """Fold one session in, weighted by its modeled viewer count.

        ``weight`` defaults to ``qoe.multiplicity`` — a cohort delegate's
        single measurement lands in every distribution once per modeled
        viewer, so percentiles over a mixed real/cohort population are
        exactly those of the equivalent all-real population.
        """
        w = qoe.multiplicity if weight is None else weight
        if w < 1:
            raise ValueError(f"weight must be a positive integer, got {w}")
        self.sessions.append(qoe)
        self._weights.append(w)
        self.startup.record(qoe.startup_delay, w)
        self.rebuffer_time.record(qoe.rebuffer_time, w)
        self.delivery.record(qoe.delivery_ratio, w)

    def __len__(self) -> int:
        return len(self.sessions)

    @property
    def viewers(self) -> int:
        """Modeled viewers folded in (Σ weights); ≥ ``len(self)``."""
        return sum(self._weights)

    def summary(self) -> Dict[str, Any]:
        weighted = zip(self.sessions, self._weights)
        totals = {
            "total_rebuffers": 0,
            "total_downshifts": 0,
            "total_naks_sent": 0,
            "total_repairs_received": 0,
        }
        for q, w in weighted:
            totals["total_rebuffers"] += q.rebuffer_count * w
            totals["total_downshifts"] += len(q.downshifts) * w
            totals["total_naks_sent"] += q.naks_sent * w
            totals["total_repairs_received"] += q.repairs_received * w
        out = {
            "sessions": len(self.sessions),
            "viewers": self.viewers,
            "startup_delay": self.startup.summary(),
            "rebuffer_time": self.rebuffer_time.summary(),
            "delivery_ratio": self.delivery.summary(),
        }
        out.update(totals)
        return out
