"""Presentation timelines derived from timed-net executions.

The bridge between the Petri-net world and the media world: a
:class:`PresentationTimeline` is the flat list of playout intervals per
media object that the orchestrator (:mod:`repro.lod.orchestrator`) turns
into stream packets and script commands, and that the metrics layer
compares against measured playback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Tuple

from .intervals import Interval


@dataclass(frozen=True)
class TimelineEntry:
    """One scheduled playout of one media object."""

    media: str
    interval: Interval

    @property
    def start(self) -> float:
        return self.interval.start

    @property
    def end(self) -> float:
        return self.interval.end


class PresentationTimeline:
    """An ordered set of media playouts on a shared clock.

    Supports point queries ("what's active at t?"), event listing
    (start/stop edges — these become script commands) and drift comparison
    against another timeline.
    """

    def __init__(self, entries: Iterable[TimelineEntry] = ()) -> None:
        self.entries: List[TimelineEntry] = sorted(
            entries, key=lambda e: (e.start, e.media)
        )

    @classmethod
    def from_schedule(cls, schedule: Mapping[str, Interval]) -> "PresentationTimeline":
        return cls(TimelineEntry(m, i) for m, i in schedule.items())

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def duration(self) -> float:
        return max((e.end for e in self.entries), default=0.0)

    def media_names(self) -> List[str]:
        return sorted({e.media for e in self.entries})

    def edges(self) -> List[Tuple[float, str, str]]:
        """Sorted (time, "start"|"stop", media) edge events."""
        events: List[Tuple[float, str, str]] = []
        for e in self.entries:
            events.append((e.start, "start", e.media))
            events.append((e.end, "stop", e.media))
        # stops before starts at the same instant, so MEETS hands over cleanly
        order = {"stop": 0, "start": 1}
        return sorted(events, key=lambda ev: (ev[0], order[ev[1]], ev[2]))

    def drift_against(self, reference: "PresentationTimeline") -> Dict[str, float]:
        """Per-media max |endpoint error| vs ``reference``.

        Media present in only one timeline get ``float('inf')`` — a missing
        playout is the worst possible drift.
        """
        result: Dict[str, float] = {}
        mine = {e.media: e for e in self.entries}
        theirs = {e.media: e for e in reference.entries}
        for media in set(mine) | set(theirs):
            if media not in mine or media not in theirs:
                result[media] = float("inf")
                continue
            a, b = mine[media].interval, theirs[media].interval
            result[media] = max(abs(a.start - b.start), abs(a.end - b.end))
        return result

    def max_drift(self, reference: "PresentationTimeline") -> float:
        drifts = self.drift_against(reference)
        return max(drifts.values(), default=0.0)
