"""Lecture playback: full replay and content-tree level replay (Fig. 6).

:class:`LODPlayback` couples the streaming :class:`~repro.streaming.client
.MediaPlayer` with the lecture's formal models:

* :meth:`watch` — plain full replay, returning both the streaming report
  and a :class:`SyncAudit` comparing fired SLIDE commands against the
  extended net's playout schedule;
* :meth:`watch_level` — the Abstractor workflow: pick a content-tree level
  (or a time budget), then replay only that level's segments, seeking over
  the skipped detail — the paper's "flexible teaching material".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..contenttree import Abstractor, ContentTree
from ..streaming.client import MediaPlayer, PlaybackReport, PlayerState
from ..web.http import VirtualNetwork
from .lecture import Lecture, LectureError


@dataclass
class SyncAudit:
    """Fired slide changes vs the Petri-net schedule."""

    per_slide: Dict[str, float]  # slide -> |fired position − net start|
    missing: List[str]  # slides that never fired

    @property
    def max_error(self) -> float:
        return max(self.per_slide.values(), default=0.0)

    @property
    def mean_error(self) -> float:
        if not self.per_slide:
            return 0.0
        return sum(self.per_slide.values()) / len(self.per_slide)

    @property
    def ok(self) -> bool:
        return not self.missing


@dataclass
class LevelReplayReport:
    """Result of a content-tree level replay."""

    level: int
    segments_played: List[str]
    expected_segments: List[str]
    report: PlaybackReport
    nominal_duration: float

    @property
    def coverage(self) -> float:
        if not self.expected_segments:
            return 1.0
        played = set(self.segments_played)
        return sum(1 for s in self.expected_segments if s in played) / len(
            self.expected_segments
        )


class LODPlayback:
    """Client-side lecture playback workflows."""

    def __init__(
        self,
        network: VirtualNetwork,
        host: str,
        lecture: Lecture,
        url: str,
    ) -> None:
        self.network = network
        self.host = host
        self.lecture = lecture
        self.url = url
        self._schedule = {s.name: (s.start, s.end) for s in lecture.segments}

    def _new_player(self) -> MediaPlayer:
        return MediaPlayer(self.network, self.host)

    # ------------------------------------------------------------------

    def watch(self) -> Tuple[PlaybackReport, SyncAudit]:
        """Full replay with a formal synchronization audit."""
        player = self._new_player()
        report = player.watch(self.url)
        return report, self.audit(report)

    def audit(self, report: PlaybackReport) -> SyncAudit:
        """Compare fired SLIDE commands to the lecture's net schedule."""
        fired: Dict[str, float] = {}
        for command in report.slide_changes():
            fired.setdefault(command.command.parameter, command.position)
        per_slide: Dict[str, float] = {}
        missing: List[str] = []
        for segment in self.lecture.segments:
            if segment.name not in fired:
                missing.append(segment.name)
                continue
            per_slide[segment.name] = abs(fired[segment.name] - segment.start)
        return SyncAudit(per_slide=per_slide, missing=missing)

    # ------------------------------------------------------------------

    def watch_level(
        self,
        tree: ContentTree,
        *,
        level: Optional[int] = None,
        budget: Optional[float] = None,
    ) -> LevelReplayReport:
        """Replay only the segments of a content-tree level.

        Give either an explicit ``level`` or a time ``budget`` (the
        Abstractor picks the deepest level that fits). The player seeks
        across skipped segments, so the stream delivers only what the
        level includes (plus seek prerolls).
        """
        if (level is None) == (budget is None):
            raise LectureError("give exactly one of level= or budget=")
        abstractor = Abstractor(tree)
        summary = (
            abstractor.at_level(level) if level is not None
            else abstractor.summarize(budget)
        )
        wanted = [
            name for name in summary.segments if name in self._schedule
        ]  # drop the tree root (the lecture title)
        if not wanted:
            raise LectureError(
                f"level {summary.level} contains no playable segments"
            )

        player = self._new_player()
        player.connect(self.url)
        first = self._schedule[wanted[0]][0]
        player.play(start=first)
        simulator = self.network.simulator

        def play_to(position: float) -> bool:
            """Run until the playhead is at ``position``; False when
            playback ended first."""
            if not simulator.wait(
                lambda: player.state is PlayerState.FINISHED
                or (
                    player.state is PlayerState.PLAYING
                    and player.position >= position
                )
            ):
                raise LectureError("simulation drained before playback finished")
            return player.state is not PlayerState.FINISHED

        # Drive playback: when the current wanted segment finishes, seek to
        # the next wanted segment (or stop).
        played: List[str] = []
        for cursor, name in enumerate(wanted):
            start, end = self._schedule[name]
            if not play_to(start):
                break
            played.append(name)
            if not play_to(end - 1e-9):
                break
            if cursor + 1 == len(wanted):
                player.stop()
                break
            next_start = self._schedule[wanted[cursor + 1]][0]
            if next_start > player.position + 1e-9:
                player.seek(next_start)
        report = player.report()
        return LevelReplayReport(
            level=summary.level,
            segments_played=played,
            expected_segments=wanted,
            report=report,
            nominal_duration=summary.duration,
        )


def replay_all_levels(
    playback: LODPlayback, tree: ContentTree
) -> List[LevelReplayReport]:
    """One replay per content-tree level (the Fig. 6 catalog view)."""
    abstractor = Abstractor(tree)
    return [
        playback.watch_level(tree, level=q)
        for q in range(tree.highest_level + 1)
        if any(
            name in playback._schedule for name in abstractor.at_level(q).segments
        )
    ]
