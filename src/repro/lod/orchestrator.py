"""The orchestrator: lecture → synchronized ASF content (Figures 5–7).

"Our system could make the video and presented slides synchronized with
the temporal script commands as an advanced stream format (ASF) file
automatically." This module is that step, with the Petri-net verification
the paper's model promises:

1. the lecture is compiled to its extended timed Petri net and executed —
   the resulting playout schedule is the *formal* synchronization spec;
2. script commands are generated from the lecture structure;
3. :func:`verify_orchestration` cross-checks that every SLIDE command's
   timestamp equals the net's playout start for that slide (theory ↔
   practice agreement, to the millisecond);
4. the media are encoded under a bandwidth profile and multiplexed into a
   stored ASF file ready to publish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..asf.drm import LicenseServer
from ..asf.encoder import ASFEncoder, EncoderConfig
from ..asf.script_commands import TYPE_SLIDE, ScriptCommand
from ..asf.stream import ASFFile
from ..contenttree.serialize import tree_to_json
from ..media.profiles import BandwidthProfile
from .lecture import Lecture, LectureError


class OrchestrationError(LectureError):
    """The generated artifacts disagree with the formal model."""


@dataclass
class OrchestrationResult:
    """Everything the publisher needs for one lecture."""

    lecture: Lecture
    asf: ASFFile
    commands: List[ScriptCommand]
    content_tree_json: str
    net_schedule: Dict[str, Tuple[float, float]]  # leaf -> (start, end)
    verification_error: float  # max |command - net playout| in seconds

    @property
    def duration(self) -> float:
        return self.asf.duration


class Orchestrator:
    """Builds verified, publishable ASF content from lectures."""

    def __init__(
        self,
        profile: BandwidthProfile,
        *,
        license_server: Optional[LicenseServer] = None,
        tracer=None,
    ) -> None:
        self.profile = profile
        self.license_server = license_server
        self.tracer = tracer  # optional repro.obs.Tracer
        self.config = EncoderConfig(profile=profile)

    # ------------------------------------------------------------------

    def net_schedule(self, lecture: Lecture) -> Dict[str, Tuple[float, float]]:
        """Execute the lecture's extended net; return leaf playout times."""
        presentation = lecture.to_presentation()
        presentation.verify()  # net reproduces the interval-algebra schedule
        execution = presentation.compiled.execute()
        schedule: Dict[str, Tuple[float, float]] = {}
        for leaf, place in presentation.compiled.media_places.items():
            intervals = execution.playout_intervals(place)
            if len(intervals) != 1:
                raise OrchestrationError(
                    f"leaf {leaf!r} played {len(intervals)} times in the net"
                )
            schedule[leaf] = intervals[0]
        return schedule

    def orchestrate(self, lecture: Lecture, *, file_id: Optional[str] = None) -> OrchestrationResult:
        """Lecture → verified ASF file + content tree."""
        span = None
        if self.tracer is not None:
            span = self.tracer.begin(
                "orchestrate",
                lecture=lecture.title,
                segments=len(lecture.segments),
            )
        commands = lecture.script_commands()
        schedule = self.net_schedule(lecture)
        error = verify_orchestration(lecture, commands, schedule)

        self.config.metadata = {
            "title": lecture.title,
            "author": lecture.author,
            "segments": str(len(lecture.segments)),
        }
        encoder = ASFEncoder(self.config, tracer=self.tracer)
        asf = encoder.encode_file(
            file_id=file_id or lecture.title,
            video=lecture.video,
            audio=lecture.audio,
            images=[(s.slide, s.start) for s in lecture.segments],
            commands=commands,
            license_server=self.license_server,
        )
        if self.tracer is not None:
            self.tracer.end(span, verification_error=error)
        return OrchestrationResult(
            lecture=lecture,
            asf=asf,
            commands=commands,
            content_tree_json=tree_to_json(lecture.content_tree()),
            net_schedule=schedule,
            verification_error=error,
        )


#: how far a SLIDE command may sit from its net start: one wire-timestamp
#: quantum, s
ORCHESTRATION_TOL = 1e-3


def verify_orchestration(
    lecture: Lecture,
    commands: List[ScriptCommand],
    net_schedule: Dict[str, Tuple[float, float]],
) -> float:
    """Cross-check script commands against the Petri-net playout schedule.

    For every SLIDE command, the net's playout interval for the slide's
    image leaf must start at the command timestamp (within
    :data:`ORCHESTRATION_TOL`). Returns the max absolute error; raises
    :class:`OrchestrationError` beyond tolerance.
    """
    slide_commands = {
        c.parameter: c.timestamp for c in commands if c.type == TYPE_SLIDE
    }
    missing = {s.name for s in lecture.segments} - set(slide_commands)
    if missing:
        raise OrchestrationError(f"segments without SLIDE commands: {sorted(missing)}")
    worst = 0.0
    for segment in lecture.segments:
        leaf = f"image_{segment.name}"
        if leaf not in net_schedule:
            raise OrchestrationError(f"net schedule lacks leaf {leaf!r}")
        net_start = net_schedule[leaf][0]
        command_time = slide_commands[segment.name]
        error = abs(net_start - command_time)
        worst = max(worst, error)
        if error > ORCHESTRATION_TOL:
            raise OrchestrationError(
                f"slide {segment.name!r}: command at {command_time}s but the "
                f"net plays it at {net_start}s (err {error:g}s)"
            )
    return worst
