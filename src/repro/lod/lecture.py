"""The lecture domain model.

A :class:`Lecture` is the paper's unit of content: a teacher's video (plus
optional audio track), a sequence of slides each shown for an interval of
the talk, and annotations/comments anchored inside segments. It knows how
to express itself in the two formal vocabularies of the system:

* :meth:`Lecture.to_presentation` — the **extended timed Petri net**
  segment structure (:class:`repro.core.extended.ExtendedPresentation`),
  used for verification and interactive playback modeling;
* :meth:`Lecture.content_tree` — the **multiple-level content tree**, used
  by the Abstractor for per-level summaries;
* :meth:`Lecture.script_commands` — the ASF script commands that make the
  recorded stream self-synchronizing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..asf.script_commands import (
    ScriptCommand,
    TYPE_ANNOTATION,
    TYPE_SLIDE,
)
from ..media.objects import (
    AnnotationObject,
    AudioObject,
    ImageObject,
    MediaError,
    VideoObject,
)


class LectureError(Exception):
    """Inconsistent lecture structure."""


@dataclass(frozen=True)
class TimedAnnotation:
    """An annotation shown ``offset`` seconds into its segment."""

    annotation: AnnotationObject
    offset: float

    def __post_init__(self) -> None:
        if self.offset <= 0:
            raise LectureError("annotation offset must be positive (inside segment)")


@dataclass
class LectureSegment:
    """One slide of the talk: shown from ``start`` for ``duration``.

    ``importance`` feeds the content tree: 0 = essential (level 1),
    larger = finer detail at deeper levels.
    """

    name: str
    slide: ImageObject
    start: float
    duration: float
    importance: int = 0
    annotations: List[TimedAnnotation] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise LectureError(f"segment {self.name!r}: duration must be positive")
        if self.start < 0:
            raise LectureError(f"segment {self.name!r}: start must be >= 0")
        if self.importance < 0:
            raise LectureError(f"segment {self.name!r}: importance must be >= 0")
        for timed in self.annotations:
            if timed.offset + timed.annotation.duration >= self.duration:
                raise LectureError(
                    f"annotation {timed.annotation.name!r} does not fit inside "
                    f"segment {self.name!r}"
                )

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class Lecture:
    """A recorded lecture ready for orchestration."""

    title: str
    author: str
    video: VideoObject
    segments: List[LectureSegment]
    audio: Optional[AudioObject] = None

    def __post_init__(self) -> None:
        if not self.segments:
            raise LectureError("a lecture needs at least one segment")
        names = [s.name for s in self.segments]
        if len(set(names)) != len(names):
            raise LectureError("segment names must be unique")
        expected = 0.0
        for segment in self.segments:
            if abs(segment.start - expected) > 1e-6:
                raise LectureError(
                    f"segment {segment.name!r} starts at {segment.start}, "
                    f"expected {expected} (segments must tile the talk)"
                )
            expected = segment.end
        if abs(expected - self.video.duration) > 1e-6:
            raise LectureError(
                f"segments cover {expected}s but the video lasts "
                f"{self.video.duration}s"
            )
        if self.audio is not None and abs(
            self.audio.duration - self.video.duration
        ) > 1e-6:
            raise LectureError("audio and video durations differ")

    # ------------------------------------------------------------------

    @property
    def duration(self) -> float:
        return self.video.duration

    def segment(self, name: str) -> LectureSegment:
        for s in self.segments:
            if s.name == name:
                return s
        raise LectureError(f"no segment named {name!r}")

    def segment_at(self, t: float) -> LectureSegment:
        for s in self.segments:
            if s.start <= t < s.end:
                return s
        return self.segments[-1]

    @classmethod
    def from_slide_durations(
        cls,
        title: str,
        author: str,
        durations: Sequence[float],
        *,
        importances: Optional[Sequence[int]] = None,
        width: int = 320,
        height: int = 240,
        fps: float = 15.0,
        with_audio: bool = True,
        slide_width: int = 1024,
        slide_height: int = 768,
    ) -> "Lecture":
        """Build a synthetic lecture with one slide per duration."""
        if not durations:
            raise LectureError("need at least one slide duration")
        importances = list(importances or [0] * len(durations))
        if len(importances) != len(durations):
            raise LectureError("importances must match durations")
        total = float(sum(durations))
        segments: List[LectureSegment] = []
        start = 0.0
        for i, duration in enumerate(durations):
            segments.append(
                LectureSegment(
                    name=f"slide{i}",
                    slide=ImageObject(
                        f"slide{i}", duration, width=slide_width, height=slide_height
                    ),
                    start=start,
                    duration=duration,
                    importance=importances[i],
                )
            )
            start += duration
        return cls(
            title=title,
            author=author,
            video=VideoObject("talk", total, width=width, height=height, fps=fps),
            audio=AudioObject("voice", total) if with_audio else None,
            segments=segments,
        )

    # ------------------------------------------------------------------
    # formal views
    # ------------------------------------------------------------------

    def script_commands(self) -> List[ScriptCommand]:
        """SLIDE commands at segment starts + ANNOTATION commands inside."""
        commands: List[ScriptCommand] = []
        for segment in self.segments:
            commands.append(
                ScriptCommand(round(segment.start * 1000), TYPE_SLIDE, segment.name)
            )
            for timed in segment.annotations:
                commands.append(
                    ScriptCommand(
                        round((segment.start + timed.offset) * 1000),
                        TYPE_ANNOTATION,
                        timed.annotation.text or timed.annotation.name,
                    )
                )
        return sorted(commands)

    def slide_schedule(self) -> List[Tuple[str, float]]:
        return [(s.name, s.start) for s in self.segments]

    def to_presentation(self) -> ExtendedPresentation:
        """The extended-net view: one Petri-net segment per slide.

        Each segment is video ∥ slide (plus audio if present); annotations
        are DURING the segment at their offsets — a direct transcription of
        the paper's synchronization semantics.
        """
        # the Petri-net layer loads here, when a lecture is compiled to a
        # net (authoring, verification), never for publish or replay
        from ..core.extended import ExtendedPresentation, Segment
        from ..core.intervals import TemporalRelation
        from ..core.ocpn import Composite, MediaLeaf, Spec, parallel

        net_segments: List[Segment] = []
        for segment in self.segments:
            parts: List[Spec] = [
                MediaLeaf(f"video_{segment.name}", segment.duration),
                MediaLeaf(f"image_{segment.name}", segment.duration),
            ]
            if self.audio is not None:
                parts.append(MediaLeaf(f"audio_{segment.name}", segment.duration))
            spec: Spec = parallel(*parts)
            for timed in segment.annotations:
                spec = Composite(
                    TemporalRelation.DURING,
                    MediaLeaf(
                        f"note_{segment.name}_{timed.annotation.name}",
                        timed.annotation.duration,
                    ),
                    spec,
                    delay=timed.offset,
                )
            net_segments.append(Segment(segment.name, spec))
        return ExtendedPresentation(net_segments, name=self.title)

    def content_tree(self) -> ContentTree:
        """Multiple-level content tree keyed by segment importance."""
        from ..contenttree.abstractor import tree_from_segments

        return tree_from_segments(
            [(s.name, s.duration, s.importance) for s in self.segments],
            root_name=self.title,
        )


def demo_lecture() -> Lecture:
    """The four-slide lecture ``python -m repro`` publishes and replays,
    and whose nets ``python -m repro nets check`` proves."""
    return Lecture.from_slide_durations(
        "Demo Lecture", "Prof. Deng", [8.0, 12.0, 6.0, 10.0],
        importances=[0, 1, 0, 1],
    )
