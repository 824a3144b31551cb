"""Course catalog and student progress — the distance-learning course shell.

The paper's system serves individual lectures; a real deployment (the
"distance learning system" of the title) organizes them into courses and
lets students resume where they left off. This module adds that shell on
top of the publisher:

* :class:`Course` — an ordered syllabus of lectures;
* :class:`CourseCatalog` — publishes every lecture of every course on one
  media server and answers catalog/search queries;
* :class:`StudentProgress` — per-student watched intervals, completion
  percentages, and resume positions, fed by
  :class:`~repro.streaming.client.PlaybackReport` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..streaming.client import PlaybackReport
from .lecture import Lecture, LectureError
from .publisher import MediaStore, PublishedLecture, WebPublishingManager


class CatalogError(LectureError):
    """Course/progress misuse."""


@dataclass
class Course:
    """An ordered list of lectures forming one course, built by :meth:`add`."""

    code: str
    title: str
    lectures: List[Lecture] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if not self.code:
            raise CatalogError("course needs a code")

    def add(self, lecture: Lecture) -> None:
        if any(l.title == lecture.title for l in self.lectures):
            raise CatalogError(f"lecture {lecture.title!r} already in course")
        self.lectures.append(lecture)

    @property
    def total_duration(self) -> float:
        return sum(lecture.duration for lecture in self.lectures)

    def lecture(self, title: str) -> Lecture:
        for candidate in self.lectures:
            if candidate.title == title:
                return candidate
        raise CatalogError(f"no lecture {title!r} in course {self.code!r}")


def _point_name(course: Course, index: int) -> str:
    return f"{course.code.lower()}-l{index}"


class CourseCatalog:
    """Publishes courses and answers catalog queries."""

    def __init__(self, manager: WebPublishingManager, store: MediaStore) -> None:
        self.manager = manager
        self.store = store
        self.courses: Dict[str, Course] = {}
        self._records: Dict[Tuple[str, str], PublishedLecture] = {}

    def publish_course(self, course: Course, *, profile: Optional[str] = None) -> List[str]:
        """Publish every lecture; returns the playback URLs in order."""
        if course.code in self.courses:
            raise CatalogError(f"course {course.code!r} already published")
        if not course.lectures:
            raise CatalogError(f"course {course.code!r} has no lectures")
        urls = []
        for index, lecture in enumerate(course.lectures):
            video_path = f"/{course.code}/video{index}.mpg"
            slide_dir = f"/{course.code}/slides{index}/"
            self.store.register_lecture(video_path, slide_dir, lecture)
            record = self.manager.publish(
                video_path=video_path,
                slide_dir=slide_dir,
                point=_point_name(course, index),
                profile=profile,
            )
            self._records[(course.code, lecture.title)] = record
            urls.append(record.url)
        self.courses[course.code] = course
        return urls

    def url_of(self, course_code: str, lecture_title: str) -> str:
        key = (course_code, lecture_title)
        if key not in self._records:
            raise CatalogError(
                f"lecture {lecture_title!r} of {course_code!r} not published"
            )
        return self._records[key].url

    def course(self, code: str) -> Course:
        try:
            return self.courses[code]
        except KeyError:
            raise CatalogError(f"no course {code!r}") from None

    def search(self, text: str) -> List[Tuple[str, str]]:
        """Case-insensitive search over course titles, codes, lecture
        titles and segment names; returns (course code, lecture title)."""
        needle = text.lower()
        hits: List[Tuple[str, str]] = []
        for code, course in self.courses.items():
            for lecture in course.lectures:
                haystacks = [
                    code.lower(),
                    course.title.lower(),
                    lecture.title.lower(),
                    *(segment.name.lower() for segment in lecture.segments),
                ]
                if any(needle in hay for hay in haystacks):
                    hits.append((code, lecture.title))
        return hits


@dataclass
class _LectureProgress:
    watched: List[Tuple[float, float]] = field(default_factory=list)
    resume_at: float = 0.0

    def add_interval(self, start: float, end: float) -> None:
        if end <= start:
            return
        merged = self.watched + [(start, end)]
        merged.sort()
        out: List[Tuple[float, float]] = []
        for lo, hi in merged:
            if out and lo <= out[-1][1] + 1e-9:
                out[-1] = (out[-1][0], max(out[-1][1], hi))
            else:
                out.append((lo, hi))
        self.watched = out

    def seconds_watched(self) -> float:
        return sum(hi - lo for lo, hi in self.watched)


class StudentProgress:
    """Per-student watched intervals and resume positions."""

    def __init__(self, student: str, catalog: CourseCatalog) -> None:
        if not student:
            raise CatalogError("student needs a name")
        self.student = student
        self.catalog = catalog
        self._progress: Dict[Tuple[str, str], _LectureProgress] = {}

    def _entry(self, course_code: str, lecture_title: str) -> _LectureProgress:
        self.catalog.course(course_code).lecture(lecture_title)  # validates
        key = (course_code, lecture_title)
        return self._progress.setdefault(key, _LectureProgress())

    def record_session(
        self,
        course_code: str,
        lecture_title: str,
        report: PlaybackReport,
        *,
        start: float = 0.0,
    ) -> None:
        """Fold one playback session into the student's progress."""
        entry = self._entry(course_code, lecture_title)
        entry.add_interval(start, report.duration_watched)
        entry.resume_at = report.duration_watched

    def resume_position(self, course_code: str, lecture_title: str) -> float:
        """Where the student should resume (0 when finished or unseen)."""
        entry = self._entry(course_code, lecture_title)
        lecture = self.catalog.course(course_code).lecture(lecture_title)
        if entry.resume_at >= lecture.duration - 1e-6:
            return 0.0
        return entry.resume_at

    def lecture_completion(self, course_code: str, lecture_title: str) -> float:
        entry = self._entry(course_code, lecture_title)
        lecture = self.catalog.course(course_code).lecture(lecture_title)
        return min(1.0, entry.seconds_watched() / lecture.duration)

    def course_completion(self, course_code: str) -> float:
        course = self.catalog.course(course_code)
        if not course.lectures:
            return 0.0
        total = course.total_duration
        watched = sum(
            self._entry(course.code, lecture.title).seconds_watched()
            for lecture in course.lectures
        )
        return min(1.0, watched / total)

    def next_unfinished(self, course_code: str) -> Optional[str]:
        """The first lecture (syllabus order) below full completion."""
        course = self.catalog.course(course_code)
        for lecture in course.lectures:
            if self.lecture_completion(course_code, lecture.title) < 1.0 - 1e-9:
                return lecture.title
        return None
