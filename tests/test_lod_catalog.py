"""Unit tests for courses, catalog search, and student progress."""

from types import SimpleNamespace

import pytest

from repro.lod import Lecture, MediaStore, WebPublishingManager
from repro.lod.course import (
    CatalogError,
    Course,
    CourseCatalog,
    StudentProgress,
)
from repro.streaming import MediaPlayer, MediaServer
from repro.web import VirtualNetwork


def lecture(title, slides=2, seconds=10.0):
    return Lecture.from_slide_durations(
        title, "Prof", [seconds] * slides, slide_width=160, slide_height=120
    )


@pytest.fixture
def catalog_world():
    net = VirtualNetwork()
    net.connect("server", "student", bandwidth=2e6, delay=0.02)
    server = MediaServer(net, "server", port=8080)
    store = MediaStore()
    manager = WebPublishingManager(server, store)
    catalog = CourseCatalog(manager, store)
    course = Course("CS401", "Distributed Multimedia Systems")
    course.add(lecture("Petri Net Basics"))
    course.add(lecture("OCPN and XOCPN", slides=3))
    course.add(lecture("Streaming Protocols"))
    catalog.publish_course(course)
    return net, catalog, course


class TestCourse:
    def test_needs_code(self):
        with pytest.raises(CatalogError):
            Course("", "x")

    def test_duplicate_lecture_titles_rejected(self):
        course = Course("C1", "t")
        course.add(lecture("A"))
        with pytest.raises(CatalogError):
            course.add(lecture("A"))

    def test_total_duration(self):
        course = Course("C1", "t")
        course.add(lecture("A"))
        course.add(lecture("B", slides=3))
        assert course.total_duration == 50.0

    def test_lecture_lookup(self):
        course = Course("C1", "t")
        course.add(lecture("A"))
        assert course.lecture("A").title == "A"
        with pytest.raises(CatalogError):
            course.lecture("Z")


class TestCourseCatalog:
    def test_publish_course_returns_urls(self, catalog_world):
        net, catalog, course = catalog_world
        assert len(catalog._records) == 3
        url = catalog.url_of("CS401", "Petri Net Basics")
        assert url.endswith("/lod/cs401-l0")

    def test_double_publish_rejected(self, catalog_world):
        net, catalog, course = catalog_world
        with pytest.raises(CatalogError):
            catalog.publish_course(course)

    def test_empty_course_rejected(self, catalog_world):
        net, catalog, _ = catalog_world
        with pytest.raises(CatalogError):
            catalog.publish_course(Course("EMPTY", "nothing"))

    def test_published_lectures_watchable(self, catalog_world):
        net, catalog, course = catalog_world
        url = catalog.url_of("CS401", "OCPN and XOCPN")
        report = MediaPlayer(net, "student").watch(url)
        assert report.duration_watched == pytest.approx(30.0, abs=0.3)

    def test_search_by_course_and_lecture(self, catalog_world):
        net, catalog, _ = catalog_world
        assert ("CS401", "Streaming Protocols") in catalog.search("streaming")
        assert len(catalog.search("cs401")) == 3
        assert catalog.search("zzzz") == []

    def test_search_by_segment_name(self, catalog_world):
        net, catalog, _ = catalog_world
        assert catalog.search("slide0")  # every lecture has one

    def test_unknown_lookups(self, catalog_world):
        net, catalog, _ = catalog_world
        with pytest.raises(CatalogError):
            catalog.url_of("CS401", "Nope")
        with pytest.raises(CatalogError):
            catalog.course("XX")


def watched(seconds):
    """A playback report that watched up to ``seconds``."""
    return SimpleNamespace(duration_watched=seconds)


class TestStudentProgress:
    def test_record_session_and_resume(self, catalog_world):
        net, catalog, _ = catalog_world
        progress = StudentProgress("maria", catalog)
        url = catalog.url_of("CS401", "Petri Net Basics")
        player = MediaPlayer(net, "student")
        report = player.watch(url)
        progress.record_session("CS401", "Petri Net Basics", report)
        assert progress.lecture_completion(
            "CS401", "Petri Net Basics"
        ) == pytest.approx(1.0)
        # finished: resume from the top
        assert progress.resume_position("CS401", "Petri Net Basics") == 0.0

    def test_partial_watch_resumes_midway(self, catalog_world):
        net, catalog, _ = catalog_world
        progress = StudentProgress("maria", catalog)
        progress.record_session("CS401", "Petri Net Basics", watched(12.0), start=0.0)
        assert progress.resume_position(
            "CS401", "Petri Net Basics"
        ) == pytest.approx(12.0)
        assert progress.lecture_completion(
            "CS401", "Petri Net Basics"
        ) == pytest.approx(0.6)

    def test_intervals_merge(self, catalog_world):
        net, catalog, _ = catalog_world
        progress = StudentProgress("m", catalog)
        progress.record_session("CS401", "Petri Net Basics", watched(5.0), start=0.0)
        progress.record_session("CS401", "Petri Net Basics", watched(8.0), start=3.0)
        progress.record_session("CS401", "Petri Net Basics", watched(20.0), start=15.0)
        assert progress.lecture_completion(
            "CS401", "Petri Net Basics"
        ) == pytest.approx(13.0 / 20.0)

    def test_rewatching_does_not_double_count(self, catalog_world):
        net, catalog, _ = catalog_world
        progress = StudentProgress("m", catalog)
        progress.record_session("CS401", "Petri Net Basics", watched(10.0), start=0.0)
        progress.record_session("CS401", "Petri Net Basics", watched(10.0), start=0.0)
        assert progress.lecture_completion(
            "CS401", "Petri Net Basics"
        ) == pytest.approx(0.5)

    def test_course_completion_weighted_by_duration(self, catalog_world):
        net, catalog, course = catalog_world
        progress = StudentProgress("m", catalog)
        progress.record_session("CS401", "Petri Net Basics", watched(20.0), start=0.0)
        # 20 of 70 total seconds
        assert progress.course_completion("CS401") == pytest.approx(20 / 70)

    def test_next_unfinished_in_syllabus_order(self, catalog_world):
        net, catalog, _ = catalog_world
        progress = StudentProgress("m", catalog)
        assert progress.next_unfinished("CS401") == "Petri Net Basics"
        progress.record_session("CS401", "Petri Net Basics", watched(20.0), start=0.0)
        assert progress.next_unfinished("CS401") == "OCPN and XOCPN"
        progress.record_session("CS401", "OCPN and XOCPN", watched(30.0), start=0.0)
        progress.record_session("CS401", "Streaming Protocols", watched(20.0), start=0.0)
        assert progress.next_unfinished("CS401") is None

    def test_unknown_lecture_rejected(self, catalog_world):
        net, catalog, _ = catalog_world
        progress = StudentProgress("m", catalog)
        with pytest.raises(CatalogError):
            progress.record_session("CS401", "Nope", watched(1), start=0)

    def test_student_needs_name(self, catalog_world):
        net, catalog, _ = catalog_world
        with pytest.raises(CatalogError):
            StudentProgress("", catalog)
