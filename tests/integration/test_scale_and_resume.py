"""Integration: many concurrent students, and the resume workflow."""

import pytest

from repro.lod import (
    Course,
    CourseCatalog,
    Lecture,
    MediaStore,
    StudentProgress,
    WebPublishingManager,
)
from repro.streaming import MediaPlayer, MediaServer, PlayerState
from repro.web import VirtualNetwork


class TestManyStudents:
    N = 12

    def test_soak_concurrent_students(self):
        """N students on heterogeneous links all finish the same lecture."""
        lecture = Lecture.from_slide_durations(
            "Soak", "Prof", [10.0, 10.0], slide_width=160, slide_height=120,
        )
        net = VirtualNetwork()
        hosts = []
        for i in range(self.N):
            host = f"student{i}"
            net.connect(
                "server", host,
                bandwidth=500_000 + 150_000 * i,
                delay=0.01 + 0.005 * i,
                loss_rate=0.01 if i % 3 == 0 else 0.0,
                queue_limit=10_000,
            )
            hosts.append(host)
        server = MediaServer(net, "server", port=8080)
        store = MediaStore()
        store.register_lecture("/v", "/s", lecture)
        record = WebPublishingManager(server, store).publish(
            video_path="/v", slide_dir="/s", point="soak"
        )
        players = []
        for host in hosts:
            player = MediaPlayer(net, host)
            player.connect(record.url)
            player.play()
            players.append(player)
        assert server.sessions.total_created == self.N
        reports = [p.run_until_finished(timeout=600) for p in players]
        for host, report in zip(hosts, reports):
            assert report.duration_watched == pytest.approx(20.0, abs=0.3), host
            slides = [c.command.parameter for c in report.slide_changes()]
            assert slides == ["slide0", "slide1"], host
        # every session closed itself
        assert len(server.sessions) == 0

    def test_server_accounting_across_sessions(self):
        lecture = Lecture.from_slide_durations(
            "Acct", "Prof", [10.0], slide_width=160, slide_height=120,
        )
        net = VirtualNetwork()
        net.connect("server", "a", bandwidth=2e6)
        net.connect("server", "b", bandwidth=2e6)
        server = MediaServer(net, "server", port=8080)
        store = MediaStore()
        store.register_lecture("/v", "/s", lecture)
        record = WebPublishingManager(server, store).publish(
            video_path="/v", slide_dir="/s", point="acct"
        )
        MediaPlayer(net, "a").watch(record.url)
        MediaPlayer(net, "b").watch(record.url)
        assert server.sessions.total_created == 2
        assert server.http.requests_served >= 2 * 3  # describe+open+play each


class TestResumeWorkflow:
    def test_stop_and_resume_covers_whole_lecture(self):
        lecture = Lecture.from_slide_durations(
            "Resume", "Prof", [10.0, 10.0, 10.0],
            slide_width=160, slide_height=120,
        )
        net = VirtualNetwork()
        net.connect("server", "dana", bandwidth=2e6, delay=0.02)
        server = MediaServer(net, "server", port=8080)
        store = MediaStore()
        manager = WebPublishingManager(server, store)
        catalog = CourseCatalog(manager, store)
        course = Course("C1", "T")
        course.add(lecture)
        catalog.publish_course(course)
        progress = StudentProgress("dana", catalog)
        url = catalog.url_of("C1", "Resume")

        # session 1: stop partway
        player = MediaPlayer(net, "dana")
        player.connect(url)
        player.play()
        while player.state is not PlayerState.PLAYING:
            net.simulator.step()
        net.simulator.run_until(net.simulator.now + 14.0)
        player.stop()
        progress.record_session("C1", "Resume", player.report())
        mid = progress.resume_position("C1", "Resume")
        assert 10.0 < mid < 20.0
        assert 0.3 < progress.lecture_completion("C1", "Resume") < 0.7

        # session 2: resume from the stored position
        player = MediaPlayer(net, "dana")
        player.connect(url)
        player.play(start=mid)
        report = player.run_until_finished()
        progress.record_session("C1", "Resume", report, start=mid)
        assert progress.lecture_completion("C1", "Resume") == pytest.approx(1.0)
        assert progress.resume_position("C1", "Resume") == 0.0
        # the resumed session replayed the mid-lecture slide immediately
        fired = [c.command.parameter for c in report.slide_changes()]
        assert fired[0] == lecture.segment_at(mid).name
