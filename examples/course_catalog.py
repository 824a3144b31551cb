#!/usr/bin/env python
"""A whole course on the LOD system: catalog, search, student progress.

The course shell a distance-learning deployment needs around the paper's
per-lecture machinery: publish a multi-lecture course, let a student watch
across several sessions, and track completion + resume positions.

Run: ``python examples/course_catalog.py``
"""

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


def build_course() -> Course:
    course = Course("CS520", "Distributed Multimedia Systems")
    course.add(Lecture.from_slide_durations(
        "Petri Net Foundations", "Prof. Deng", [10.0, 10.0, 10.0]))
    course.add(Lecture.from_slide_durations(
        "OCPN and XOCPN", "Prof. Deng", [10.0, 15.0]))
    course.add(Lecture.from_slide_durations(
        "Streaming and Script Commands", "Prof. Deng", [10.0, 10.0]))
    return course


def main() -> None:
    network = VirtualNetwork()
    network.connect("server", "dana", bandwidth=2_000_000, delay=0.02)
    server = MediaServer(network, "server", port=8080)
    store = MediaStore()
    manager = WebPublishingManager(server, store)
    catalog = CourseCatalog(manager, store)

    course = build_course()
    urls = catalog.publish_course(course)
    print(f"published {course.code} ({course.title}): "
          f"{len(urls)} lectures, {course.total_duration:g}s total")

    hits = catalog.search("script")
    print(f"search 'script' -> {hits}")

    progress = StudentProgress("dana", catalog)

    # --- session 1: dana watches lecture 1 fully --------------------------
    first = course.lectures[0].title
    report = MediaPlayer(network, "dana").watch(catalog.url_of("CS520", first))
    progress.record_session("CS520", first, report)
    print(f"\nsession 1: finished {first!r} "
          f"({progress.lecture_completion('CS520', first):.0%})")

    # --- session 2: she starts lecture 2 but stops halfway ---------------
    second = course.lectures[1].title
    player = MediaPlayer(network, "dana")
    player.connect(catalog.url_of("CS520", second))
    player.play()
    network.simulator.wait(lambda: player.state is PlayerState.PLAYING)
    network.simulator.run_until(network.simulator.now + 12.0)
    player.stop()
    progress.record_session("CS520", second, player.report())
    print(f"session 2: stopped {second!r} at "
          f"{progress.resume_position('CS520', second):.1f}s "
          f"({progress.lecture_completion('CS520', second):.0%})")

    # --- session 3: resume where she left off ---------------------------
    resume_at = progress.resume_position("CS520", second)
    player = MediaPlayer(network, "dana")
    player.connect(catalog.url_of("CS520", second))
    player.play(start=resume_at)
    report = player.run_until_finished()
    progress.record_session("CS520", second, report, start=resume_at)
    print(f"session 3: resumed at {resume_at:.1f}s, finished "
          f"({progress.lecture_completion('CS520', second):.0%})")

    print(f"\ncourse completion: {progress.course_completion('CS520'):.0%}")
    print(f"next unfinished lecture: {progress.next_unfinished('CS520')!r}")


if __name__ == "__main__":
    main()
