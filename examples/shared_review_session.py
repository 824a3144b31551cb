#!/usr/bin/env python
"""Shared review session: floor control over real streams.

A study group reviews a published lecture together: every member has their
own stream of the same publishing point, and the floor token decides who
may steer (pause for discussion, jump back to a slide). Unlike
``distance_learning_classroom.py`` (which drives the abstract Petri-net
model), this example exercises the full stack — packets, jitter buffers,
HTTP control — through :class:`repro.lod.SharedViewing`.

Run: ``python examples/shared_review_session.py``
"""

from repro.lod import (
    FloorDenied,
    Lecture,
    MediaStore,
    SharedViewing,
    WebPublishingManager,
)
from repro.streaming import MediaServer
from repro.web import VirtualNetwork


def main() -> None:
    lecture = Lecture.from_slide_durations(
        "Exam Review: Petri Nets", "Prof. Deng", [15.0, 15.0, 15.0],
    )
    network = VirtualNetwork()
    members = ["maria", "josh", "priya"]
    for member in members:
        network.connect("server", member, bandwidth=2_000_000, delay=0.03)

    server = MediaServer(network, "server", port=8080)
    store = MediaStore()
    store.register_lecture("/videos/review.mpg", "/slides/review/", lecture)
    record = WebPublishingManager(server, store).publish(
        video_path="/videos/review.mpg", slide_dir="/slides/review/",
        point="review",
    )

    session = SharedViewing(network, record.url, members, moderator="maria")
    session.start()
    session.wait_all_playing()
    print(f"session started; {session.floor.holder!r} holds the floor")

    session.advance(10)

    # josh tries to pause without the floor
    try:
        session.pause("josh")
    except FloorDenied as denied:
        print(f"denied: {denied}")

    # he requests properly; maria hands over
    session.request_floor("josh")
    session.release_floor("maria")
    print(f"floor passed to {session.floor.holder!r}")

    # josh pauses everyone for a discussion, then jumps back to slide 1
    print(f"positions before pause: "
          f"{ {u: round(p, 1) for u, p in session.positions().items()} }")
    session.pause("josh")
    session.advance(4)  # four seconds of discussion
    session.resume("josh")
    session.seek("josh", 15.0)
    print("josh rewound the group to slide 1 (15s)")

    reports = session.finish_all()
    print("\nper-member playback:")
    for user, report in reports.items():
        slides = [c.command.parameter for c in report.slide_changes()]
        print(f"  {user:<6} watched {report.duration_watched:5.1f}s, "
              f"slides fired: {slides}")
    print(f"\ngroup position spread stayed within "
          f"{session.spread() * 1000:.0f} ms; "
          f"denied interactions: {session.denial_count()}")


if __name__ == "__main__":
    main()
