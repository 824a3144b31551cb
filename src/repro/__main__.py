"""``python -m repro`` — a 30-second guided demo of the whole system.

Runs the publish → watch loop on a simulated campus network, prints the
synchronized slide changes, the content-tree summary levels, and the
Petri-net verification result. Meant as the very first thing a new user
runs after installing.

``python -m repro nets check`` proves the system's own Petri nets
(:mod:`repro.core.netcheck`) and exits non-zero if any property fails.
"""

from __future__ import annotations

import sys

from . import __version__
from .contenttree import Abstractor
from .core import netcheck
from .core.scheduler import PresentationTimeline
from .core.visualize import timeline_to_ascii
from .lod import MediaStore, WebPublishingManager, demo_lecture
from .streaming import MediaPlayer, MediaServer
from .web import VirtualNetwork


USAGE = "usage: python -m repro [nets check]"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if args == ["nets", "check"]:
        return netcheck.run()
    if args:
        print(USAGE, file=sys.stderr)
        return 2
    return demo()


def demo() -> int:
    print(f"repro {__version__} — Lecture-on-Demand reproduction demo\n")

    lecture = demo_lecture()
    print(f"lecture: {lecture.title!r}, {lecture.duration:g}s, "
          f"{len(lecture.segments)} slides\n")

    network = VirtualNetwork()
    network.connect("server", "student", bandwidth=2_000_000, delay=0.02)
    server = MediaServer(network, "server", port=8080)
    store = MediaStore()
    store.register_lecture("/videos/demo.mpg", "/slides/demo/", lecture)
    manager = WebPublishingManager(server, store)
    record = manager.publish(
        video_path="/videos/demo.mpg", slide_dir="/slides/demo/", point="demo"
    )
    print(f"published: {record.url}")
    print(f"Petri-net verification error: "
          f"{record.result.verification_error:g}s\n")

    timeline = PresentationTimeline.from_schedule(
        lecture.to_presentation().schedule
    )
    print("extended-net playout schedule:")
    print(timeline_to_ascii(timeline, width=44))

    player = MediaPlayer(network, "student")
    report = player.watch(record.url)
    print(f"\nplayback: startup {report.startup_latency:.2f}s, "
          f"{report.rebuffer_count} rebuffers, "
          f"watched {report.duration_watched:.1f}s")
    print("slide changes:")
    for change in report.slide_changes():
        print(f"  {change.position:6.2f}s -> {change.command.parameter} "
              f"(sync error {change.sync_error * 1000:.0f} ms)")

    tree = manager.content_tree_of("demo")
    print("\ncontent-tree summary levels:")
    for summary in Abstractor(tree).all_levels():
        segments = [s for s in summary.segments if s != lecture.title]
        print(f"  level {summary.level}: {summary.duration:g}s "
              f"-> {segments}")

    print("\nNext steps: examples/, DESIGN.md, EXPERIMENTS.md, and "
          "`pytest benchmarks/ --benchmark-only -s`.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
