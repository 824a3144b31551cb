#!/usr/bin/env python
"""Live broadcast: "view live video of the teacher giving his speech".

The paper's live path: camera + microphone → live encoder (ASF broadcast
stream) → media server publishing point → students' players, with SLIDE
script commands injected in real time as the teacher advances slides.

Shows an on-time viewer and a late joiner (who, as in the real system,
sees only commands sent after joining).

Run: ``python examples/live_broadcast.py``
"""

from repro.lod import LiveCaptureSession, MicrophoneSource
from repro.media import get_profile
from repro.streaming import MediaPlayer, MediaServer
from repro.web import VirtualNetwork


def main() -> None:
    network = VirtualNetwork()
    network.connect("server", "early-bird", bandwidth=2e6, delay=0.02)
    network.connect("server", "latecomer", bandwidth=2e6, delay=0.05)
    server = MediaServer(network, "server", port=8080)
    simulator = network.simulator

    capture = LiveCaptureSession(
        simulator,
        get_profile("isdn-dual"),
        microphone=MicrophoneSource(),
        chunk=0.5,
    )
    server.publish("live-talk", capture.stream,
                   description="Live from the lecture hall")
    url = server.url_of("live-talk")
    print(f"broadcasting at {url}")

    early = MediaPlayer(network, "early-bird", preroll_override=1.5)
    early.connect(url)
    early.play()

    capture.advance_slide("title")
    simulator.run_until(8.0)
    capture.advance_slide("motivation")

    # a student joins 12 seconds into the talk
    simulator.run_until(12.0)
    late = MediaPlayer(network, "latecomer", preroll_override=1.5)
    late.connect(url)
    late.play()

    simulator.run_until(20.0)
    capture.advance_slide("architecture")
    simulator.run_until(30.0)

    capture.finish()
    for player in (early, late):
        player.mark_stream_ended()
    simulator.run_until(33.0)
    early.stop()
    late.stop()

    print(f"\nteacher sent slides at: "
          f"{[(round(t, 1), n) for t, n in capture.slides_sent]}")
    for name, player in (("early-bird", early), ("latecomer", late)):
        report = player.report()
        fired = [(round(c.wall_time, 1), c.command.parameter)
                 for c in report.commands]
        print(f"{name:<10} rendered {report.digest.count:>4} units, "
              f"slides seen: {fired}")
    print("\nthe latecomer missed 'title' and 'motivation' — live commands "
          "are not replayed, exactly like the original system")


if __name__ == "__main__":
    main()
