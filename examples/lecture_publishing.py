#!/usr/bin/env python
"""Full publishing workflow: record, annotate, publish over HTTP, inspect.

The scenario the paper's introduction motivates: a well-known teacher gives
a lecture many students cannot attend. We:

1. **record** the talk with simulated camera + microphone, marking slide
   advances and on-slide annotations as they happen;
2. **publish** through the actual HTTP form endpoint (the Fig. 5 web
   publishing manager), choosing a bandwidth profile;
3. **inspect** what was produced: the ASF stream table, the script-command
   table, the Petri-net schedule, and the content tree;
4. **replay** on two student links (LAN and modem-era DSL) and compare the
   experience, including a seek (the student jumps to the last slide).

Run: ``python examples/lecture_publishing.py``
"""

from repro.core.visualize import timeline_to_ascii
from repro.core.scheduler import PresentationTimeline
from repro.core.intervals import Interval
from repro.lod import (
    LectureRecorder,
    LODPlayback,
    MediaStore,
    MicrophoneSource,
    WebPublishingManager,
)
from repro.streaming import MediaPlayer, MediaServer, PlayerState
from repro.web import HTTPClient, VirtualNetwork, form_encode


def record_the_talk():
    recorder = LectureRecorder(
        "Synchronization Models for Multimedia",
        "Prof. Deng",
        microphone=MicrophoneSource(),
    )
    recorder.start()  # slide0 appears
    recorder.annotate(6.0, "OCPN: places are playouts", duration=4.0)
    recorder.advance_slide(15.0, name="ocpn", importance=1)
    recorder.advance_slide(30.0, name="xocpn", importance=1)
    recorder.annotate(36.0, "channels model QoS", duration=3.0)
    recorder.advance_slide(45.0, name="extended-net")
    return recorder.finish(60.0)


def main() -> None:
    lecture = record_the_talk()
    print(f"recorded {lecture.title!r}: {lecture.duration:.0f}s, "
          f"{len(lecture.segments)} slides")

    network = VirtualNetwork()
    network.connect("teacher", "server", bandwidth=10e6, delay=0.005)
    network.connect("server", "lan-student", bandwidth=5e6, delay=0.005)
    network.connect("server", "dsl-student", bandwidth=400_000, delay=0.05)

    server = MediaServer(network, "server", port=8080)
    store = MediaStore()
    store.register_lecture("/videos/sync.mpg", "/slides/sync/", lecture)
    WebPublishingManager(server, store)

    # -- publish over the wire, exactly like the Fig. 5 browser form -----
    teacher = HTTPClient(network, "teacher")
    response = teacher.post(
        "http://server:8080/publish",
        body=form_encode({
            "video_path": "/videos/sync.mpg",
            "slide_dir": "/slides/sync/",
            "point": "sync-models",
            "profile": "dsl-256k",
        }),
    )
    assert response.ok, response.body
    url = response.body["url"]
    print(f"\npublished -> {url} "
          f"(verification error {response.body['verification_error']:g}s)")

    # -- inspect the produced ASF -----------------------------------------
    asf = server.points["sync-models"].content
    print(f"\nASF: {asf.packet_count} packets x "
          f"{asf.header.file_properties.packet_size}B, "
          f"{asf.data_size() / 1e6:.2f} MB")
    print("streams:")
    for stream in asf.header.streams:
        print(f"  #{stream.stream_number:<3} {stream.stream_type:<8} "
              f"codec={stream.codec:<10} {stream.bitrate / 1000:7.1f} kbps")
    print("script commands:")
    for command in asf.header.script_commands:
        print(f"  {command.timestamp:6.1f}s {command.type:<11} {command.parameter}")

    # -- the lecture as its Petri-net timeline ---------------------------
    presentation = lecture.to_presentation()
    timeline = PresentationTimeline.from_schedule(presentation.schedule)
    print("\nextended-net playout schedule:")
    print(timeline_to_ascii(timeline, width=48))

    # -- two students, different links ------------------------------------
    for host in ("lan-student", "dsl-student"):
        playback = LODPlayback(network, host, lecture, url)
        report, audit = playback.watch()
        print(f"\n[{host}] startup {report.startup_latency:.2f}s, "
              f"rebuffers {report.rebuffer_count} "
              f"({report.rebuffer_time:.2f}s), "
              f"slide sync error max {audit.max_error * 1000:.0f} ms")

    # -- an impatient student seeks to the last slide ---------------------
    player = MediaPlayer(network, "lan-student")
    player.connect(url)
    player.play()
    network.simulator.wait(lambda: player.state is PlayerState.PLAYING)
    network.simulator.run_until(network.simulator.now + 2.0)
    player.seek(45.0)  # jump to "extended-net"
    report = player.run_until_finished()
    replayed = [c for c in report.slide_changes()]
    print("\nafter seeking to 45s the player re-fired:",
          [c.command.parameter for c in replayed][-1],
          "(stateful catch-up keeps the right slide on screen)")


if __name__ == "__main__":
    main()
