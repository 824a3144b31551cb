"""Integration: live capture → broadcast → synchronized live viewing.

The paper's second workflow: the teacher broadcasts in real time; students
join, receive inline SLIDE commands, and stay synchronized with the live
feed. Also covers model-vs-stream agreement: the extended Petri-net model
of the same lecture predicts the slide times the stream delivers.
"""

import pytest

from repro.lod import (
    Lecture,
    LiveCaptureSession,
    MicrophoneSource,
)
from repro.media import get_profile
from repro.streaming import MediaPlayer, MediaServer, PlayerState
from repro.web import VirtualNetwork


@pytest.fixture
def studio():
    net = VirtualNetwork()
    net.connect("server", "student1", bandwidth=2e6, delay=0.02)
    net.connect("server", "student2", bandwidth=2e6, delay=0.1)
    server = MediaServer(net, "server", port=8080)
    return net, server


class TestLiveBroadcast:
    def test_live_slides_reach_viewers(self, studio):
        net, server = studio
        capture = LiveCaptureSession(
            net.simulator, get_profile("isdn-dual"),
            microphone=MicrophoneSource(), chunk=0.5,
        )
        server.publish("live", capture.stream)

        player = MediaPlayer(net, "student1")
        player.connect(server.url_of("live"))
        player.play()

        capture.advance_slide("intro")
        net.simulator.run_until(5.0)
        capture.advance_slide("agenda")
        net.simulator.run_until(12.0)
        capture.finish()
        player.mark_stream_ended()
        net.simulator.run_until(14.0)
        player.stop()

        fired = [c.command.parameter for c in player.report().commands]
        assert fired == ["intro", "agenda"]

    def test_late_joiner_misses_earlier_commands(self, studio):
        net, server = studio
        capture = LiveCaptureSession(
            net.simulator, get_profile("isdn-dual"), chunk=0.5
        )
        server.publish("live", capture.stream)
        capture.advance_slide("intro")
        net.simulator.run_until(5.0)

        late = MediaPlayer(net, "student2")
        late.connect(server.url_of("live"))
        late.play()
        net.simulator.run_until(6.0)
        capture.advance_slide("agenda")
        net.simulator.run_until(12.0)
        capture.finish()
        late.mark_stream_ended()
        net.simulator.run_until(14.0)
        late.stop()

        fired = [c.command.parameter for c in late.report().commands]
        assert fired == ["agenda"]  # live commands are not replayed

    def test_viewers_receive_paced_media(self, studio):
        net, server = studio
        capture = LiveCaptureSession(
            net.simulator, get_profile("isdn-dual"), chunk=0.5
        )
        server.publish("live", capture.stream)
        player = MediaPlayer(net, "student1", preroll_override=1.0)
        player.connect(server.url_of("live"))
        player.play()
        net.simulator.run_until(10.0)
        capture.finish()
        player.mark_stream_ended()
        net.simulator.run_until(12.0)
        assert player.report().digest.count > 0
        player.stop()


class TestModelStreamAgreement:
    def test_net_model_predicts_stream_slide_times(self):
        """The extended net's schedule == the stream's fired slide times."""
        from repro.lod import MediaStore, WebPublishingManager

        lecture = Lecture.from_slide_durations(
            "Agreement", "Prof", [8.0, 12.0, 6.0],
            slide_width=320, slide_height=240,
        )
        presentation = lecture.to_presentation()
        predicted = {
            segment.name: presentation.segment_start(i)
            for i, segment in enumerate(presentation.segments)
        }

        net = VirtualNetwork()
        net.connect("server", "student", bandwidth=2e6, delay=0.02)
        server = MediaServer(net, "server", port=8080)
        store = MediaStore()
        store.register_lecture("/v", "/s", lecture)
        record = WebPublishingManager(server, store).publish(
            video_path="/v", slide_dir="/s", point="agree"
        )
        report = MediaPlayer(net, "student").watch(record.url)
        measured = {
            c.command.parameter: c.position for c in report.slide_changes()
        }
        assert set(measured) == set(predicted)
        for name, expected in predicted.items():
            assert measured[name] == pytest.approx(expected, abs=0.1), name
