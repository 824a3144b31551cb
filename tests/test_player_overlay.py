"""Unit tests for player overlay state (current slide, active annotations)."""

import pytest

from repro.lod import (
    Lecture,
    LectureRecorder,
    MediaStore,
    MicrophoneSource,
    WebPublishingManager,
)
from repro.streaming import MediaPlayer, MediaServer, PlayerState
from repro.web import VirtualNetwork


@pytest.fixture
def world():
    recorder = LectureRecorder("Overlay", "Prof", microphone=MicrophoneSource())
    recorder.start()
    recorder.annotate(3.0, "note one", duration=4.0)
    recorder.advance_slide(10.0)
    recorder.annotate(12.0, "note two", duration=4.0)
    lecture = recorder.finish(20.0)
    net = VirtualNetwork()
    net.connect("server", "student", bandwidth=2e6, delay=0.02)
    server = MediaServer(net, "server", port=8080)
    store = MediaStore()
    store.register_lecture("/v", "/s", lecture)
    record = WebPublishingManager(server, store).publish(
        video_path="/v", slide_dir="/s", point="ov"
    )
    return net, record


def play_to(net, record, position):
    player = MediaPlayer(net, "student")
    player.connect(record.url)
    player.play()
    while player.state is not PlayerState.PLAYING or player.position < position:
        if player.state is PlayerState.FINISHED:
            break
        net.simulator.step()
    return player


class TestOverlayState:
    def test_no_slide_before_playback(self, world):
        net, record = world
        player = MediaPlayer(net, "student")
        assert player.current_slide is None
        assert player.active_annotations() == []

    def test_current_slide_tracks_position(self, world):
        net, record = world
        player = play_to(net, record, 5.0)
        assert player.current_slide == "slide0"
        net.simulator.run_until(net.simulator.now + 7)
        assert player.current_slide == "slide1"

    def test_annotation_active_during_lifetime(self, world):
        net, record = world
        player = play_to(net, record, 4.0)
        assert player.active_annotations(lifetime=4.0) == ["note one"]

    def test_annotation_expires(self, world):
        net, record = world
        player = play_to(net, record, 9.0)
        assert player.active_annotations(lifetime=4.0) == []

    def test_second_annotation_on_second_slide(self, world):
        net, record = world
        player = play_to(net, record, 13.0)
        assert player.current_slide == "slide1"
        assert player.active_annotations(lifetime=4.0) == ["note two"]
