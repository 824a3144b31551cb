"""Edge-path tests across modules: server API corners, coordinator speed
replication, broadcast unpublish, default links, executor stepping."""

import pytest

from repro.asf import ASFEncoder, EncoderConfig, MediaUnit
from repro.asf.header import StreamProperties
from repro.core.extended import DistributedCoordinator, SiteLink
from repro.core.ocpn import MediaLeaf, compile_spec, sequence
from repro.core.timed import TimedExecution
from repro.lod import Lecture, MediaStore, WebPublishingManager
from repro.media import get_profile
from repro.streaming import MediaPlayer, MediaServer, PlayerState
from repro.web import VirtualNetwork


class TestCoordinatorSpeed:
    def test_speed_command_replicates(self):
        lecture = Lecture.from_slide_durations("S", "P", [30.0, 30.0])
        coord = DistributedCoordinator(
            lecture.to_presentation(), {"s": SiteLink(latency=0.02)},
            beacon_interval=None,
        )
        coord.command("play")
        coord.advance(2)
        coord.command("speed", 2.0)
        coord.advance(4)
        assert coord.master.rate == 2.0
        assert coord.sites["s"].rate == 2.0
        # both advanced ~2 + 4*2 = 10s of media
        assert coord.sites["s"].position == pytest.approx(
            coord.master.position, abs=0.2
        )

    def test_stop_command_replicates(self):
        lecture = Lecture.from_slide_durations("S", "P", [30.0])
        coord = DistributedCoordinator(
            lecture.to_presentation(), {"s": SiteLink(latency=0.02)}
        )
        coord.command("play")
        coord.advance(1)
        coord.command("stop")
        coord.advance(1)
        assert coord.sites["s"].state == "stopped"


class TestServerApiCorners:
    def make_server(self):
        net = VirtualNetwork()
        net.connect("server", "student", bandwidth=2e6)
        server = MediaServer(net, "server", port=8080)
        lecture = Lecture.from_slide_durations(
            "X", "P", [10.0], slide_width=160, slide_height=120
        )
        store = MediaStore()
        store.register_lecture("/v", "/s", lecture)
        manager = WebPublishingManager(server, store)
        manager.publish(video_path="/v", slide_dir="/s", point="x")
        return net, server

    def test_describe_python_api(self):
        net, server = self.make_server()
        header = server.describe("x")
        assert header.file_properties.duration_ms == 10_000

    def test_unpublish_broadcast_detaches_feed(self):
        net, server = self.make_server()
        encoder = ASFEncoder(EncoderConfig(profile=get_profile("isdn-dual")))
        live = encoder.start_live(
            file_id="live",
            streams=[StreamProperties(1, "video", bitrate=100_000)],
        )
        server.publish("livepoint", live.stream)
        assert live.stream.subscriber_count == 1  # server's fan-out feed
        server.unpublish("livepoint")
        assert live.stream.subscriber_count == 0
        # new encoder output schedules nothing on the unsubscribed server
        pending_before = net.simulator.pending()
        live.capture(
            [MediaUnit(1, 0, 0, True, b"x" * 200)]
        )
        assert net.simulator.pending() == pending_before

    def test_control_unknown_action_404(self):
        net, server = self.make_server()
        from repro.web import HTTPClient

        client = HTTPClient(net, "student")
        response = client.post(
            "http://server:8080/control/teleport", body={"session_id": 1}
        )
        assert response.status == 404

    def test_control_malformed_body_409(self):
        net, server = self.make_server()
        from repro.web import HTTPClient

        client = HTTPClient(net, "student")
        response = client.post("http://server:8080/control/play", body={})
        assert response.status == 409


class TestNetworkDefaults:
    def test_links_are_directional(self):
        net = VirtualNetwork()
        assert net.link("a", "b") is not net.link("b", "a")
        assert net.link("a", "b") is net.link("a", "b")


class TestExecutorStepping:
    def test_manual_stepping_with_external_fires(self):
        spec = sequence(MediaLeaf("a", 2.0), MediaLeaf("b", 3.0))
        compiled = compile_spec(spec)
        compiled.timed_net.net.reset()
        execution = TimedExecution(compiled.timed_net)
        fired = []
        while True:
            event = execution.step()
            if event is None:
                break
            fired.append((round(event.time, 3), event.name))
        # the b playout ends at 5s
        assert execution.makespan() == pytest.approx(5.0)
        assert len(fired) == execution.firings

    def test_advance_then_quiescence(self):
        spec = MediaLeaf("solo", 1.0)
        compiled = compile_spec(spec)
        compiled.timed_net.net.reset()
        execution = TimedExecution(compiled.timed_net)
        execution.run()
        assert execution.is_quiescent()
        assert execution.step() is None
