"""Unit tests for the orchestrator and web publishing manager (repro.lod)."""

import pytest

from repro.asf.drm import LicenseServer
from repro.asf.script_commands import TYPE_SLIDE, ScriptCommand
from repro.lod import (
    Lecture,
    LectureError,
    MediaStore,
    OrchestrationError,
    Orchestrator,
    PublishFormError,
    WebPublishingManager,
    verify_orchestration,
)
from repro.media import get_profile
from repro.metrics import get_counters
from repro.streaming import MediaPlayer, MediaServer
from repro.web import HTTPClient, VirtualNetwork, form_encode

PROFILE = get_profile("dsl-256k")


def lecture(durations=(10.0, 10.0), importances=None):
    return Lecture.from_slide_durations(
        "Net Theory", "Prof", list(durations), importances=importances,
        slide_width=320, slide_height=240,
    )


class TestOrchestrator:
    def test_orchestrate_produces_verified_asf(self):
        result = Orchestrator(PROFILE).orchestrate(lecture())
        assert result.verification_error == pytest.approx(0.0, abs=1e-3)
        assert result.asf.duration == 20.0
        types = {s.stream_type for s in result.asf.header.streams}
        assert types == {"video", "audio", "image", "command"}

    def test_commands_match_segments(self):
        result = Orchestrator(PROFILE).orchestrate(lecture())
        slides = [c for c in result.commands if c.type == TYPE_SLIDE]
        assert [c.parameter for c in slides] == ["slide0", "slide1"]

    def test_metadata_carried(self):
        result = Orchestrator(PROFILE).orchestrate(lecture())
        assert result.asf.header.metadata["title"] == "Net Theory"
        assert result.asf.header.metadata["segments"] == "2"

    def test_content_tree_json_round_trips(self):
        from repro.contenttree import tree_from_json

        result = Orchestrator(PROFILE).orchestrate(
            lecture(importances=[0, 1])
        )
        tree = tree_from_json(result.content_tree_json)
        assert tree.presentation_time(1) == 10.0

    def test_net_schedule_covers_all_leaves(self):
        orch = Orchestrator(PROFILE)
        schedule = orch.net_schedule(lecture())
        assert schedule["image_slide0"] == (0.0, 10.0)
        assert schedule["image_slide1"] == (10.0, 20.0)
        assert schedule["video_slide1"] == (10.0, 20.0)

    def test_drm_via_license_server(self):
        licenses = LicenseServer()
        result = Orchestrator(PROFILE, license_server=licenses).orchestrate(
            lecture(), file_id="prot"
        )
        assert result.asf.header.file_properties.is_protected

    def test_verify_catches_missing_command(self):
        lec = lecture()
        schedule = Orchestrator(PROFILE).net_schedule(lec)
        with pytest.raises(OrchestrationError):
            verify_orchestration(lec, [], schedule)

    def test_verify_catches_shifted_command(self):
        lec = lecture()
        schedule = Orchestrator(PROFILE).net_schedule(lec)
        bad = [
            ScriptCommand(0, TYPE_SLIDE, "slide0"),
            ScriptCommand(12_000, TYPE_SLIDE, "slide1"),  # should be 10s
        ]
        with pytest.raises(OrchestrationError):
            verify_orchestration(lec, bad, schedule)


@pytest.fixture
def world():
    net = VirtualNetwork()
    net.connect("teacher", "server", bandwidth=10e6, delay=0.01)
    net.connect("server", "student", bandwidth=2e6, delay=0.02)
    server = MediaServer(net, "server", port=8080)
    store = MediaStore()
    lec = lecture(importances=[0, 1])
    store.register_lecture("/v/lec.mpg", "/slides/", lec)
    manager = WebPublishingManager(server, store)
    return net, server, store, manager, lec


class TestMediaStore:
    def test_lookup_registered_lecture(self, world):
        _, _, store, _, lec = world
        assert store.lookup_lecture("/v/lec.mpg", "/slides/") is lec

    def test_missing_paths(self):
        store = MediaStore()
        with pytest.raises(PublishFormError):
            store.lookup_lecture("/nope", "/s/")
        store.register_lecture("/v", "/s/", lecture())
        with pytest.raises(PublishFormError):
            store.lookup_lecture("/v", "/missing")

class TestWebPublishingManager:
    def test_programmatic_publish(self, world):
        net, server, _, manager, _ = world
        record = manager.publish(
            video_path="/v/lec.mpg", slide_dir="/slides/", point="lec1"
        )
        assert record.url == "http://server:8080/lod/lec1"
        assert "lec1" in server.points

    def test_duplicate_point_rejected(self, world):
        _, _, _, manager, _ = world
        manager.publish(video_path="/v/lec.mpg", slide_dir="/slides/", point="x")
        with pytest.raises(PublishFormError):
            manager.publish(video_path="/v/lec.mpg", slide_dir="/slides/", point="x")

    def test_unknown_profile_rejected(self, world):
        _, _, _, manager, _ = world
        with pytest.raises(PublishFormError):
            manager.publish(
                video_path="/v/lec.mpg", slide_dir="/slides/",
                point="y", profile="warp-speed",
            )

    def test_form_publish_over_http(self, world):
        net, _, _, _, _ = world
        client = HTTPClient(net, "teacher")
        response = client.post(
            "http://server:8080/publish",
            body=form_encode(
                {"video_path": "/v/lec.mpg", "slide_dir": "/slides/",
                 "point": "web1", "profile": "isdn-dual"}
            ),
        )
        assert response.ok
        assert response.body["url"].endswith("/lod/web1")
        assert response.body["profile"] == "isdn-dual"
        assert response.body["verification_error"] <= 1e-3

    def test_form_malformed_body_400(self, world):
        net, _, _, _, _ = world
        client = HTTPClient(net, "teacher")
        response = client.post(
            "http://server:8080/publish", body=b"\x00not-a-form"
        )
        assert response.status == 400
        assert "publish form" in response.body

    def test_form_missing_fields_400(self, world):
        net, _, _, _, _ = world
        client = HTTPClient(net, "teacher")
        response = client.post(
            "http://server:8080/publish", body={"video_path": "/v/lec.mpg"}
        )
        assert response.status == 400 and "missing" in response.body

    def test_form_bad_path_400(self, world):
        net, _, _, _, _ = world
        client = HTTPClient(net, "teacher")
        response = client.post(
            "http://server:8080/publish",
            body={"video_path": "/bad", "slide_dir": "/slides/", "point": "z"},
        )
        assert response.status == 400

    def test_point_taken_on_the_server_400_before_encoding(self, world):
        net, server, _, manager, lec = world
        server.publish("taken", Orchestrator(PROFILE).orchestrate(lec).asf)
        encodes = get_counters("encode_farm")
        before = encodes.get("encodes")
        with pytest.raises(PublishFormError):
            manager.publish(video_path="/v/lec.mpg", slide_dir="/slides/", point="taken")
        response = HTTPClient(net, "teacher").post(
            "http://server:8080/publish",
            body={"video_path": "/v/lec.mpg", "slide_dir": "/slides/", "point": "taken"},
        )
        assert response.status == 400 and "already in use" in response.body
        assert encodes.get("encodes") == before
        assert manager.published == {}

    def test_published_lecture_is_watchable(self, world):
        net, _, _, manager, _ = world
        record = manager.publish(
            video_path="/v/lec.mpg", slide_dir="/slides/", point="lec2"
        )
        player = MediaPlayer(net, "student")
        report = player.watch(record.url)
        assert report.duration_watched == pytest.approx(20.0, abs=0.2)
        slides = [c.command.parameter for c in report.slide_changes()]
        assert slides == ["slide0", "slide1"]

    def test_tree_endpoint(self, world):
        net, _, _, manager, _ = world
        manager.publish(video_path="/v/lec.mpg", slide_dir="/slides/", point="t1")
        client = HTTPClient(net, "student")
        response = client.get("http://server:8080/tree/t1")
        assert response.ok
        tree = manager.content_tree_of("t1")
        assert tree.presentation_time(1) == 10.0

    def test_tree_endpoint_404(self, world):
        net, _, _, _, _ = world
        client = HTTPClient(net, "student")
        assert client.get("http://server:8080/tree/none").status == 404

    def test_catalog(self, world):
        net, _, _, manager, _ = world
        manager.publish(video_path="/v/lec.mpg", slide_dir="/slides/", point="c1")
        client = HTTPClient(net, "student")
        response = client.get("http://server:8080/catalog")
        assert [e["point"] for e in response.body] == ["c1"]

    def test_protected_publish_requires_license(self, world):
        net, server, store, _, lec = world
        licenses = LicenseServer()
        manager = WebPublishingManager(
            MediaServer(net, "server2", port=8081), store,
            license_server=licenses,
        )
        record = manager.publish(
            video_path="/v/lec.mpg", slide_dir="/slides/",
            point="secret", protect=True,
        )
        licenses.entitle("secret", "student")
        player = MediaPlayer(net, "student", license_server=licenses)
        report = player.watch(record.url)
        assert report.duration_watched > 19
