"""Integration: floor-controlled shared viewing over real streams."""

import pytest

from repro.lod import (
    FloorDenied,
    Lecture,
    MediaStore,
    SharedViewing,
    WebPublishingManager,
)
from repro.streaming import MediaServer, PlayerState
from repro.web import VirtualNetwork


@pytest.fixture
def session():
    lecture = Lecture.from_slide_durations(
        "Shared", "Prof", [10.0, 10.0, 10.0],
        slide_width=160, slide_height=120,
    )
    net = VirtualNetwork()
    for user in ("anna", "ben", "caleb"):
        net.connect("server", user, bandwidth=2e6, delay=0.02)
    server = MediaServer(net, "server", port=8080)
    store = MediaStore()
    store.register_lecture("/v", "/s", lecture)
    record = WebPublishingManager(server, store).publish(
        video_path="/v", slide_dir="/s", point="shared"
    )
    shared = SharedViewing(
        net, record.url, ["anna", "ben", "caleb"], moderator="anna"
    )
    shared.start()
    shared.wait_all_playing()
    return net, shared


class TestSharedViewing:
    def test_moderator_holds_floor_initially(self, session):
        _, shared = session
        assert shared.floor.holder == "anna"

    def test_nonholder_denied(self, session):
        _, shared = session
        with pytest.raises(FloorDenied):
            shared.pause("ben")
        assert shared.denial_count() == 1

    def test_holder_pauses_everyone(self, session):
        _, shared = session
        shared.advance(2)
        assert shared.pause("anna") == 3
        positions = shared.positions()
        shared.advance(5)
        after = shared.positions()
        for user in positions:
            assert after[user] == pytest.approx(positions[user], abs=0.01)

    def test_resume_after_pause(self, session):
        _, shared = session
        shared.advance(2)
        shared.pause("anna")
        shared.advance(1)
        assert shared.resume("anna") == 3
        shared.advance(2)
        assert all(
            p.state is PlayerState.PLAYING for p in shared.players.values()
        )

    def test_floor_handoff_enables_new_holder(self, session):
        _, shared = session
        shared.request_floor("ben")
        shared.release_floor("anna")
        assert shared.floor.holder == "ben"
        assert shared.pause("ben") == 3
        with pytest.raises(FloorDenied):
            shared.resume("anna")
        shared.resume("ben")

    def test_holder_seek_moves_everyone(self, session):
        _, shared = session
        shared.advance(2)
        shared.seek("anna", 20.0)
        reports = shared.finish_all()
        for user, report in reports.items():
            # everyone replays slide2 after the shared seek
            fired = [c.command.parameter for c in report.slide_changes()]
            assert fired[-1] == "slide2", user

    def test_group_stays_together(self, session):
        _, shared = session
        shared.advance(5)
        assert shared.spread() < 0.5
        reports = shared.finish_all()
        assert all(
            r.duration_watched == pytest.approx(30.0, abs=0.3)
            for r in reports.values()
        )

    def test_requires_users(self):
        net = VirtualNetwork()
        with pytest.raises(ValueError):
            SharedViewing(net, "http://server:8080/lod/x", [])

    def test_moderator_must_be_member(self):
        net = VirtualNetwork()
        with pytest.raises(ValueError):
            SharedViewing(net, "http://x", ["a"], moderator="zzz")
