"""Unit tests for the extended timed Petri net model (repro.core.extended)."""

import pytest

from repro.core.analysis import is_p_invariant, reachability_graph
from repro.core.extended import (
    DistributedCoordinator,
    ExtendedPresentation,
    FloorControl,
    InteractivePlayer,
    Segment,
    SiteLink,
    build_control_net,
    build_floor_net,
)
from repro.core.ocpn import MediaLeaf, SpecError, parallel
from repro.core.petri import NotEnabledError


def lecture(*durations):
    return (
        ExtendedPresentation(
            [
                Segment(f"seg{i}", parallel(MediaLeaf(f"v{i}", d), MediaLeaf(f"img{i}", d)))
                for i, d in enumerate(durations)
            ]
        )
    )


class TestControlNet:
    def test_single_state_token_invariant(self):
        net = build_control_net()
        assert is_p_invariant(net, {"idle": 1, "playing": 1, "paused": 1, "stopped": 1})
        assert net.initial_marking["idle"] == 1

    def test_exactly_one_state_in_every_reachable_marking(self):
        net = build_control_net()
        graph = reachability_graph(net)
        for marking in graph.markings:
            states = sum(marking[p] for p in ("idle", "playing", "paused", "stopped"))
            assert states == 1

    def test_pause_only_while_playing(self):
        net = build_control_net()
        assert not net.is_enabled("t_pause")
        net.fire("t_play")
        assert net.is_enabled("t_pause")

    def test_stop_absorbing(self):
        net = build_control_net()
        net.fire("t_play")
        net.fire("t_stop")
        assert net.enabled() == []


class TestExtendedPresentation:
    def test_requires_segments(self):
        with pytest.raises(SpecError):
            ExtendedPresentation([])

    def test_unique_segment_names(self):
        seg = Segment("s", MediaLeaf("a", 1))
        seg2 = Segment("s", MediaLeaf("b", 1))
        with pytest.raises(SpecError):
            ExtendedPresentation([seg, seg2])

    def test_boundaries(self):
        p = lecture(10, 8, 12)
        assert p.boundaries == [0.0, 10.0, 18.0, 30.0]
        assert p.duration == 30.0

    def test_segment_index_at(self):
        p = lecture(10, 8, 12)
        assert p.segment_index_at(0) == 0
        assert p.segment_index_at(9.999) == 0
        assert p.segment_index_at(10) == 1
        assert p.segment_index_at(29.9) == 2
        assert p.segment_index_at(99) == 2  # clamped

    def test_segment_index_negative_rejected(self):
        with pytest.raises(ValueError):
            lecture(10).segment_index_at(-1)

    def test_verify_compiled_schedule(self):
        lecture(10, 8, 12).verify()


class TestInteractivePlayer:
    def test_initial_state_idle(self):
        player = InteractivePlayer(lecture(10, 8))
        assert player.state == "idle"

    def test_play_advances_position(self):
        player = InteractivePlayer(lecture(10, 8))
        player.play()
        player.advance(4)
        assert player.position == pytest.approx(4)
        assert player.state == "playing"

    def test_pause_freezes_position(self):
        player = InteractivePlayer(lecture(10, 8))
        player.play()
        player.advance(4)
        player.pause()
        player.advance(100)
        assert player.position == pytest.approx(4)
        assert player.state == "paused"

    def test_resume_continues(self):
        player = InteractivePlayer(lecture(10, 8))
        player.play()
        player.advance(4)
        player.pause()
        player.advance(5)
        player.resume()
        player.advance(2)
        assert player.position == pytest.approx(6)

    def test_double_pause_illegal(self):
        player = InteractivePlayer(lecture(10))
        player.play()
        player.pause()
        with pytest.raises(NotEnabledError):
            player.pause()

    def test_resume_without_pause_illegal(self):
        player = InteractivePlayer(lecture(10))
        player.play()
        with pytest.raises(NotEnabledError):
            player.resume()

    def test_interaction_before_play_illegal(self):
        player = InteractivePlayer(lecture(10))
        with pytest.raises(NotEnabledError):
            player.skip_forward()

    def test_speed_doubles_progress(self):
        player = InteractivePlayer(lecture(10, 8))
        player.play()
        player.set_speed(2.0)
        player.advance(4)
        assert player.position == pytest.approx(8)

    def test_invalid_speed(self):
        player = InteractivePlayer(lecture(10))
        player.play()
        with pytest.raises(ValueError):
            player.set_speed(0)

    def test_skip_forward_to_next_boundary(self):
        player = InteractivePlayer(lecture(10, 8, 12))
        player.play()
        player.advance(3)
        index = player.skip_forward()
        assert index == 1 and player.position == pytest.approx(10)

    def test_skip_forward_clamps_at_last_segment(self):
        player = InteractivePlayer(lecture(10, 8))
        player.play()
        player.advance(15)
        assert player.skip_forward() == 1
        assert player.position == pytest.approx(10)

    def test_skip_backward_mid_segment_restarts_it(self):
        player = InteractivePlayer(lecture(10, 8))
        player.play()
        player.advance(13)
        assert player.skip_backward() == 1
        assert player.position == pytest.approx(10)

    def test_skip_backward_at_boundary_goes_to_previous(self):
        player = InteractivePlayer(lecture(10, 8))
        player.play()
        player.advance(13)
        player.skip_backward()  # to 10.0
        player.skip_backward()  # to 0.0
        assert player.position == pytest.approx(0)

    def test_finishes_at_duration(self):
        player = InteractivePlayer(lecture(10, 8))
        player.play()
        player.advance(100)
        assert player.finished
        assert player.position == pytest.approx(18)

    def test_segment_events_emitted_in_order(self):
        player = InteractivePlayer(lecture(5, 5, 5))
        player.play()
        player.advance(14)
        names = [e.detail for e in (e for e in player.events if e.kind == "segment")]
        assert names == ["seg0", "seg1", "seg2"]

    def test_segment_events_from_skip(self):
        player = InteractivePlayer(lecture(5, 5, 5))
        player.play()
        player.skip_forward()
        names = [e.detail for e in (e for e in player.events if e.kind == "segment")]
        assert names == ["seg0", "seg1"]

    def test_negative_advance_rejected(self):
        player = InteractivePlayer(lecture(5))
        with pytest.raises(ValueError):
            player.advance(-1)

    def test_seek(self):
        player = InteractivePlayer(lecture(5, 5))
        player.play()
        player.seek(7)
        assert player.current_segment() == 1

    def test_seek_negative_rejected(self):
        player = InteractivePlayer(lecture(5))
        with pytest.raises(ValueError):
            player.seek(-2)


class TestFloorNet:
    def test_requires_users(self):
        with pytest.raises(ValueError):
            build_floor_net([])

    def test_duplicate_users_rejected(self):
        with pytest.raises(ValueError):
            build_floor_net(["a", "a"])

    def test_mutual_exclusion_invariant(self):
        net = build_floor_net(["a", "b"])
        assert is_p_invariant(net, {"floor": 1, "holding_a": 1, "holding_b": 1})
        # ...and it is not trivially true of any weight vector
        assert not is_p_invariant(net, {"floor": 1, "holding_a": 2, "holding_b": 1})

    def test_no_two_holders_reachable(self):
        net = build_floor_net(["a", "b", "c"])
        graph = reachability_graph(net)
        for marking in graph.markings:
            holders = sum(marking[f"holding_{u}"] for u in "abc")
            assert holders <= 1


class TestFloorControl:
    def test_grant_immediate_when_free(self):
        fc = FloorControl(["a", "b"])
        assert fc.request("a") is True
        assert fc.holder == "a"

    def test_queue_fifo(self):
        fc = FloorControl(["a", "b", "c"])
        fc.request("a")
        fc.request("b")
        fc.request("c")
        fc.release("a")
        assert fc.holder == "b"
        fc.release("b")
        assert fc.holder == "c"

    def test_release_by_nonholder_illegal(self):
        fc = FloorControl(["a", "b"])
        fc.request("a")
        with pytest.raises(NotEnabledError):
            fc.release("b")

    def test_double_request_illegal(self):
        fc = FloorControl(["a"])
        fc.request("a")
        with pytest.raises(NotEnabledError):
            fc.request("a")

    def test_unknown_user(self):
        fc = FloorControl(["a"])
        with pytest.raises(KeyError):
            fc.request("zzz")

    def test_holding_times(self):
        fc = FloorControl(["a", "b"])
        fc.request("a")
        fc.advance(5)
        fc.request("b")
        fc.advance(3)
        fc.release("a")  # b granted at t=8
        fc.advance(2)
        times = fc.holding_times()
        assert times["a"] == pytest.approx(8)
        assert times["b"] == pytest.approx(2)

    def test_request_after_cycle_allowed(self):
        fc = FloorControl(["a"])
        fc.request("a")
        fc.release("a")
        assert fc.request("a") is True

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            FloorControl(["a"]).advance(-1)

    def test_drop_holder_frees_floor_and_grants_next_waiter(self):
        fc = FloorControl(["a", "b", "c"])
        fc.request("a")
        fc.request("b")
        assert fc.drop("a") == "b"
        assert fc.holder == "b"
        # the net invariant held throughout: exactly one token of authority
        marking = fc.net.marking
        assert marking["floor"] + sum(
            marking[f"holding_{u}"] for u in fc.users
        ) == 1

    def test_drop_holder_with_empty_queue_leaves_floor_free(self):
        fc = FloorControl(["a", "b"])
        fc.request("a")
        assert fc.drop("a") is None
        assert fc.holder is None
        assert fc.request("b") is True  # floor is genuinely reusable

    def test_drop_waiter_removes_from_queue(self):
        fc = FloorControl(["a", "b", "c"])
        fc.request("a")
        fc.request("b")
        fc.request("c")
        assert fc.drop("b") is None
        assert fc.holder == "a"
        fc.release("a")
        # b was dropped while waiting: the grant skips straight to c
        assert fc.holder == "c"

    def test_drop_bystander_is_a_noop(self):
        fc = FloorControl(["a", "b"])
        fc.request("a")
        assert fc.drop("b") is None
        assert fc.holder == "a"

    def test_drop_unknown_user_rejected(self):
        with pytest.raises(KeyError):
            FloorControl(["a"]).drop("zzz")

    def test_dropped_holder_keeps_its_holding_time(self):
        fc = FloorControl(["a", "b"])
        fc.request("a")
        fc.advance(5)
        fc.request("b")
        fc.drop("a")  # a's site disconnects after 5 s; b is granted
        fc.advance(3)
        fc.release("b")
        assert fc.holding_times() == {"a": 5.0, "b": 3.0}
        assert [action for _, action, user in fc.log if user == "a"][-1] == "drop"


class TestDistributedCoordinator:
    def test_commands_replicate(self):
        # beacons disabled so the raw command latency is observable
        p = lecture(30)
        coord = DistributedCoordinator(p, {"s": SiteLink(latency=0.1)}, beacon_interval=None)
        coord.command("play")
        coord.advance(2)
        assert coord.sites["s"].state == "playing"
        # replica lags by roughly the link latency
        assert coord.sites["s"].position == pytest.approx(
            coord.master.position - 0.1, abs=0.05
        )

    def test_beacon_erases_command_lag(self):
        p = lecture(30)
        coord = DistributedCoordinator(p, {"s": SiteLink(latency=0.1)}, beacon_interval=0.5)
        coord.command("play")
        coord.advance(2)
        assert coord.sites["s"].position == pytest.approx(
            coord.master.position, abs=0.02
        )

    def test_beacons_bound_drift_under_skew(self):
        p = lecture(60, 60)
        link = SiteLink(latency=0.05, clock_skew=0.02)
        with_beacons = DistributedCoordinator(p, {"s": link}, beacon_interval=1.0)
        with_beacons.command("play")
        with_beacons.advance(60)
        without = DistributedCoordinator(p, {"s": link}, beacon_interval=None)
        without.command("play")
        without.advance(60)
        assert with_beacons.max_drift("s") < 0.2
        assert without.max_drift("s") > 0.5
        assert with_beacons.mean_drift("s") < without.mean_drift("s")

    def test_pause_resume_replicates(self):
        p = lecture(30)
        coord = DistributedCoordinator(p, {"s": SiteLink(latency=0.02)})
        coord.command("play")
        coord.advance(5)
        coord.command("pause")
        coord.advance(1)
        assert coord.sites["s"].state == "paused"
        coord.command("resume")
        coord.advance(1)
        assert coord.sites["s"].state == "playing"

    def test_skip_replicates(self):
        p = lecture(10, 10, 10)
        coord = DistributedCoordinator(p, {"s": SiteLink(latency=0.02)})
        coord.command("play")
        coord.advance(2)
        coord.command("skip_forward")
        coord.advance(0.5)
        assert coord.sites["s"].current_segment() == 1

    def test_unknown_command_rejected(self):
        p = lecture(10)
        coord = DistributedCoordinator(p, {"s": SiteLink()})
        with pytest.raises(ValueError):
            coord.command("teleport")

    def test_multiple_sites_independent_drift(self):
        p = lecture(60)
        coord = DistributedCoordinator(
            p,
            {"near": SiteLink(0.01), "far": SiteLink(0.5)},
            beacon_interval=None,
        )
        coord.command("play")
        coord.advance(10)
        assert coord.max_drift("far") > coord.max_drift("near")
