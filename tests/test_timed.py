"""Unit tests for timed-net execution (repro.core.timed)."""

import pytest

from repro.core.petri import PetriNet
from repro.core.timed import TimedEvent, TimedExecution, TimedPetriNet
from tests.helpers import firing_times, net_from


def first_start(execution, place):
    return next(
        e.time for e in execution.events
        if e.kind == "enter" and e.name == place
    )


def chain_net():
    """start -t1-> a(2s) -t2-> b(3s) -t3-> done."""
    net = net_from(
        "chain", {"start": 1, "a": 0, "b": 0, "done": 0}, ["t1", "t2", "t3"],
        ("start", "t1", "a", "t2", "b", "t3", "done"),
    )
    return TimedPetriNet(net, {"a": 2.0, "b": 3.0})


def fork_net():
    """One transition starts a(2s) and b(5s); join waits for both."""
    net = net_from(
        "fork", {"start": 1, "a": 0, "b": 0, "done": 0}, ["t_split", "t_join"],
        ("start", "t_split", "a", "t_join", "done"), ("t_split", "b", "t_join"),
    )
    return TimedPetriNet(net, {"a": 2.0, "b": 5.0})


class TestTimedEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            TimedEvent(0.0, "boom", "x")


class TestTimedPetriNet:
    def test_default_duration_zero(self):
        tn = chain_net()
        assert tn.duration("start") == 0.0

    def test_rejects_negative_duration(self):
        tn = chain_net()
        with pytest.raises(ValueError):
            tn.set_duration("a", -1)

    def test_rejects_unknown_place(self):
        tn = chain_net()
        with pytest.raises(Exception):
            tn.set_duration("nope", 1)

    def test_durations_copy(self):
        tn = chain_net()
        d = tn.durations
        d["a"] = 99
        assert tn.duration("a") == 2.0


class TestExecution:
    def test_sequential_makespan(self):
        ex = chain_net().execute()
        assert ex.makespan() == pytest.approx(5.0)

    def test_sequential_intervals(self):
        ex = chain_net().execute()
        assert ex.playout_intervals("a") == [(0.0, 2.0)]
        assert ex.playout_intervals("b") == [(2.0, 5.0)]

    def test_parallel_join_waits_for_slowest(self):
        ex = fork_net().execute()
        assert firing_times(ex, "t_join") == [pytest.approx(5.0)]

    def test_parallel_intervals_start_together(self):
        ex = fork_net().execute()
        assert first_start(ex, "a") == first_start(ex, "b") == 0.0

    def test_event_order_complete(self):
        ex = chain_net().execute()
        kinds = [(e.kind, e.name) for e in ex.events]
        assert ("fire", "t1") in kinds and ("exit", "b") in kinds
        # every enter has a matching exit
        enters = sum(1 for e in ex.events if e.kind == "enter")
        exits = sum(1 for e in ex.events if e.kind == "exit")
        assert enters == exits

    def test_stop_time_truncates(self):
        ex = chain_net().execute(stop_time=1.0)
        assert ex.playout_intervals("b") == []

    def test_max_firings_cap(self):
        # a live loop would run forever without the cap
        net = net_from(
            "loop", {"p": 1, "q": 0}, ["t1", "t2"], ("p", "t1", "q", "t2", "p")
        )
        ex = TimedPetriNet(net, {"p": 1.0, "q": 1.0}).execute(max_firings=10)
        assert ex.firings == 10

    def test_step_returns_none_when_quiescent(self):
        tn = chain_net()
        ex = TimedExecution(tn)
        while ex.step() is not None:
            pass
        assert ex.step() is None

    def test_weighted_output_admits_multiple_tokens(self):
        net = PetriNet()
        net.add_place("s", tokens=1)
        net.add_place("p")
        net.add_transition("t")
        net.add_arc("s", "t")
        net.add_arc("t", "p", weight=3)
        ex = TimedPetriNet(net, {"p": 1.0}).execute()
        assert len(ex.playout_intervals("p")) == 3

    def test_zero_duration_place_passes_through(self):
        ex = chain_net().execute()
        # 'start' has no duration: enter and exit at the same instant
        assert ex.playout_intervals("start") == [(0.0, 0.0)]

    def test_inhibitor_becomes_enabled_when_blocker_drains(self):
        # 'blocker' is available immediately and inhibits t_go; t_block can
        # only consume it once the 1s 'gate' playout completes — exercises
        # the event-driven re-check of inhibited transitions on drain
        net = PetriNet()
        net.add_place("blocker", tokens=1)
        net.add_place("gate", tokens=1)
        net.add_place("go", tokens=1)
        net.add_place("sink")
        net.add_place("out")
        net.add_transition("t_block")
        net.add_arc("blocker", "t_block")
        net.add_arc("gate", "t_block")
        net.add_arc("t_block", "sink")
        net.add_transition("t_go")
        net.add_arc("go", "t_go")
        net.add_arc("t_go", "out")
        net.add_arc("blocker", "t_go", inhibitor=True)
        ex = TimedPetriNet(net, {"gate": 1.0}).execute()
        assert firing_times(ex, "t_block") == [pytest.approx(1.0)]
        # t_go was inhibited until the blocker token was consumed at t=1
        assert firing_times(ex, "t_go") == [pytest.approx(1.0)]

    def test_initial_multi_token_place(self):
        net = PetriNet()
        net.add_place("p", tokens=2)
        net.add_place("q")
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "q")
        ex = TimedPetriNet(net, {"p": 1.5}).execute()
        assert firing_times(ex, "t") == [pytest.approx(1.5), pytest.approx(1.5)]
