"""Unit tests for Petri-net analysis (repro.core.analysis)."""

import pytest

from repro.core import analysis
from repro.core.analysis import (
    StateSpaceLimitExceeded,
    is_p_invariant,
    is_safe,
    reachability_graph,
)
from repro.core.petri import Marking, PetriNet, PetriNetError
from tests.helpers import net_from


def cycle_net():
    """p1 -t1-> p2 -t2-> p1: a live, safe, reversible loop."""
    return net_from(
        "cycle", {"p1": 1, "p2": 0}, ["t1", "t2"], ("p1", "t1", "p2", "t2", "p1")
    )


def producer_net():
    """t produces into p forever: unbounded."""
    net = PetriNet("producer")
    net.add_place("run", tokens=1)
    net.add_place("buf")
    net.add_transition("t")
    net.add_arc("run", "t")
    net.add_arc("t", "run")
    net.add_arc("t", "buf")
    return net


def terminating_net():
    """p1 -t-> p2, then nothing: deadlocks in p2."""
    return net_from("term", {"p1": 1, "p2": 0}, ["t"], ("p1", "t", "p2"))


class TestReachability:
    def test_cycle_has_two_markings(self):
        graph = reachability_graph(cycle_net())
        assert len(graph) == 2
        assert graph.transitions_fired() == {"t1", "t2"}

    def test_initial_in_graph(self):
        graph = reachability_graph(cycle_net())
        assert Marking({"p1": 1}) in graph.markings

    def test_state_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(analysis, "MAX_STATES", 10)
        with pytest.raises(StateSpaceLimitExceeded):
            reachability_graph(producer_net())

    def test_is_reachable(self):
        markings = reachability_graph(terminating_net()).markings
        assert Marking({"p2": 1}) in markings
        assert Marking({"p1": 1, "p2": 1}) not in markings

    def test_explicit_initial_marking(self):
        net = cycle_net()
        net.set_marking({"p2": 1})
        graph = reachability_graph(net)
        assert graph.initial == Marking({"p2": 1})


class TestBoundedness:
    def test_cycle_is_safe(self):
        assert is_safe(cycle_net())
        assert reachability_graph(cycle_net()).bound() == 1

    def test_two_bounded(self):
        net = net_from("two", {"p": 2, "q": 0}, ["t"], ("p", "t", "q"))
        assert reachability_graph(net).bound() == 2
        assert not is_safe(net)

    def test_empty_net_bound_zero(self):
        net = PetriNet()
        net.add_place("p")
        assert reachability_graph(net).bound() == 0


class TestLivenessDeadlock:
    def test_terminating_net_deadlocks(self):
        dead = reachability_graph(terminating_net()).dead_markings()
        assert dead == [Marking({"p2": 1})]

    def test_accepting_marking_not_a_deadlock(self):
        # a terminating net may end only in its declared final markings
        dead = reachability_graph(terminating_net()).dead_markings()
        assert set(dead) <= {Marking({"p2": 1})}

    def test_cycle_deadlock_free(self):
        assert reachability_graph(cycle_net()).dead_markings() == []

    def test_dead_transition_makes_not_live(self):
        net = cycle_net()
        net.add_place("never")
        net.add_transition("t_dead")
        net.add_arc("never", "t_dead")
        net.add_arc("t_dead", "p1")
        assert "t_dead" not in reachability_graph(net).transitions_fired()


class TestInvariants:
    def test_cycle_p_invariant_conserves_one_token(self):
        net = cycle_net()
        assert is_p_invariant(net, {"p1": 1, "p2": 1})
        assert not is_p_invariant(net, {"p1": 1})
        assert net.initial_marking["p1"] + net.initial_marking["p2"] == 1

    def test_producer_has_no_p_invariant_on_buf(self):
        net = producer_net()
        # only the run-place self-loop is conserved
        assert is_p_invariant(net, {"run": 1})
        assert not is_p_invariant(net, {"buf": 1})
        assert not is_p_invariant(net, {"run": 1, "buf": 1})

    def test_weighted_invariant(self):
        # t consumes 2 from a, produces 1 into b => invariant a + 2b
        net = PetriNet()
        net.add_place("a", tokens=4)
        net.add_place("b")
        net.add_transition("t")
        net.add_arc("a", "t", weight=2)
        net.add_arc("t", "b")
        assert is_p_invariant(net, {"a": 1, "b": 2})
        assert not is_p_invariant(net, {"a": 1, "b": 1})

    def test_invariant_holds_along_run(self):
        net = cycle_net()
        inv = {"p1": 1, "p2": 1}
        start = sum(w * net.marking[p] for p, w in inv.items())
        net.fire("t1")
        weighted = sum(w * net.marking[p] for p, w in inv.items())
        assert weighted == start

    def test_no_transitions_every_place_invariant(self):
        net = PetriNet()
        net.add_place("x", tokens=1)
        assert is_p_invariant(net, {"x": 1})

    def test_unknown_place_rejected(self):
        with pytest.raises(PetriNetError):
            is_p_invariant(cycle_net(), {"nowhere": 1})
