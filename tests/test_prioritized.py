"""Unit tests for the prioritized Petri net baseline (repro.core.prioritized)."""

from repro.core.prioritized import PrioritizedPetriNet
from repro.core.timed import TimedPetriNet
from tests.helpers import firing_times


def contention_net():
    """One token in 'p'; low-priority playback vs high-priority interaction."""
    net = PrioritizedPetriNet("contention")
    net.add_place("p", tokens=1)
    net.add_place("played")
    net.add_place("interacted")
    net.add_transition("t_play", priority=0)
    net.add_transition("t_interact", priority=5)
    net.add_arc("p", "t_play")
    net.add_arc("t_play", "played")
    net.add_arc("p", "t_interact")
    net.add_arc("t_interact", "interacted")
    return net


class TestPrioritizedEnabling:
    def test_higher_priority_masks_lower(self):
        net = contention_net()
        assert net.enabled() == ["t_interact"]

    def test_base_enabling_unchanged(self):
        net = contention_net()
        assert net.is_enabled("t_play")  # structurally enabled, just masked

    def test_priority_enabled(self):
        net = contention_net()
        assert net.priority_enabled("t_interact")
        assert not net.priority_enabled("t_play")

    def test_equal_priorities_all_enabled(self):
        net = PrioritizedPetriNet()
        net.add_place("p", tokens=1)
        net.add_place("q1")
        net.add_place("q2")
        for t, dst in (("t1", "q1"), ("t2", "q2")):
            net.add_transition(t, priority=3)
            net.add_arc("p", t)
            net.add_arc(t, dst)
        assert set(net.enabled()) == {"t1", "t2"}

    def test_empty_when_nothing_enabled(self):
        net = contention_net()
        net.fire("t_interact")
        assert net.enabled() == []

    def test_fire_respects_mask(self):
        net = contention_net()
        fired = net.run()
        assert fired == ["t_interact"]

    def test_mask_lifts_when_high_priority_consumed(self):
        # separate tokens: after interaction fires, playback proceeds
        net = PrioritizedPetriNet()
        net.add_place("play_tok", tokens=1)
        net.add_place("int_tok", tokens=1)
        net.add_place("out1")
        net.add_place("out2")
        net.add_transition("t_play", priority=0)
        net.add_transition("t_int", priority=9)
        net.add_arc("play_tok", "t_play")
        net.add_arc("t_play", "out1")
        net.add_arc("int_tok", "t_int")
        net.add_arc("t_int", "out2")
        assert net.enabled() == ["t_int"]
        net.fire("t_int")
        assert net.enabled() == ["t_play"]


class TestPrioritizedScheduler:
    def test_timed_run_fires_high_priority_first(self):
        # the timed execution fires the first priority-enabled transition
        net = contention_net()
        execution = TimedPetriNet(net, {"interacted": 1.0}).execute()
        assert firing_times(execution, "t_interact") == [0.0]
        assert firing_times(execution, "t_play") == []
