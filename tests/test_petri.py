"""Unit tests for the base Petri net model (repro.core.petri)."""

import pytest

from repro.core.petri import (
    Arc,
    DuplicateNodeError,
    Marking,
    NotEnabledError,
    PetriNet,
    PetriNetError,
    Place,
    Transition,
    UnknownNodeError,
)


class TestPlace:
    def test_requires_name(self):
        with pytest.raises(ValueError):
            Place("")

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            Place("p", capacity=-1)

    def test_zero_capacity_allowed(self):
        assert Place("p", capacity=0).capacity == 0


class TestTransition:
    def test_requires_name(self):
        with pytest.raises(ValueError):
            Transition("")

    def test_default_priority_zero(self):
        assert Transition("t").priority == 0


class TestArc:
    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            Arc("a", "b", weight=0)


class TestMarking:
    def test_unknown_place_reads_zero(self):
        assert Marking({"p": 1})["q"] == 0

    def test_zero_entries_normalized_away(self):
        assert Marking({"p": 0, "q": 2}) == Marking({"q": 2})

    def test_hash_equal_markings(self):
        assert hash(Marking({"p": 1, "q": 0})) == hash(Marking({"p": 1}))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Marking({"p": -1})

    def test_with_delta(self):
        m = Marking({"p": 2}).with_delta({"p": -1, "q": 3})
        assert m["p"] == 1 and m["q"] == 3

    def test_with_delta_to_negative_raises(self):
        with pytest.raises(ValueError):
            Marking({"p": 1}).with_delta({"p": -2})

    def test_total(self):
        assert Marking({"a": 2, "b": 3}).total() == 5

    def test_equality_with_plain_dict(self):
        assert Marking({"p": 1}) == {"p": 1, "q": 0}

    def test_len_and_iter(self):
        m = Marking({"a": 1, "b": 2})
        assert len(m) == 2 and set(m) == {"a", "b"}


@pytest.fixture
def simple_net():
    """p1 --t1--> p2 --t2--> p3 with one token in p1."""
    net = PetriNet("simple")
    net.add_place("p1", tokens=1)
    net.add_place("p2")
    net.add_place("p3")
    net.add_transition("t1")
    net.add_transition("t2")
    net.add_arc("p1", "t1")
    net.add_arc("t1", "p2")
    net.add_arc("p2", "t2")
    net.add_arc("t2", "p3")
    return net


class TestConstruction:
    def test_duplicate_place_rejected(self, simple_net):
        with pytest.raises(DuplicateNodeError):
            simple_net.add_place("p1")

    def test_place_transition_name_collision_rejected(self, simple_net):
        with pytest.raises(DuplicateNodeError):
            simple_net.add_transition("p1")

    def test_arc_between_two_places_rejected(self, simple_net):
        with pytest.raises(UnknownNodeError):
            simple_net.add_arc("p1", "p2")

    def test_arc_to_unknown_node_rejected(self, simple_net):
        with pytest.raises(UnknownNodeError):
            simple_net.add_arc("p1", "nope")

    def test_inhibitor_must_be_place_to_transition(self, simple_net):
        with pytest.raises(PetriNetError):
            simple_net.add_arc("t1", "p2", inhibitor=True)

    def test_isolated_transition_fails_validation(self):
        net = PetriNet()
        net.add_place("p")
        net.add_transition("lonely")
        with pytest.raises(PetriNetError):
            net.validate()

    def test_accessors(self, simple_net):
        assert simple_net.inputs("t1") == {"p1": 1}
        assert simple_net.outputs("t1") == {"p2": 1}
        assert simple_net.preset("p2") == ("t1",)
        assert simple_net.postset("p2") == ("t2",)
        assert simple_net.inhibited_by("p1") == ()

    def test_inhibited_by_index(self, simple_net):
        simple_net.add_place("blocker")
        simple_net.add_arc("blocker", "t1", inhibitor=True)
        assert simple_net.inhibited_by("blocker") == ("t1",)
        assert simple_net.postset("blocker") == ()

    def test_unknown_lookup_raises(self, simple_net):
        with pytest.raises(UnknownNodeError):
            simple_net.place("zzz")
        with pytest.raises(UnknownNodeError):
            simple_net.transition("zzz")


class TestFiring:
    def test_enabled_initial(self, simple_net):
        assert simple_net.enabled() == ["t1"]

    def test_fire_moves_token(self, simple_net):
        simple_net.fire("t1")
        assert simple_net.marking == Marking({"p2": 1})
        assert simple_net.enabled() == ["t2"]

    def test_fire_disabled_raises(self, simple_net):
        with pytest.raises(NotEnabledError):
            simple_net.fire("t2")

    def test_reset_restores_initial(self, simple_net):
        simple_net.fire("t1")
        simple_net.reset()
        assert simple_net.marking == Marking({"p1": 1})

    def test_run_to_quiescence(self, simple_net):
        fired = simple_net.run()
        assert fired == ["t1", "t2"]
        assert simple_net.enabled() == []

    def test_run_respects_chooser(self):
        net = PetriNet()
        net.add_place("p", tokens=1)
        net.add_place("a")
        net.add_place("b")
        for t, dst in (("ta", "a"), ("tb", "b")):
            net.add_transition(t)
            net.add_arc("p", t)
            net.add_arc(t, dst)
        fired = net.run(chooser=lambda en: sorted(en)[-1])
        assert fired == ["tb"]

    def test_weighted_arcs(self):
        net = PetriNet()
        net.add_place("p", tokens=3)
        net.add_place("q")
        net.add_transition("t")
        net.add_arc("p", "t", weight=2)
        net.add_arc("t", "q", weight=5)
        net.fire("t")
        assert net.marking == Marking({"p": 1, "q": 5})
        assert not net.is_enabled("t")

    def test_inhibitor_arc_blocks(self):
        net = PetriNet()
        net.add_place("go", tokens=1)
        net.add_place("blocker", tokens=1)
        net.add_place("out")
        net.add_transition("t")
        net.add_arc("go", "t")
        net.add_arc("t", "out")
        net.add_arc("blocker", "t", inhibitor=True)
        assert not net.is_enabled("t")

    def test_inhibitor_arc_threshold(self):
        net = PetriNet()
        net.add_place("go", tokens=1)
        net.add_place("level", tokens=1)
        net.add_place("out")
        net.add_transition("t")
        net.add_arc("go", "t")
        net.add_arc("t", "out")
        net.add_arc("level", "t", inhibitor=True, weight=2)
        assert net.is_enabled("t")  # 1 < threshold 2

    def test_capacity_blocks_output(self):
        net = PetriNet()
        net.add_place("src", tokens=2)
        net.add_place("dst", capacity=1)
        net.add_transition("t")
        net.add_arc("src", "t")
        net.add_arc("t", "dst")
        net.fire("t")
        assert not net.is_enabled("t")  # dst full

    def test_capacity_selfloop_accounts_consumption(self):
        net = PetriNet()
        net.add_place("p", tokens=1, capacity=1)
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "p")
        assert net.is_enabled("t")  # consume 1, produce 1 => stays at cap

    def test_successor_does_not_mutate(self, simple_net):
        before = simple_net.marking
        simple_net.successor(before, "t1")
        assert simple_net.marking == before


class TestIncidenceAndCopy:
    def test_incidence_matrix(self, simple_net):
        places, transitions, C = simple_net.incidence_matrix()
        i = {p: k for k, p in enumerate(places)}
        j = {t: k for k, t in enumerate(transitions)}
        assert C[i["p1"]][j["t1"]] == -1
        assert C[i["p2"]][j["t1"]] == 1
        assert C[i["p2"]][j["t2"]] == -1
        assert C[i["p3"]][j["t2"]] == 1

    def test_selfloop_cancels_in_incidence(self):
        net = PetriNet()
        net.add_place("p", tokens=1)
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "p")
        _, _, C = net.incidence_matrix()
        assert C == [[0]]

    def test_copy_independent(self, simple_net):
        clone = simple_net.copy()
        clone.fire("t1")
        assert simple_net.marking == Marking({"p1": 1})
        assert clone.marking == Marking({"p2": 1})

    def test_copy_preserves_structure(self, simple_net):
        clone = simple_net.copy()
        assert {p.name for p in clone.places} == {"p1", "p2", "p3"}
        assert clone.inputs("t1") == {"p1": 1}

    def test_set_marking_unknown_place(self, simple_net):
        with pytest.raises(UnknownNodeError):
            simple_net.set_marking({"nope": 1})
