"""Property-based tests on the Petri-net core.

Invariants checked on randomly generated nets and firing sequences:

* firing preserves a P-invariant's weighted token count, and
  :func:`is_p_invariant` accepts a weight vector exactly when no
  transition changes its weighted count;
* ``Marking`` is a value type (hash/eq agree, delta round-trips);
* every marking in the reachability graph is reachable by the recorded
  edges, and enabled transitions from any graph marking stay inside the
  graph (closure).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analysis import is_p_invariant, reachability_graph
from repro.core.petri import Marking, PetriNet


# ----------------------------------------------------------------------
# marking as a value type
# ----------------------------------------------------------------------

counts = st.dictionaries(
    st.sampled_from([f"p{i}" for i in range(6)]),
    st.integers(min_value=0, max_value=5),
    max_size=6,
)


@given(counts)
def test_marking_hash_eq_consistent(c):
    a, b = Marking(c), Marking(dict(c))
    assert a == b and hash(a) == hash(b)


@given(counts)
def test_marking_zero_entries_ignored(c):
    padded = dict(c)
    padded["zzz"] = 0
    assert Marking(c) == Marking(padded)


@given(counts, counts)
def test_marking_delta_roundtrip(base, delta):
    m = Marking(base)
    up = m.with_delta(delta)
    down = up.with_delta({k: -v for k, v in delta.items()})
    assert down == m


@given(counts, counts)
def test_covers_iff_componentwise(a, b):
    ma, mb = Marking(a), Marking(b)
    expected = all(ma[p] >= mb[p] for p in set(a) | set(b))
    assert ma.covers(mb) == expected


# ----------------------------------------------------------------------
# random nets
# ----------------------------------------------------------------------


def random_net(seed: int, n_places: int = 5, n_transitions: int = 4) -> PetriNet:
    rng = random.Random(seed)
    net = PetriNet(f"rand{seed}")
    for i in range(n_places):
        net.add_place(f"p{i}", tokens=rng.randint(0, 2))
    for j in range(n_transitions):
        net.add_transition(f"t{j}")
        inputs = rng.sample(range(n_places), rng.randint(1, 2))
        outputs = rng.sample(range(n_places), rng.randint(1, 2))
        for i in inputs:
            net.add_arc(f"p{i}", f"t{j}", weight=rng.randint(1, 2))
        for i in outputs:
            net.add_arc(f"t{j}", f"p{i}", weight=rng.randint(1, 2))
    return net


def conserving_net(seed: int, n_places: int = 5, n_transitions: int = 4):
    """A random net and a positive weighting every transition conserves:
    each transition moves ``y_o`` tokens out of place ``i`` for every
    ``y_i`` it puts into place ``o``."""
    rng = random.Random(seed)
    weights = {f"p{i}": rng.randint(1, 3) for i in range(n_places)}
    net = PetriNet(f"cons{seed}")
    for place in weights:
        net.add_place(place, tokens=rng.randint(0, 3))
    for j in range(n_transitions):
        net.add_transition(f"t{j}")
        inputs, outputs = {}, {}
        for _ in range(rng.randint(1, 2)):
            src, dst = rng.sample(sorted(weights), 2)
            inputs[src] = inputs.get(src, 0) + weights[dst]
            outputs[dst] = outputs.get(dst, 0) + weights[src]
        for place, weight in inputs.items():
            net.add_arc(place, f"t{j}", weight=weight)
        for place, weight in outputs.items():
            net.add_arc(f"t{j}", place, weight=weight)
    return net, weights


def weighted(net, weights):
    return sum(w * net.marking[p] for p, w in weights.items())


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=10_000))
def test_firing_preserves_p_invariants(seed):
    net, invariant = conserving_net(seed)
    assert is_p_invariant(net, invariant)
    before = weighted(net, invariant)
    rng = random.Random(seed + 1)
    for _ in range(30):
        enabled = net.enabled()
        if not enabled:
            break
        net.fire(rng.choice(enabled))
        assert weighted(net, invariant) == before


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=10_000),
       st.lists(st.integers(min_value=-2, max_value=2), min_size=5, max_size=5))
def test_p_invariant_checker_matches_every_firing(seed, ws):
    # y is a P-invariant iff no transition's firing changes y·M
    net = random_net(seed)
    weights = {f"p{i}": w for i, w in enumerate(ws)}
    conserved = all(
        sum(weights[p] * d for p, d in net.fire_delta(t.name).items()) == 0
        for t in net.transitions
    )
    assert is_p_invariant(net, weights) == conserved


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=10_000))
def test_reachability_graph_closed_under_firing(seed):
    net = random_net(seed, n_places=4, n_transitions=3)
    try:
        graph = reachability_graph(net, max_states=2_000)
    except Exception:
        return  # unbounded net: over the state cap, not this test
    for marking in graph.markings:
        for t in net.enabled(marking):
            nxt = marking.with_delta(net.fire_delta(t))
            assert nxt in graph.markings


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=10_000))
def test_graph_edges_are_valid_firings(seed):
    net = random_net(seed, n_places=4, n_transitions=3)
    try:
        graph = reachability_graph(net, max_states=2_000)
    except Exception:
        return
    for src, t, dst in graph.edges:
        assert net.is_enabled(t, src)
        assert src.with_delta(net.fire_delta(t)) == dst
