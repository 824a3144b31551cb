"""Property-based tests on the multiple-level content tree.

Random operation sequences (attach / insert / detach / delete) must keep
the structural invariants, the cumulative level-duration law, and the
serialization round trip.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.contenttree import (
    ContentTree,
    ContentTreeError,
    tree_from_json,
    tree_to_json,
)


def random_tree_ops(seed: int, n_ops: int = 25) -> ContentTree:
    """Apply a random (always-legal) operation sequence."""
    rng = random.Random(seed)
    tree = ContentTree()
    tree.initialize("root", rng.randint(1, 30))
    counter = 0
    for _ in range(n_ops):
        names = [n.name for n in tree.nodes()]
        op = rng.choice(["attach", "attach", "attach", "insert", "delete"])
        counter += 1
        new = f"n{counter}"
        if op == "attach":
            tree.attach(new, rng.randint(1, 30), parent=rng.choice(names))
        elif op == "insert":
            parent = tree.node(rng.choice(names))
            adopt = [
                c.name for c in parent.children if rng.random() < 0.5
            ]
            tree.insert(new, rng.randint(1, 30), parent=parent.name, adopt=adopt)
        elif op == "delete":
            candidates = [n for n in names if n != "root"]
            if candidates:
                tree.delete(rng.choice(candidates))
    return tree


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=100_000))
def test_random_ops_keep_tree_valid(seed):
    tree = random_tree_ops(seed)
    tree.validate()


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=100_000))
def test_level_values_strictly_cumulative(seed):
    tree = random_tree_ops(seed)
    values = tree.level_values()
    # non-decreasing and the deepest level equals the total of all values
    assert values == sorted(values)
    total = sum(n.value for n in tree.nodes())
    assert values[-1] == total


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=100_000))
def test_level_value_is_sum_of_shallow_nodes(seed):
    tree = random_tree_ops(seed)
    for q in range(tree.highest_level + 1):
        expected = sum(n.value for n in tree.nodes() if n.level <= q)
        assert tree.presentation_time(q) == expected


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=100_000))
def test_presentation_order_subsequence_across_levels(seed):
    tree = random_tree_ops(seed)
    deepest = [n.name for n in tree.presentation_at(tree.highest_level)]
    for q in range(tree.highest_level):
        shallow = [n.name for n in tree.presentation_at(q)]
        it = iter(deepest)
        assert all(name in it for name in shallow)  # subsequence


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=100_000))
def test_serialization_round_trip(seed):
    tree = random_tree_ops(seed)
    clone = tree_from_json(tree_to_json(tree))
    assert [n.name for n in clone.nodes()] == [n.name for n in tree.nodes()]
    assert [n.level for n in clone.nodes()] == [n.level for n in tree.nodes()]
    assert clone.level_values() == tree.level_values()


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=100_000))
def test_delete_conserves_other_nodes(seed):
    tree = random_tree_ops(seed)
    names = [n.name for n in tree.nodes() if n.name != "root"]
    if not names:
        return
    victim = random.Random(seed).choice(names)
    before = {n.name for n in tree.nodes()}
    tree.delete(victim)
    after = {n.name for n in tree.nodes()}
    assert after == before - {victim}
    tree.validate()
