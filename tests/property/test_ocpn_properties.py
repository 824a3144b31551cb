"""Property-based tests on the OCPN compiler.

For randomly generated specification trees over all thirteen relations:

* the compiled net executes to exactly the interval-algebra schedule;
* the net is safe (1-bounded) and ends with one token in ``P_done``;
* the makespan equals the spec duration;
* interval classification of the measured playouts matches the relation
  used at every internal node.
"""

import random
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from repro.core import analysis
from repro.core.analysis import is_safe, reachability_graph
from repro.core.intervals import TemporalRelation, relation_between
from repro.core.ocpn import (
    Composite,
    MediaLeaf,
    compile_spec,
    spec_duration,
    spec_intervals,
    verify_schedule,
)

_REL_POOL = [
    TemporalRelation.BEFORE,
    TemporalRelation.MEETS,
    TemporalRelation.OVERLAPS,
    TemporalRelation.DURING,
    TemporalRelation.STARTS,
    TemporalRelation.FINISHES,
    TemporalRelation.EQUALS,
    TemporalRelation.AFTER,
    TemporalRelation.MET_BY,
    TemporalRelation.CONTAINS,
]


def random_spec(rng: random.Random, depth: int, counter: list):
    """A random well-formed spec tree (delays chosen to be legal)."""
    if depth == 0 or rng.random() < 0.3:
        counter[0] += 1
        return MediaLeaf(f"m{counter[0]}", round(rng.uniform(1.0, 8.0), 2))
    relation = rng.choice(_REL_POOL)
    left = random_spec(rng, depth - 1, counter)
    right = random_spec(rng, depth - 1, counter)
    da, db = spec_duration(left), spec_duration(right)
    rel, swapped = relation.canonicalize()
    # pick parameters that satisfy the relation's constraints
    if rel is TemporalRelation.EQUALS:
        counter[0] += 1
        right = MediaLeaf(f"m{counter[0]}", da if not swapped else db)
        return Composite(relation, left, right) if not swapped else Composite(
            relation, left, right
        )
    if rel in (TemporalRelation.STARTS, TemporalRelation.FINISHES):
        # need first shorter than second (in canonical order)
        a, b = (left, right) if not swapped else (right, left)
        if spec_duration(a) >= spec_duration(b):
            counter[0] += 1
            pad = MediaLeaf(f"m{counter[0]}", spec_duration(a) + 1.0)
            if swapped:
                left = pad
            else:
                right = pad
        return Composite(relation, left, right)
    if rel is TemporalRelation.BEFORE:
        return Composite(relation, left, right, delay=round(rng.uniform(0.5, 3.0), 2))
    if rel is TemporalRelation.OVERLAPS:
        a, b = (left, right) if not swapped else (right, left)
        da2, db2 = spec_duration(a), spec_duration(b)
        delay = round(rng.uniform(0.1, 0.9) * da2, 3)
        if delay + db2 <= da2:  # b must outlast a
            counter[0] += 1
            longer = MediaLeaf(f"m{counter[0]}", da2 + 1.0)
            if swapped:
                left = longer
            else:
                right = longer
        return Composite(relation, left, right, delay=max(delay, 0.01))
    if rel is TemporalRelation.DURING:
        a, b = (left, right) if not swapped else (right, left)
        da2, db2 = spec_duration(a), spec_duration(b)
        if da2 + 0.2 >= db2:
            counter[0] += 1
            container = MediaLeaf(f"m{counter[0]}", da2 + 2.0)
            if swapped:
                left = container
            else:
                right = container
            db2 = da2 + 2.0
        delay = round(rng.uniform(0.05, (db2 - da2) * 0.9), 3)
        return Composite(relation, left, right, delay=max(delay, 0.01))
    return Composite(relation, left, right)  # MEETS / MET_BY


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=3))
def test_compiled_net_matches_interval_algebra(seed, depth):
    spec = random_spec(random.Random(seed), depth, [0])
    compiled = compile_spec(spec)
    errors = verify_schedule(compiled)
    assert max(errors.values(), default=0.0) <= 1e-6


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=2))
def test_compiled_net_is_safe(seed, depth):
    spec = random_spec(random.Random(seed), depth, [0])
    compiled = compile_spec(spec)
    with patch.object(analysis, "MAX_STATES", 50_000):
        assert is_safe(compiled.timed_net.net)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=3))
def test_makespan_equals_spec_duration(seed, depth):
    spec = random_spec(random.Random(seed), depth, [0])
    compiled = compile_spec(spec)
    execution = compiled.execute()
    assert abs(execution.makespan() - spec_duration(spec)) < 1e-6


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=100_000))
def test_single_token_reaches_done(seed):
    spec = random_spec(random.Random(seed), 2, [0])
    compiled = compile_spec(spec)
    with patch.object(analysis, "MAX_STATES", 50_000):
        graph = reachability_graph(compiled.timed_net.net)
    finals = graph.dead_markings()
    assert len(finals) == 1
    assert finals[0] == {"P_done": 1}


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=100_000))
def test_pairwise_relations_hold_in_measured_intervals(seed):
    rng = random.Random(seed)
    counter = [0]
    spec = random_spec(rng, 1, counter)
    if isinstance(spec, MediaLeaf):
        return
    intervals = spec_intervals(spec)
    compiled = compile_spec(spec)
    measured = compiled.measured_intervals()
    # the measured relation between the two subtrees' hulls matches the spec
    for leaf, ref in intervals.items():
        got = measured[leaf]
        assert abs(got.start - ref.start) < 1e-6
        assert abs(got.end - ref.end) < 1e-6
