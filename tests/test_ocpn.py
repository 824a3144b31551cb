"""Unit tests for the OCPN compiler (repro.core.ocpn)."""

import pytest

from repro.core.analysis import is_safe, reachability_graph
from repro.core.intervals import TemporalRelation as R
from repro.core.ocpn import (
    Composite,
    MediaLeaf,
    SpecError,
    compile_spec,
    parallel,
    sequence,
    spec_duration,
    spec_intervals,
    verify_schedule,
)


class TestSpecAST:
    def test_leaf_validation(self):
        with pytest.raises(SpecError):
            MediaLeaf("", 5)
        with pytest.raises(SpecError):
            MediaLeaf("x", 0)

    def test_sequence_duration_adds(self):
        spec = sequence(MediaLeaf("a", 2), MediaLeaf("b", 3), MediaLeaf("c", 4))
        assert spec_duration(spec) == pytest.approx(9)

    def test_parallel_duration_is_max(self):
        spec = parallel(MediaLeaf("a", 2), MediaLeaf("b", 7), MediaLeaf("c", 4))
        assert spec_duration(spec) == pytest.approx(7)

    def test_parallel_equal_durations_uses_equals(self):
        spec = parallel(MediaLeaf("a", 3), MediaLeaf("b", 3))
        assert spec.relation is R.EQUALS

    def test_empty_combinators_rejected(self):
        with pytest.raises(SpecError):
            sequence()
        with pytest.raises(SpecError):
            parallel()

    def test_spec_leaves(self):
        spec = sequence(MediaLeaf("a", 1), parallel(MediaLeaf("b", 2), MediaLeaf("c", 2)))
        # the reference schedule lists every leaf, left to right
        assert list(spec_intervals(spec)) == ["a", "b", "c"]

    def test_duplicate_leaves_detected_in_intervals(self):
        spec = sequence(MediaLeaf("a", 1), MediaLeaf("a", 2))
        with pytest.raises(SpecError):
            spec_intervals(spec)

    def test_before_duration_includes_gap(self):
        spec = Composite(R.BEFORE, MediaLeaf("a", 2), MediaLeaf("b", 3), delay=1.5)
        assert spec_duration(spec) == pytest.approx(6.5)


class TestSpecIntervals:
    def test_sequence_intervals(self):
        spec = sequence(MediaLeaf("a", 2), MediaLeaf("b", 3))
        ivs = spec_intervals(spec)
        assert ivs["a"].start == 0 and ivs["a"].end == 2
        assert ivs["b"].start == 2 and ivs["b"].end == 5

    def test_during_intervals(self):
        spec = Composite(R.DURING, MediaLeaf("note", 2), MediaLeaf("video", 10), delay=3)
        ivs = spec_intervals(spec)
        assert ivs["video"].start == 0
        assert ivs["note"].start == 3 and ivs["note"].end == 5

    def test_origin_propagates(self):
        spec = sequence(MediaLeaf("a", 2), MediaLeaf("b", 3))
        ivs = spec_intervals(spec, origin=10)
        assert ivs["a"].start == 10 and ivs["b"].end == 15

    def test_inverse_relation_intervals(self):
        spec = Composite(R.CONTAINS, MediaLeaf("video", 10), MediaLeaf("note", 2), delay=3)
        ivs = spec_intervals(spec)
        assert ivs["video"].start == 0 and ivs["note"] .start == 3


ALL_RELATION_SPECS = [
    Composite(R.BEFORE, MediaLeaf("a", 2), MediaLeaf("b", 3), delay=1),
    Composite(R.MEETS, MediaLeaf("a", 2), MediaLeaf("b", 3)),
    Composite(R.OVERLAPS, MediaLeaf("a", 4), MediaLeaf("b", 4), delay=2),
    Composite(R.DURING, MediaLeaf("a", 2), MediaLeaf("b", 10), delay=3),
    Composite(R.STARTS, MediaLeaf("a", 2), MediaLeaf("b", 5)),
    Composite(R.FINISHES, MediaLeaf("a", 2), MediaLeaf("b", 5)),
    Composite(R.EQUALS, MediaLeaf("a", 5), MediaLeaf("b", 5)),
    # inverses
    Composite(R.AFTER, MediaLeaf("a", 2), MediaLeaf("b", 3), delay=1),
    Composite(R.MET_BY, MediaLeaf("a", 2), MediaLeaf("b", 3)),
    Composite(R.OVERLAPPED_BY, MediaLeaf("a", 4), MediaLeaf("b", 4), delay=2),
    Composite(R.CONTAINS, MediaLeaf("a", 10), MediaLeaf("b", 2), delay=3),
    Composite(R.STARTED_BY, MediaLeaf("a", 5), MediaLeaf("b", 2)),
    Composite(R.FINISHED_BY, MediaLeaf("a", 5), MediaLeaf("b", 2)),
]


class TestCompiler:
    @pytest.mark.parametrize("spec", ALL_RELATION_SPECS,
                             ids=[s.relation.value for s in ALL_RELATION_SPECS])
    def test_all_thirteen_relations_compile_and_verify(self, spec):
        compiled = compile_spec(spec)
        errors = verify_schedule(compiled)
        assert max(errors.values()) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("spec", ALL_RELATION_SPECS,
                             ids=[s.relation.value for s in ALL_RELATION_SPECS])
    def test_compiled_nets_are_safe(self, spec):
        compiled = compile_spec(spec)
        assert is_safe(compiled.timed_net.net)

    def test_done_place_marked_at_end(self):
        compiled = compile_spec(sequence(MediaLeaf("a", 1), MediaLeaf("b", 1)))
        compiled.execute()
        net = compiled.timed_net.net
        # final untimed firing run leaves exactly one token in P_done
        graph = reachability_graph(net)
        finals = [m for m in graph.dead_markings()]
        assert len(finals) == 1 and finals[0]["P_done"] == 1

    def test_nested_composition(self):
        spec = sequence(
            parallel(MediaLeaf("v1", 10), MediaLeaf("img1", 10)),
            Composite(R.DURING, MediaLeaf("note", 2),
                      parallel(MediaLeaf("v2", 8), MediaLeaf("img2", 8)), delay=1),
        )
        compiled = compile_spec(spec)
        errors = verify_schedule(compiled)
        assert max(errors.values()) < 1e-9
        ivs = spec_intervals(spec)
        assert ivs["note"].start == pytest.approx(11)

    def test_duplicate_leaf_rejected_at_compile(self):
        with pytest.raises(SpecError):
            compile_spec(sequence(MediaLeaf("a", 1), MediaLeaf("a", 1)))

    def test_invalid_delay_rejected_at_compile(self):
        spec = Composite(R.DURING, MediaLeaf("a", 9), MediaLeaf("b", 10), delay=5)
        with pytest.raises(ValueError):
            compile_spec(spec)

    def test_media_places_mapping(self):
        compiled = compile_spec(MediaLeaf("solo", 3))
        assert compiled.media_places == {"solo": "P_solo"}
        assert compiled.timed_net.duration("P_solo") == 3

    def test_execute_resets(self):
        compiled = compile_spec(MediaLeaf("solo", 3))
        first = compiled.execute()
        second = compiled.execute()
        assert first.makespan() == second.makespan() == pytest.approx(3)

    def test_deadlock_free_until_done(self):
        compiled = compile_spec(sequence(MediaLeaf("a", 1), MediaLeaf("b", 2)))
        net = compiled.timed_net.net
        dead = reachability_graph(net).dead_markings()
        # the only dead marking is the accepting "done" marking
        assert len(dead) == 1 and dead[0]["P_done"] == 1

    def test_verify_catches_tampered_duration(self):
        compiled = compile_spec(sequence(MediaLeaf("a", 2), MediaLeaf("b", 3)))
        compiled.timed_net.set_duration("P_a", 4.0)  # sabotage
        with pytest.raises(SpecError):
            verify_schedule(compiled)

    def test_makespan_matches_spec_duration(self):
        spec = sequence(
            parallel(MediaLeaf("v", 10), MediaLeaf("s", 10)),
            Composite(R.BEFORE, MediaLeaf("x", 2), MediaLeaf("y", 2), delay=1),
        )
        compiled = compile_spec(spec)
        assert compiled.execute().makespan() == pytest.approx(spec_duration(spec))
