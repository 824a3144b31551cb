"""Unit tests for Allen's interval algebra (repro.core.intervals)."""

import pytest

from repro.core.intervals import (
    Interval,
    TemporalRelation,
    relation_between,
    schedule_pair,
)

R = TemporalRelation


class TestInterval:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_duration(self):
        assert Interval(1.0, 4.5).duration == 3.5

    def test_shifted(self):
        assert Interval(1, 2).shifted(3) == Interval(4, 5)

class TestRelationBetween:
    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (Interval(0, 1), Interval(2, 3), R.BEFORE),
            (Interval(2, 3), Interval(0, 1), R.AFTER),
            (Interval(0, 1), Interval(1, 2), R.MEETS),
            (Interval(1, 2), Interval(0, 1), R.MET_BY),
            (Interval(0, 2), Interval(1, 3), R.OVERLAPS),
            (Interval(1, 3), Interval(0, 2), R.OVERLAPPED_BY),
            (Interval(1, 2), Interval(0, 3), R.DURING),
            (Interval(0, 3), Interval(1, 2), R.CONTAINS),
            (Interval(0, 1), Interval(0, 2), R.STARTS),
            (Interval(0, 2), Interval(0, 1), R.STARTED_BY),
            (Interval(1, 2), Interval(0, 2), R.FINISHES),
            (Interval(0, 2), Interval(1, 2), R.FINISHED_BY),
            (Interval(0, 2), Interval(0, 2), R.EQUALS),
        ],
    )
    def test_all_thirteen(self, a, b, expected):
        assert relation_between(a, b) is expected

    def test_inverse_is_involutive(self):
        for rel in R:
            assert rel.inverse().inverse() is rel

    def test_equals_self_inverse(self):
        assert R.EQUALS.inverse() is R.EQUALS

    def test_relation_symmetry(self):
        a, b = Interval(0, 2), Interval(1, 3)
        assert relation_between(a, b).inverse() is relation_between(b, a)

    def test_canonicalize(self):
        rel, swapped = R.CONTAINS.canonicalize()
        assert rel is R.DURING and swapped
        rel, swapped = R.MEETS.canonicalize()
        assert rel is R.MEETS and not swapped


class TestSchedulePair:
    def test_equals(self):
        a, b = schedule_pair(R.EQUALS, 5, 5)
        assert a == b == Interval(0, 5)

    def test_equals_mismatched_durations_rejected(self):
        with pytest.raises(ValueError):
            schedule_pair(R.EQUALS, 5, 6)

    def test_meets(self):
        a, b = schedule_pair(R.MEETS, 3, 4)
        assert a == Interval(0, 3) and b == Interval(3, 7)

    def test_before_needs_positive_delay(self):
        with pytest.raises(ValueError):
            schedule_pair(R.BEFORE, 3, 4)

    def test_before(self):
        a, b = schedule_pair(R.BEFORE, 3, 4, delay=2)
        assert a == Interval(0, 3) and b == Interval(5, 9)

    def test_starts(self):
        a, b = schedule_pair(R.STARTS, 3, 5)
        assert a.start == b.start == 0 and a.end == 3 and b.end == 5

    def test_starts_requires_shorter_a(self):
        with pytest.raises(ValueError):
            schedule_pair(R.STARTS, 5, 3)

    def test_finishes(self):
        a, b = schedule_pair(R.FINISHES, 3, 5)
        assert a == Interval(2, 5) and b == Interval(0, 5)

    def test_overlaps(self):
        a, b = schedule_pair(R.OVERLAPS, 4, 4, delay=2)
        assert a == Interval(0, 4) and b == Interval(2, 6)

    def test_overlaps_delay_bounds(self):
        with pytest.raises(ValueError):
            schedule_pair(R.OVERLAPS, 4, 4, delay=5)
        with pytest.raises(ValueError):
            schedule_pair(R.OVERLAPS, 4, 1, delay=1)  # b would end inside a

    def test_during(self):
        a, b = schedule_pair(R.DURING, 2, 10, delay=3)
        assert a == Interval(3, 5) and b == Interval(0, 10)

    def test_during_must_fit(self):
        with pytest.raises(ValueError):
            schedule_pair(R.DURING, 8, 10, delay=3)

    def test_inverse_relations_swap(self):
        a1, b1 = schedule_pair(R.CONTAINS, 10, 2, delay=3)
        # a contains b == b during a
        b2, a2 = schedule_pair(R.DURING, 2, 10, delay=3)
        assert a1 == a2 and b1 == b2

    def test_origin_shift(self):
        a, b = schedule_pair(R.MEETS, 3, 4, origin=10)
        assert a == Interval(10, 13) and b == Interval(13, 17)

    def test_nonpositive_durations_rejected(self):
        with pytest.raises(ValueError):
            schedule_pair(R.MEETS, 0, 4)

    def test_schedule_matches_classification(self):
        """schedule_pair and relation_between agree on every canonical relation."""
        cases = [
            (R.BEFORE, 3, 4, 1.0),
            (R.MEETS, 3, 4, 0.0),
            (R.OVERLAPS, 4, 4, 2.0),
            (R.DURING, 2, 10, 3.0),
            (R.STARTS, 3, 5, 0.0),
            (R.FINISHES, 3, 5, 0.0),
            (R.EQUALS, 5, 5, 0.0),
        ]
        for rel, da, db, delay in cases:
            a, b = schedule_pair(rel, da, db, delay=delay)
            assert relation_between(a, b) is rel, rel
