"""Unit tests for repro.metrics."""

import pytest

from repro.metrics import (
    Counters,
    MetricsCollector,
    StatsError,
    Summary,
    format_table,
    get_counters,
    jain_index,
    mean,
    percentile,
    stdev,
)


class TestStats:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2

    def test_mean_empty_rejected(self):
        with pytest.raises(StatsError):
            mean([])

    def test_stdev(self):
        assert stdev([2, 4, 4, 4, 5, 5, 7, 9]) == pytest.approx(2.138, abs=1e-3)
        assert stdev([5]) == 0.0

    def test_percentile_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)
        assert percentile([1, 2, 3, 4], 0) == 1
        assert percentile([1, 2, 3, 4], 100) == 4

    def test_percentile_bounds(self):
        with pytest.raises(StatsError):
            percentile([1], 101)
        with pytest.raises(StatsError):
            percentile([], 50)

    def test_percentile_single(self):
        assert percentile([7], 95) == 7

    def test_jain_fair(self):
        assert jain_index([5, 5, 5]) == pytest.approx(1.0)

    def test_jain_unfair(self):
        assert jain_index([9, 0.0001, 0.0001]) == pytest.approx(1 / 3, abs=0.01)

    def test_jain_ignores_zero_and_empty(self):
        assert jain_index([0, 0]) == 1.0
        assert jain_index([]) == 1.0

    def test_summary(self):
        s = Summary.of([1, 2, 3, 4, 5])
        assert s.n == 5 and s.mean == 3 and s.p50 == 3
        assert "n=5" in str(s)

    def test_format_table(self):
        table = format_table(
            ["name", "value"], [["a", 1.5], ["bb", 2.25]], title="T"
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert lines[3].startswith("a")

    def test_format_table_row_width_checked(self):
        with pytest.raises(StatsError):
            format_table(["a", "b"], [[1]])


class TestCollector:
    def test_record_and_series(self):
        c = MetricsCollector("exp")
        c.record("s", 2, 20)
        c.record("s", 1, 10)
        assert c.series("s") == [(1, 10), (2, 20)]
        assert c.ys("s") == [10, 20]

    def test_unknown_series(self):
        with pytest.raises(StatsError):
            MetricsCollector().series("nope")

    def test_xs_union(self):
        c = MetricsCollector()
        c.record("a", 1, 0)
        c.record("b", 2, 0)
        assert c.xs() == [1, 2]

    def test_value_at(self):
        c = MetricsCollector()
        c.record("a", 1, 5)
        assert c.value_at("a", 1) == 5
        assert c.value_at("a", 9) is None

    def test_as_table_fills_gaps(self):
        c = MetricsCollector("fig")
        c.record("a", 1, 5)
        c.record("b", 2, 6)
        table = c.as_table(x_label="load")
        assert "fig" in table and "-" in table

    def test_summary(self):
        c = MetricsCollector()
        for i in range(10):
            c.record("s", i, float(i))
        assert c.summary("s").n == 10
