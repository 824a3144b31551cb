"""Unit tests for presentation timelines (repro.core.scheduler)."""

import pytest

from repro.core.intervals import Interval
from repro.core.ocpn import MediaLeaf, compile_spec, parallel, sequence, spec_intervals
from repro.core.scheduler import PresentationTimeline, TimelineEntry


def sample_timeline():
    return PresentationTimeline(
        [
            TimelineEntry("video", Interval(0, 10)),
            TimelineEntry("slide1", Interval(0, 5)),
            TimelineEntry("slide2", Interval(5, 10)),
        ]
    )


class TestTimeline:
    def test_sorted_by_start(self):
        t = PresentationTimeline(
            [TimelineEntry("b", Interval(5, 6)), TimelineEntry("a", Interval(0, 1))]
        )
        assert [e.media for e in t] == ["a", "b"]

    def test_duration(self):
        assert sample_timeline().duration == 10

    def test_empty_duration_zero(self):
        assert PresentationTimeline().duration == 0.0

    def test_active_at(self):
        t = sample_timeline()
        assert t.active_at(3) == ["slide1", "video"]
        assert t.active_at(5) == ["slide2", "video"]
        assert t.active_at(10) == []

    def test_media_names(self):
        assert sample_timeline().media_names() == ["slide1", "slide2", "video"]

    def test_entry_for(self):
        assert sample_timeline().entry_for("video").end == 10
        with pytest.raises(KeyError):
            sample_timeline().entry_for("zzz")

    def test_edges_stop_before_start_at_same_instant(self):
        edges = sample_timeline().edges()
        idx = {(kind, media): i for i, (_, kind, media) in enumerate(edges)}
        assert idx[("stop", "slide1")] < idx[("start", "slide2")]

    def test_edges_complete(self):
        edges = sample_timeline().edges()
        assert len(edges) == 6

    def test_from_schedule(self):
        t = PresentationTimeline.from_schedule({"x": Interval(1, 2)})
        assert len(t) == 1 and t.entry_for("x").start == 1

    def test_from_execution_matches_nominal(self):
        spec = sequence(
            parallel(MediaLeaf("v", 10), MediaLeaf("s", 10)), MediaLeaf("tail", 5)
        )
        compiled = compile_spec(spec)
        measured = PresentationTimeline.from_execution(compiled)
        nominal = PresentationTimeline.from_schedule(spec_intervals(compiled.spec))
        assert measured.max_drift(nominal) == pytest.approx(0.0)


class TestDrift:
    def test_drift_against_identical_is_zero(self):
        t = sample_timeline()
        assert all(v == 0 for v in t.drift_against(sample_timeline()).values())

    def test_drift_measures_endpoint_error(self):
        shifted = PresentationTimeline(
            [
                TimelineEntry("video", Interval(0.5, 10.5)),
                TimelineEntry("slide1", Interval(0, 5)),
                TimelineEntry("slide2", Interval(5, 10)),
            ]
        )
        drift = shifted.drift_against(sample_timeline())
        assert drift["video"] == pytest.approx(0.5)
        assert drift["slide1"] == 0

    def test_missing_media_is_infinite_drift(self):
        partial = PresentationTimeline([TimelineEntry("video", Interval(0, 10))])
        drift = partial.drift_against(sample_timeline())
        assert drift["slide1"] == float("inf")

    def test_max_drift(self):
        partial = PresentationTimeline([TimelineEntry("video", Interval(0, 10))])
        assert partial.max_drift(sample_timeline()) == float("inf")
