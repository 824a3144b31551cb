"""Unit tests for the ASCII timeline rendering (repro.core.visualize)."""

from repro.core.intervals import Interval
from repro.core.scheduler import PresentationTimeline, TimelineEntry
from repro.core.visualize import timeline_to_ascii


class TestAsciiTimeline:
    def test_rows_and_scale(self):
        t = PresentationTimeline(
            [
                TimelineEntry("video", Interval(0, 10)),
                TimelineEntry("slide", Interval(5, 10)),
            ]
        )
        art = timeline_to_ascii(t, width=20)
        lines = art.splitlines()
        assert lines[0].startswith("slide")
        assert lines[1].startswith("video")
        assert "10.0s" in lines[-1]
        # video bar longer than slide bar
        assert lines[1].count("█") > lines[0].count("█")

    def test_empty_timeline(self):
        art = timeline_to_ascii(PresentationTimeline())
        assert "1.0s" in art
