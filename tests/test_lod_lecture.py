"""Unit tests for the lecture model and recorder (repro.lod)."""

import pytest

from repro.lod.lecture import (
    Lecture,
    LectureError,
    LectureSegment,
    TimedAnnotation,
)
from repro.lod.recorder import (
    CameraSource,
    LectureRecorder,
    MicrophoneSource,
)
from repro.media.objects import AnnotationObject, ImageObject, VideoObject


def simple_lecture(**kwargs):
    return Lecture.from_slide_durations(
        "Title", "Author", [10.0, 20.0, 10.0], **kwargs
    )


class TestLectureModel:
    def test_from_slide_durations(self):
        lec = simple_lecture()
        assert lec.duration == 40.0
        assert [s.start for s in lec.segments] == [0.0, 10.0, 30.0]
        assert lec.audio is not None

    def test_without_audio(self):
        lec = simple_lecture(with_audio=False)
        assert lec.audio is None

    def test_importances(self):
        lec = simple_lecture(importances=[0, 1, 0])
        assert [s.importance for s in lec.segments] == [0, 1, 0]

    def test_importances_length_checked(self):
        with pytest.raises(LectureError):
            simple_lecture(importances=[0])

    def test_needs_segments(self):
        with pytest.raises(LectureError):
            Lecture.from_slide_durations("T", "A", [])

    def test_segments_must_tile(self):
        video = VideoObject("v", 20.0)
        seg = LectureSegment("s0", ImageObject("s0", 10), 0.0, 10.0)
        gap = LectureSegment("s1", ImageObject("s1", 5), 12.0, 8.0)
        with pytest.raises(LectureError):
            Lecture("T", "A", video, [seg, gap])

    def test_segments_must_cover_video(self):
        video = VideoObject("v", 20.0)
        seg = LectureSegment("s0", ImageObject("s0", 10), 0.0, 10.0)
        with pytest.raises(LectureError):
            Lecture("T", "A", video, [seg])

    def test_duplicate_segment_names(self):
        video = VideoObject("v", 20.0)
        segs = [
            LectureSegment("s", ImageObject("a", 10), 0.0, 10.0),
            LectureSegment("s", ImageObject("b", 10), 10.0, 10.0),
        ]
        with pytest.raises(LectureError):
            Lecture("T", "A", video, segs)

    def test_audio_duration_mismatch(self):
        from repro.media.objects import AudioObject

        video = VideoObject("v", 10.0)
        seg = LectureSegment("s0", ImageObject("s0", 10), 0.0, 10.0)
        with pytest.raises(LectureError):
            Lecture("T", "A", video, [seg], audio=AudioObject("a", 9.0))

    def test_annotation_must_fit_segment(self):
        with pytest.raises(LectureError):
            LectureSegment(
                "s0",
                ImageObject("s0", 10),
                0.0,
                10.0,
                annotations=[
                    TimedAnnotation(AnnotationObject("n", 5.0, text="x"), 6.0)
                ],
            )

    def test_segment_lookup(self):
        lec = simple_lecture()
        assert lec.segment("slide1").duration == 20.0
        with pytest.raises(LectureError):
            lec.segment("nope")


class TestLectureFormalViews:
    def test_script_commands_at_segment_starts(self):
        lec = simple_lecture()
        commands = lec.script_commands()
        slides = [(c.parameter, c.timestamp) for c in commands if c.type == "SLIDE"]
        assert slides == [("slide0", 0.0), ("slide1", 10.0), ("slide2", 30.0)]

    def test_annotation_commands(self):
        video = VideoObject("v", 10.0)
        seg = LectureSegment(
            "s0",
            ImageObject("s0", 10),
            0.0,
            10.0,
            annotations=[
                TimedAnnotation(AnnotationObject("n", 2.0, text="look here"), 3.0)
            ],
        )
        lec = Lecture("T", "A", video, [seg])
        notes = [c for c in lec.script_commands() if c.type == "ANNOTATION"]
        assert len(notes) == 1
        assert notes[0].timestamp == 3.0 and notes[0].parameter == "look here"

    def test_to_presentation_matches_structure(self):
        lec = simple_lecture()
        pres = lec.to_presentation()
        assert pres.duration == 40.0
        assert pres.boundaries == [0.0, 10.0, 30.0, 40.0]
        pres.verify()

    def test_presentation_includes_audio_leaves(self):
        pres = simple_lecture().to_presentation()
        assert "audio_slide0" in pres.schedule
        no_audio = simple_lecture(with_audio=False).to_presentation()
        assert "audio_slide0" not in no_audio.schedule

    def test_content_tree_levels(self):
        lec = simple_lecture(importances=[0, 1, 0])
        tree = lec.content_tree()
        # level 1 = essential slides (0 and 2): 20s; level 2 adds slide1
        assert tree.presentation_time(1) == 20.0
        assert tree.presentation_time(2) == 40.0

class TestRecorder:
    def test_basic_recording(self):
        rec = LectureRecorder("T", "A", microphone=MicrophoneSource())
        rec.start()
        rec.advance_slide(10.0)
        rec.advance_slide(25.0)
        lec = rec.finish(30.0)
        assert [s.name for s in lec.segments] == ["slide0", "slide1", "slide2"]
        assert [s.duration for s in lec.segments] == [10.0, 15.0, 5.0]
        assert lec.audio is not None

    def test_no_microphone_no_audio(self):
        rec = LectureRecorder("T", "A")
        rec.start()
        assert rec.finish(10.0).audio is None

    def test_camera_parameters_flow_through(self, monkeypatch):
        for name, value in (("width", 640), ("height", 480), ("fps", 30)):
            monkeypatch.setattr(CameraSource, name, value)
        rec = LectureRecorder("T", "A")
        rec.start()
        lec = rec.finish(5.0)
        assert lec.video.width == 640 and lec.video.fps == 30

    def test_annotations_attach_to_segment(self):
        rec = LectureRecorder("T", "A")
        rec.start()
        rec.annotate(3.0, "remember this", duration=2.0)
        rec.advance_slide(10.0)
        rec.annotate(14.0, "and this", duration=2.0)
        lec = rec.finish(20.0)
        assert len(lec.segments[0].annotations) == 1
        assert lec.segments[0].annotations[0].offset == pytest.approx(3.0)
        assert len(lec.segments[1].annotations) == 1
        assert lec.segments[1].annotations[0].offset == pytest.approx(4.0)

    def test_annotation_overflowing_segment_dropped(self):
        rec = LectureRecorder("T", "A")
        rec.start()
        rec.annotate(9.0, "late note", duration=5.0)  # would cross boundary
        rec.advance_slide(10.0)
        lec = rec.finish(20.0)
        assert lec.segments[0].annotations == []

    def test_slide_importance_recorded(self):
        rec = LectureRecorder("T", "A")
        rec.start()
        rec.advance_slide(5.0, importance=2)
        lec = rec.finish(10.0)
        assert lec.segments[1].importance == 2

    def test_monotone_slide_times_enforced(self):
        rec = LectureRecorder("T", "A")
        rec.start()
        rec.advance_slide(5.0)
        with pytest.raises(LectureError):
            rec.advance_slide(5.0)

    def test_lifecycle_enforced(self):
        rec = LectureRecorder("T", "A")
        with pytest.raises(LectureError):
            rec.advance_slide(1.0)
        rec.start()
        with pytest.raises(LectureError):
            rec.start()
        rec.finish(10.0)
        with pytest.raises(LectureError):
            rec.advance_slide(11.0)

    def test_finish_after_last_advance(self):
        rec = LectureRecorder("T", "A")
        rec.start()
        rec.advance_slide(5.0)
        with pytest.raises(LectureError):
            rec.finish(5.0)

    def test_custom_slide_names(self):
        rec = LectureRecorder("T", "A")
        rec.start()
        rec.advance_slide(5.0, name="architecture")
        lec = rec.finish(10.0)
        assert lec.segments[1].name == "architecture"

    def test_recorded_lecture_is_orchestratable(self):
        rec = LectureRecorder("T", "A", microphone=MicrophoneSource())
        rec.start()
        rec.advance_slide(6.0)
        lec = rec.finish(12.0)
        lec.to_presentation().verify()
