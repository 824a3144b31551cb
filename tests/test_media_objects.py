"""Unit tests for synthetic media objects (repro.media.objects)."""

import pytest

from repro.media.objects import (
    AnnotationObject,
    AudioObject,
    ImageObject,
    MediaError,
    MediaType,
    VideoObject,
    _pseudo_bytes,
)


class TestPseudoBytes:
    def test_deterministic(self):
        assert _pseudo_bytes("s", 0, 100) == _pseudo_bytes("s", 0, 100)

    def test_seed_and_index_vary(self):
        assert _pseudo_bytes("s", 0, 32) != _pseudo_bytes("s", 1, 32)
        assert _pseudo_bytes("a", 0, 32) != _pseudo_bytes("b", 0, 32)

    def test_exact_size(self):
        assert len(_pseudo_bytes("s", 0, 77)) == 77


class TestVideoObject:
    def test_validation(self):
        with pytest.raises(MediaError):
            VideoObject("", 10)
        with pytest.raises(MediaError):
            VideoObject("v", 0)
        with pytest.raises(MediaError):
            VideoObject("v", 10, width=0)
        with pytest.raises(MediaError):
            VideoObject("v", 10, fps=0)

    def test_frame_count(self):
        v = VideoObject("v", 2.0, fps=25)
        assert v.frame_count == 50

    def test_short_video_has_one_frame(self):
        assert VideoObject("v", 0.01, fps=10).frame_count == 1

    def test_raw_size(self):
        v = VideoObject("v", 1.0, width=10, height=10, fps=5)
        assert v.raw_size() == 5 * 10 * 10 * 3

    def test_frame_timestamps(self):
        v = VideoObject("v", 0.2, fps=10)
        times = [f.timestamp for f in v.frames()]
        assert times == [0.0, 0.1]

    def test_frames_with_data(self):
        v = VideoObject("v", 0.1, width=4, height=4, fps=10)
        frame = next(v.frames(with_data=True))
        assert len(frame.data) == frame.size == 48

    def test_media_type(self):
        assert VideoObject("v", 1).media_type is MediaType.VIDEO


class TestAudioObject:
    def test_byte_rate(self):
        a = AudioObject("a", 1.0, sample_rate=8000, channels=2, sample_width=2)
        assert a.byte_rate == 32_000

    def test_raw_size(self):
        a = AudioObject("a", 2.0, sample_rate=1000, channels=1, sample_width=1)
        assert a.raw_size() == 2000

    def test_blocks_cover_everything(self):
        a = AudioObject("a", 1.05, sample_rate=1000, channels=1, sample_width=1)
        blocks = list(a.blocks(block_duration=0.1))
        assert sum(b.size for b in blocks) == a.raw_size()
        assert blocks[-1].size == 50  # trailing short block

    def test_block_timestamps_monotone(self):
        a = AudioObject("a", 0.5)
        times = [b.timestamp for b in a.blocks()]
        assert times == sorted(times)

    def test_invalid_block_duration(self):
        with pytest.raises(MediaError):
            list(AudioObject("a", 1).blocks(block_duration=0))

    def test_validation(self):
        with pytest.raises(MediaError):
            AudioObject("a", 1, sample_rate=0)


class TestImageTextAnnotation:
    def test_image_raw_size(self):
        img = ImageObject("s", 5, width=10, height=10)
        assert img.raw_size() == 300
        assert len(img.data()) == 300

    def test_image_validation(self):
        with pytest.raises(MediaError):
            ImageObject("s", 5, width=-1)

    def test_annotation_valid(self):
        ann = AnnotationObject("n", 2, text="look")
        assert ann.media_type is MediaType.ANNOTATION
        assert ann.raw_size() == 4 + 32
