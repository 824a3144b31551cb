"""Unit tests for simulated codecs, profiles and clocks (repro.media)."""

import pytest

from repro.media.clock import ClockError, PresentationClock
from repro.media.codecs import (
    CODEC_REGISTRY,
    Codec,
    CodecError,
    ImageCodec,
    get_codec,
)
from repro.media.objects import AudioObject, ImageObject, MediaType, VideoObject
from repro.media.profiles import (
    STANDARD_PROFILES,
    BandwidthProfile,
    get_profile,
    select_profile,
)
from repro.media import MediaError


VIDEO = VideoObject("v", 10.0, width=320, height=240, fps=25)
AUDIO = AudioObject("a", 10.0)


class TestCodecModel:
    def test_registry_has_paper_codecs(self):
        for name in ("wma", "acelp", "mp3", "mpeg4", "truemotion", "clearvideo"):
            assert name in CODEC_REGISTRY

    def test_unknown_codec(self):
        with pytest.raises(CodecError):
            get_codec("h264")

    def test_video_bitrate_close_to_target(self):
        encoded = get_codec("mpeg4").encode(VIDEO, target_bitrate=250_000)
        assert encoded.bitrate == pytest.approx(250_000, rel=0.02)

    def test_audio_bitrate_close_to_target(self):
        encoded = get_codec("wma").encode(AUDIO, target_bitrate=32_000)
        assert encoded.bitrate == pytest.approx(32_000, rel=0.02)

    def test_unit_count_matches_frames(self):
        encoded = get_codec("mpeg4").encode(VIDEO, target_bitrate=250_000)
        assert len(encoded.units) == VIDEO.frame_count

    def test_keyframe_cadence(self):
        codec = get_codec("mpeg4")  # 2s keyframe interval
        encoded = codec.encode(VIDEO, target_bitrate=250_000)
        keys = [u.timestamp for u in encoded.units if u.keyframe]
        assert keys[0] == 0.0
        assert keys[1] == pytest.approx(2.0)
        assert len(keys) == 5

    def test_iframes_larger_than_pframes(self):
        encoded = get_codec("mpeg4").encode(VIDEO, target_bitrate=250_000)
        i_sizes = [u.size for u in encoded.units if u.keyframe]
        p_sizes = [u.size for u in encoded.units if not u.keyframe]
        assert min(i_sizes) > max(p_sizes)

    def test_quality_monotone_in_bitrate(self):
        codec = get_codec("mpeg4")
        q = [
            codec.encode(VIDEO, target_bitrate=r).quality
            for r in (50_000, 250_000, 1_000_000)
        ]
        assert q[0] < q[1] < q[2]
        assert all(0 < x < 1 for x in q)

    def test_better_codec_higher_quality_same_rate(self):
        good = get_codec("mpeg4").encode(VIDEO, target_bitrate=100_000)
        bad = get_codec("clearvideo").encode(VIDEO, target_bitrate=100_000)
        assert good.quality > bad.quality

    def test_kind_mismatch_rejected(self):
        with pytest.raises(CodecError):
            get_codec("wma").encode(VIDEO, target_bitrate=100_000)

    def test_nonpositive_bitrate_rejected(self):
        with pytest.raises(CodecError):
            get_codec("mpeg4").encode(VIDEO, target_bitrate=0)

    def test_compression_ratio(self):
        encoded = get_codec("mpeg4").encode(VIDEO, target_bitrate=250_000)
        assert encoded.compression_ratio > 10

    def test_with_data_materializes_payloads(self):
        encoded = get_codec("mpeg4").encode(
            VideoObject("v", 0.2, width=32, height=32, fps=10),
            target_bitrate=50_000,
            with_data=True,
        )
        assert all(len(u.data) == u.size for u in encoded.units)

    def test_codec_parameter_validation(self):
        with pytest.raises(CodecError):
            Codec("x", MediaType.VIDEO, efficiency=0)
        with pytest.raises(CodecError):
            Codec("x", MediaType.VIDEO, keyframe_interval=0)

    def test_image_codec(self, monkeypatch):
        monkeypatch.setattr(ImageCodec, "compression_ratio", 30)
        image = ImageObject("s", 5, width=100, height=100)
        encoded = ImageCodec().encode(image)
        assert encoded.total_size == pytest.approx(image.raw_size() / 30, rel=0.01)
        assert len(encoded.units) == 1


class TestProfiles:
    def test_ladder_is_sorted(self):
        rates = [p.total_bitrate for p in STANDARD_PROFILES]
        assert rates == sorted(rates)

    def test_get_profile(self):
        assert get_profile("dsl-256k").total_bitrate == 256_000
        with pytest.raises(MediaError):
            get_profile("zzz")

    def test_media_rates_fit_total(self):
        for p in STANDARD_PROFILES:
            assert p.video_bitrate + p.audio_bitrate <= p.total_bitrate

    def test_select_profile_picks_highest_fitting(self):
        assert select_profile(300_000).name == "dsl-256k"
        assert select_profile(2_000_000).name == "lan-1m"

    def test_select_profile_headroom(self):
        # 256k link with 0.9 headroom cannot carry the 256k profile
        assert select_profile(256_000).name == "isdn-dual"

    def test_select_profile_floor(self):
        assert select_profile(10_000).name == "modem-28k"

    def test_select_profile_invalid_link(self):
        with pytest.raises(MediaError):
            select_profile(0)

    def test_configure_video_downscales_only(self):
        profile = get_profile("modem-28k")
        scaled = profile.configure_video(VIDEO)
        assert scaled.width == 160 and scaled.fps == 7.5
        small = VideoObject("v", 10, width=80, height=60, fps=5)
        assert profile.configure_video(small).width == 80

    def test_higher_profile_higher_quality(self):
        low = get_profile("modem-28k").encode_video(VIDEO)
        high = get_profile("lan-1m").encode_video(VIDEO)
        assert high.quality > low.quality

    def test_invalid_profile_rejected(self):
        with pytest.raises(MediaError):
            BandwidthProfile("bad", 100_000, 90_000, 20_000, 320, 240, 25)


class TestPresentationClock:
    def test_not_started_reads_zero(self):
        assert PresentationClock().media_time(50.0) == 0.0

    def test_pause_resume(self):
        clock = PresentationClock()
        clock.start(0.0)
        clock.pause(4.0)
        assert clock.media_time(100.0) == pytest.approx(4.0)
        clock.resume(100.0)
        assert clock.media_time(101.0) == pytest.approx(5.0)

    def test_double_pause_rejected(self):
        clock = PresentationClock()
        clock.start(0.0)
        clock.pause(1.0)
        with pytest.raises(ClockError):
            clock.pause(2.0)

    def test_resume_unpaused_rejected(self):
        clock = PresentationClock()
        clock.start(0.0)
        with pytest.raises(ClockError):
            clock.resume(1.0)

    def test_double_start_rejected(self):
        clock = PresentationClock()
        clock.start(0.0)
        with pytest.raises(ClockError):
            clock.start(1.0)

    def test_seek(self):
        clock = PresentationClock()
        clock.start(0.0)
        clock.seek(5.0, 60.0)
        assert clock.media_time(7.0) == pytest.approx(62.0)
