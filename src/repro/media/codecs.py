"""Simulated codecs — the substitution for the Windows Media codec suite.

Paper §2.1 lists the codecs ASF supports: Windows Media Audio, Sipro Labs
ACELP, and MPEG-3 for audio; MPEG-4, TrueMotion RT, and ClearVideo for
video. We model each as a **parametric rate/quality codec**: encoding maps
raw media to a sequence of encoded units whose sizes follow the codec's
rate model (target bitrate, keyframe interval with larger I-frames,
smaller P-frames), and quality is a monotone function of bits-per-pixel
(video) or bits-per-sample (audio). That preserves everything the rest of
the pipeline observes — unit timing, unit sizes, total rate, and the
encode→packetize→stream→decode code path — without licensed bitstream
formats.

Use :func:`get_codec` / :data:`CODEC_REGISTRY` to look codecs up by the
names the paper uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from .objects import (
    AudioObject,
    ImageObject,
    MediaError,
    MediaObject,
    MediaType,
    VideoObject,
    _pseudo_bytes,
)


class CodecError(MediaError):
    """Encoding/decoding misuse."""


@dataclass(frozen=True)
class EncodedUnit:
    """One encoded access unit (video frame, audio block, or image blob)."""

    index: int
    timestamp: float
    size: int
    keyframe: bool
    data: bytes = b""


@dataclass
class EncodedStream:
    """Output of one codec run over one media object."""

    media: MediaObject
    codec: str
    units: List[EncodedUnit]
    quality: float  # 0..1, codec-model estimate

    @property
    def total_size(self) -> int:
        return sum(u.size for u in self.units)

    @property
    def bitrate(self) -> float:
        """Average encoded bitrate in bits/second."""
        if self.media.duration == 0:
            return 0.0
        return self.total_size * 8 / self.media.duration

    @property
    def compression_ratio(self) -> float:
        raw = self.media.raw_size()
        return raw / self.total_size if self.total_size else float("inf")


@dataclass(frozen=True)
class Codec:
    """A parametric codec model.

    Parameters
    ----------
    name:
        Registry name, e.g. ``"mpeg4"``.
    kind:
        Which :class:`MediaType` it accepts.
    efficiency:
        Rate-distortion efficiency in (0, 1]; at the same bitrate a codec
        with higher efficiency yields higher modeled quality. (MPEG-4 ≫
        ClearVideo, mirroring their era.)
    keyframe_interval:
        Seconds between video keyframes (I-frames). Ignored for audio.
    i_to_p_ratio:
        How many times larger an I-frame is than a P-frame.
    """

    name: str
    kind: MediaType
    efficiency: float = 0.8
    keyframe_interval: float = 2.0
    i_to_p_ratio: float = 6.0

    def __post_init__(self) -> None:
        if not 0 < self.efficiency <= 1:
            raise CodecError(f"{self.name!r}: efficiency must be in (0, 1]")
        if self.keyframe_interval <= 0 or self.i_to_p_ratio < 1:
            raise CodecError(f"{self.name!r}: bad GOP parameters")

    def fingerprint(self) -> tuple:
        """Every parameter that shapes the encoded bytes, as a hashable key.

        Two codecs with equal fingerprints produce identical output for
        identical input — the content-addressing contract the segment-level
        encode cache (:mod:`repro.asf.farm`) keys on.
        """
        return (
            "codec",
            self.name,
            self.kind.value,
            self.efficiency,
            self.keyframe_interval,
            self.i_to_p_ratio,
        )

    # ------------------------------------------------------------------

    def encode(
        self,
        media: MediaObject,
        *,
        target_bitrate: float,
        with_data: bool = False,
    ) -> EncodedStream:
        """Encode ``media`` at ``target_bitrate`` bits/second."""
        if target_bitrate <= 0:
            raise CodecError("target_bitrate must be positive")
        if media.media_type is not self.kind:
            raise CodecError(
                f"codec {self.name!r} encodes {self.kind.value}, "
                f"got {media.media_type.value}"
            )
        if isinstance(media, VideoObject):
            return self._encode_video(media, target_bitrate, with_data)
        if isinstance(media, AudioObject):
            return self._encode_audio(media, target_bitrate, with_data)
        raise CodecError(f"cannot encode {type(media).__name__}")

    def _encode_video(
        self, media: VideoObject, target_bitrate: float, with_data: bool
    ) -> EncodedStream:
        total_bytes = target_bitrate * media.duration / 8
        n = media.frame_count
        gop = max(1, round(self.keyframe_interval * media.fps))
        n_key = math.ceil(n / gop)
        n_pred = n - n_key
        # sizes: n_key * r * p + n_pred * p = total
        p_size = total_bytes / (n_key * self.i_to_p_ratio + n_pred)
        i_size = p_size * self.i_to_p_ratio
        units = []
        for frame in media.frames():
            keyframe = frame.index % gop == 0
            size = max(1, round(i_size if keyframe else p_size))
            data = (
                _pseudo_bytes(f"{self.name}:{media.name}", frame.index, size)
                if with_data
                else b""
            )
            units.append(
                EncodedUnit(frame.index, frame.timestamp, size, keyframe, data)
            )
        quality = self._quality(
            target_bitrate, media.width * media.height * media.fps
        )
        return EncodedStream(media, self.name, units, quality)

    def _encode_audio(
        self, media: AudioObject, target_bitrate: float, with_data: bool
    ) -> EncodedStream:
        units = []
        for block in media.blocks():
            block_dur = block.size / media.byte_rate
            size = max(1, round(target_bitrate * block_dur / 8))
            data = (
                _pseudo_bytes(f"{self.name}:{media.name}", block.index, size)
                if with_data
                else b""
            )
            units.append(
                EncodedUnit(block.index, block.timestamp, size, True, data)
            )
        quality = self._quality(
            target_bitrate, media.sample_rate * media.channels * 8
        )
        return EncodedStream(media, self.name, units, quality)

    def _quality(self, bitrate: float, raw_rate: float) -> float:
        """Monotone saturating quality model: q = 1 - exp(-k·bpp·eff).

        ``bpp`` is bits per raw unit (pixel·frame or sample); ``k`` chosen
        so typical-era operating points land mid-scale.
        """
        bpp = bitrate / raw_rate
        return 1.0 - math.exp(-12.0 * bpp * self.efficiency)


class ImageCodec:
    """Still-image compressor for slides (JPEG-like fixed-ratio model)."""

    name = "slidejpeg"
    compression_ratio = 20.0
    quality = 0.9

    def fingerprint(self) -> tuple:
        """Hashable identity of the compressor (see :meth:`Codec.fingerprint`)."""
        return ("imagecodec", self.name, self.compression_ratio, self.quality)

    def encode(self, image: ImageObject, *, with_data: bool = False) -> EncodedStream:
        size = max(1, round(image.raw_size() / self.compression_ratio))
        data = _pseudo_bytes(f"{self.name}:{image.name}", 0, size) if with_data else b""
        unit = EncodedUnit(0, 0.0, size, True, data)
        return EncodedStream(image, self.name, [unit], self.quality)


#: The codec suite of paper §2.1, by registry name.
CODEC_REGISTRY: Dict[str, Codec] = {
    # audio
    "wma": Codec("wma", MediaType.AUDIO, efficiency=0.85),
    "acelp": Codec("acelp", MediaType.AUDIO, efficiency=0.7),
    "mp3": Codec("mp3", MediaType.AUDIO, efficiency=0.75),
    "pcm": Codec("pcm", MediaType.AUDIO, efficiency=0.05),
    # video
    "mpeg4": Codec("mpeg4", MediaType.VIDEO, efficiency=0.9),
    "truemotion": Codec("truemotion", MediaType.VIDEO, efficiency=0.6,
                        keyframe_interval=1.0, i_to_p_ratio=4.0),
    "clearvideo": Codec("clearvideo", MediaType.VIDEO, efficiency=0.5),
}


def get_codec(name: str) -> Codec:
    try:
        return CODEC_REGISTRY[name]
    except KeyError:
        raise CodecError(
            f"unknown codec {name!r}; available: {sorted(CODEC_REGISTRY)}"
        ) from None
