"""Bandwidth profiles — the encoder configuration of paper §2.5.

"User can select the profile that best describes the content you are
encoding. This profile means the different bandwidth will be configured.
The more high bit rate means the content will be encoded to a more
high-resolution content."

Each :class:`BandwidthProfile` fixes the target network rate and splits it
between audio and video, scaling resolution/frame rate the way Windows
Media Encoder profiles did. :data:`STANDARD_PROFILES` mirrors the era's
ladder (28.8k modem → broadband); :func:`select_profile` picks the best
profile fitting a link capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .codecs import Codec, CodecError, EncodedStream, get_codec
from .objects import AudioObject, MediaError, VideoObject


@dataclass(frozen=True)
class BandwidthProfile:
    """One encoding profile: total rate and how media are configured."""

    name: str
    total_bitrate: float  # bits/second on the wire
    video_bitrate: float
    audio_bitrate: float
    width: int
    height: int
    fps: float
    video_codec: str = "mpeg4"
    audio_codec: str = "wma"

    def __post_init__(self) -> None:
        if self.total_bitrate <= 0:
            raise MediaError(f"profile {self.name!r}: bitrate must be positive")
        if self.video_bitrate + self.audio_bitrate > self.total_bitrate * 1.001:
            raise MediaError(
                f"profile {self.name!r}: media rates exceed total bitrate"
            )
        get_codec(self.video_codec)
        get_codec(self.audio_codec)

    def configure_video(self, source: VideoObject) -> VideoObject:
        """Re-target a source video to the profile's resolution/rate."""
        return VideoObject(
            name=source.name,
            duration=source.duration,
            width=min(source.width, self.width),
            height=min(source.height, self.height),
            fps=min(source.fps, self.fps),
            seed=source.seed,
        )

    def encode_video(self, source: VideoObject, *, with_data: bool = False) -> EncodedStream:
        scaled = self.configure_video(source)
        return get_codec(self.video_codec).encode(
            scaled, target_bitrate=self.video_bitrate, with_data=with_data
        )

    def encode_audio(self, source: AudioObject, *, with_data: bool = False) -> EncodedStream:
        return get_codec(self.audio_codec).encode(
            source, target_bitrate=self.audio_bitrate, with_data=with_data
        )


#: The standard ladder, lowest to highest rate (names follow the WME-era
#: connection types the paper's configuration window exposed).
STANDARD_PROFILES: List[BandwidthProfile] = [
    BandwidthProfile("modem-28k", 28_800, 18_000, 8_000, 160, 120, 7.5,
                     video_codec="clearvideo", audio_codec="acelp"),
    BandwidthProfile("modem-56k", 56_000, 40_000, 12_000, 176, 144, 10,
                     video_codec="truemotion", audio_codec="acelp"),
    BandwidthProfile("isdn-dual", 128_000, 100_000, 20_000, 240, 180, 15),
    BandwidthProfile("dsl-256k", 256_000, 215_000, 32_000, 320, 240, 20),
    BandwidthProfile("dsl-512k", 512_000, 440_000, 64_000, 320, 240, 25),
    BandwidthProfile("lan-1m", 1_000_000, 900_000, 96_000, 640, 480, 25),
]

PROFILE_BY_NAME: Dict[str, BandwidthProfile] = {p.name: p for p in STANDARD_PROFILES}


def get_profile(name: str) -> BandwidthProfile:
    try:
        return PROFILE_BY_NAME[name]
    except KeyError:
        raise MediaError(
            f"unknown profile {name!r}; available: {sorted(PROFILE_BY_NAME)}"
        ) from None


def select_profile(
    link_bitrate: float, *, headroom: float = 0.9,
    profiles: Optional[List[BandwidthProfile]] = None,
) -> BandwidthProfile:
    """Highest-rate profile fitting ``link_bitrate`` with ``headroom``.

    Mirrors the configuration window's guidance: pick the profile matching
    the audience's connection, leaving margin for protocol overhead. Falls
    back to the lowest profile when even it exceeds the link (the stream
    will stall — measurably, see bench S2).
    """
    if link_bitrate <= 0:
        raise MediaError("link_bitrate must be positive")
    ladder = sorted(profiles or STANDARD_PROFILES, key=lambda p: p.total_bitrate)
    usable = [p for p in ladder if p.total_bitrate <= link_bitrate * headroom]
    return usable[-1] if usable else ladder[0]
