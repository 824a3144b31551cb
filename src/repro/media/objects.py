"""Synthetic media objects — the substitution for real capture devices.

The paper's system encodes "a media file (video/audio) or … attached
devices (video camera or microphone)". Offline we model media as typed
descriptors plus deterministic synthetic sample generators: what matters
downstream (codecs, packetization, streaming, synchronization) is the
*timing and size* of the data, not the pixels. Every generator is seeded,
so whole-pipeline tests are reproducible byte-for-byte.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Iterator, Optional


class MediaType(enum.Enum):
    VIDEO = "video"
    AUDIO = "audio"
    IMAGE = "image"
    TEXT = "text"
    ANNOTATION = "annotation"


class MediaError(Exception):
    """Invalid media parameters."""


def _pseudo_bytes(seed: str, index: int, size: int) -> bytes:
    """Deterministic pseudo-random payload of ``size`` bytes.

    SHA-256 in counter mode — cheap, dependency-free, and stable across
    runs/platforms, which the container round-trip tests rely on.
    """
    out = bytearray()
    counter = 0
    while len(out) < size:
        block = hashlib.sha256(
            f"{seed}:{index}:{counter}".encode("ascii")
        ).digest()
        out.extend(block)
        counter += 1
    return bytes(out[:size])


@dataclass(frozen=True)
class MediaObject:
    """Base descriptor: a named piece of media with a playout duration."""

    name: str
    duration: float

    def __post_init__(self) -> None:
        if not self.name:
            raise MediaError("media object needs a name")
        if self.duration <= 0:
            raise MediaError(f"{self.name!r}: duration must be positive")

    @property
    def media_type(self) -> MediaType:  # pragma: no cover - abstract
        raise NotImplementedError

    def raw_size(self) -> int:  # pragma: no cover - abstract
        """Uncompressed size in bytes."""
        raise NotImplementedError


@dataclass(frozen=True)
class Frame:
    """One raw video frame (or one encoded unit, after a codec ran)."""

    index: int
    timestamp: float
    size: int
    keyframe: bool = True
    data: bytes = b""


@dataclass(frozen=True)
class VideoObject(MediaObject):
    """A synthetic video: resolution, frame rate, 24-bit RGB raw frames."""

    width: int = 320
    height: int = 240
    fps: float = 25.0
    seed: str = "video"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.width <= 0 or self.height <= 0:
            raise MediaError(f"{self.name!r}: bad resolution")
        if self.fps <= 0:
            raise MediaError(f"{self.name!r}: fps must be positive")

    @property
    def media_type(self) -> MediaType:
        return MediaType.VIDEO

    @property
    def frame_count(self) -> int:
        return max(1, round(self.duration * self.fps))

    @property
    def frame_size(self) -> int:
        return self.width * self.height * 3

    def raw_size(self) -> int:
        return self.frame_count * self.frame_size

    def frames(self, *, with_data: bool = False) -> Iterator[Frame]:
        """Raw frame sequence with exact timestamps."""
        for i in range(self.frame_count):
            data = _pseudo_bytes(self.seed, i, self.frame_size) if with_data else b""
            yield Frame(i, i / self.fps, self.frame_size, keyframe=True, data=data)

    def cut(
        self, start: float, duration: float, *, name: Optional[str] = None
    ) -> "VideoObject":
        """A contiguous sub-clip ``[start, start + duration)`` as its own object.

        The derived seed depends only on the source seed and the window, so
        equal windows of equal sources compare (and hash) equal — the
        content-addressing property segment-level encode reuse keys on.
        """
        if start < 0 or duration <= 0 or start + duration > self.duration + 1e-9:
            raise MediaError(
                f"{self.name!r}: cut [{start:g}, {start + duration:g}) outside "
                f"[0, {self.duration:g})"
            )
        return VideoObject(
            name=name or f"{self.name}[{start:g}+{duration:g}]",
            duration=duration,
            width=self.width,
            height=self.height,
            fps=self.fps,
            seed=f"{self.seed}@{start:g}+{duration:g}",
        )


@dataclass(frozen=True)
class AudioObject(MediaObject):
    """Synthetic PCM audio."""

    sample_rate: int = 22_050
    channels: int = 1
    sample_width: int = 2  # bytes per sample
    seed: str = "audio"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.sample_rate <= 0 or self.channels <= 0 or self.sample_width <= 0:
            raise MediaError(f"{self.name!r}: bad audio parameters")

    @property
    def media_type(self) -> MediaType:
        return MediaType.AUDIO

    @property
    def byte_rate(self) -> int:
        return self.sample_rate * self.channels * self.sample_width

    def raw_size(self) -> int:
        return round(self.duration * self.byte_rate)

    def cut(
        self, start: float, duration: float, *, name: Optional[str] = None
    ) -> "AudioObject":
        """A contiguous sub-track ``[start, start + duration)`` (see
        :meth:`VideoObject.cut` for the content-addressing contract)."""
        if start < 0 or duration <= 0 or start + duration > self.duration + 1e-9:
            raise MediaError(
                f"{self.name!r}: cut [{start:g}, {start + duration:g}) outside "
                f"[0, {self.duration:g})"
            )
        return AudioObject(
            name=name or f"{self.name}[{start:g}+{duration:g}]",
            duration=duration,
            sample_rate=self.sample_rate,
            channels=self.channels,
            sample_width=self.sample_width,
            seed=f"{self.seed}@{start:g}+{duration:g}",
        )

    def blocks(self, *, block_duration: float = 0.1, with_data: bool = False) -> Iterator[Frame]:
        """PCM blocks of ``block_duration`` seconds (last may be shorter)."""
        if block_duration <= 0:
            raise MediaError("block_duration must be positive")
        total = self.raw_size()
        block_size = round(block_duration * self.byte_rate)
        index, offset = 0, 0
        while offset < total:
            size = min(block_size, total - offset)
            data = _pseudo_bytes(self.seed, index, size) if with_data else b""
            yield Frame(index, offset / self.byte_rate, size, keyframe=True, data=data)
            offset += size
            index += 1


@dataclass(frozen=True)
class ImageObject(MediaObject):
    """A presentation slide: a still image displayed for ``duration``."""

    width: int = 1024
    height: int = 768
    seed: str = "image"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.width <= 0 or self.height <= 0:
            raise MediaError(f"{self.name!r}: bad resolution")

    @property
    def media_type(self) -> MediaType:
        return MediaType.IMAGE

    def raw_size(self) -> int:
        return self.width * self.height * 3

    def data(self) -> bytes:
        return _pseudo_bytes(self.seed, 0, self.raw_size())


@dataclass(frozen=True)
class AnnotationObject(MediaObject):
    """A teacher's annotation/comment on the current slide."""

    text: str = ""

    @property
    def media_type(self) -> MediaType:
        return MediaType.ANNOTATION

    def raw_size(self) -> int:
        # text + the four floats of the slide region it is drawn over
        return len(self.text.encode("utf-8")) + 4 * 8
