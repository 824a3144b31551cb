"""Media model: synthetic objects, simulated codecs, bandwidth profiles."""

from .clock import ClockError, PresentationClock
from .codecs import (
    CODEC_REGISTRY,
    Codec,
    CodecError,
    EncodedStream,
    EncodedUnit,
    ImageCodec,
    get_codec,
)
from .objects import (
    AnnotationObject,
    AudioObject,
    Frame,
    ImageObject,
    MediaError,
    MediaObject,
    MediaType,
    VideoObject,
)
from .profiles import (
    PROFILE_BY_NAME,
    STANDARD_PROFILES,
    BandwidthProfile,
    get_profile,
    select_profile,
)

__all__ = [
    "AnnotationObject", "AudioObject", "BandwidthProfile", "CODEC_REGISTRY",
    "ClockError", "Codec", "CodecError", "EncodedStream", "EncodedUnit",
    "Frame", "ImageCodec", "ImageObject", "MediaError", "MediaObject",
    "MediaType", "PROFILE_BY_NAME", "PresentationClock", "STANDARD_PROFILES",
    "VideoObject", "get_codec", "get_profile", "select_profile",
]
