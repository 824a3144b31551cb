"""Media model: synthetic objects, simulated codecs, bandwidth profiles."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "clock": ("ClockError", "PresentationClock"),
    "codecs": (
        "CODEC_REGISTRY", "Codec", "CodecError", "EncodedStream", "EncodedUnit",
        "ImageCodec", "get_codec",
    ),
    "objects": (
        "AnnotationObject", "AudioObject", "Frame", "ImageObject", "MediaError",
        "MediaObject", "MediaType", "VideoObject",
    ),
    "profiles": (
        "PROFILE_BY_NAME", "STANDARD_PROFILES", "BandwidthProfile", "get_profile",
        "select_profile",
    ),
})
