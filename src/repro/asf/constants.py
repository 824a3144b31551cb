"""Wire-format constants of the ASF-like container.

Real ASF identifies objects with 16-byte GUIDs; this reproduction uses
4-byte ASCII tags (same mechanism, easier to debug in hex dumps). Sizes
and layout conventions are shared by :mod:`repro.asf.header` and
:mod:`repro.asf.packets`.
"""

from __future__ import annotations

# object tags (ASF "GUIDs")
TAG_HEADER = b"HDRO"
TAG_FILE_PROPERTIES = b"FPRP"
TAG_STREAM_PROPERTIES = b"SPRP"
TAG_METADATA = b"META"
TAG_SCRIPT_COMMANDS = b"SCMD"
TAG_DRM = b"DRM1"
TAG_DATA = b"DATA"
TAG_PACKET = b"PKT0"
TAG_INDEX = b"SIDX"

#: Default on-the-wire packet size in bytes (ASF default ballpark).
DEFAULT_PACKET_SIZE = 1_450

#: Default preroll in milliseconds: media a client buffers before playing.
DEFAULT_PREROLL_MS = 3_000

#: Stream number reserved for the script-command stream.
SCRIPT_STREAM_NUMBER = 127

#: Valid media stream numbers (ASF allows 1..127).
MIN_STREAM_NUMBER = 1
MAX_STREAM_NUMBER = 127

# stream type tags
STREAM_TYPE_AUDIO = "audio"
STREAM_TYPE_VIDEO = "video"
STREAM_TYPE_IMAGE = "image"
STREAM_TYPE_COMMAND = "command"

STREAM_TYPES = (
    STREAM_TYPE_AUDIO,
    STREAM_TYPE_VIDEO,
    STREAM_TYPE_IMAGE,
    STREAM_TYPE_COMMAND,
)

#: Header flag bits.
FLAG_BROADCAST = 0x01  # live stream: duration unknown up front
FLAG_SEEKABLE = 0x02  # index present
FLAG_DRM_PROTECTED = 0x04


class ASFError(Exception):
    """Malformed container data or misuse of the container API."""
