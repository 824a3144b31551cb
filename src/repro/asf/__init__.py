"""ASF-like container: header, packets, script commands, index, DRM, encoder."""

from .constants import (
    ASFError,
    DEFAULT_PACKET_SIZE,
    FLAG_BROADCAST,
    FLAG_DRM_PROTECTED,
    FLAG_SEEKABLE,
    SCRIPT_STREAM_NUMBER,
    STREAM_TYPE_AUDIO,
    STREAM_TYPE_COMMAND,
    STREAM_TYPE_IMAGE,
    STREAM_TYPE_VIDEO,
)
from .drm import DRMError, DRMInfo, License, LicenseServer, scramble
from .encoder import ASFEncoder, EncodeCache, EncoderConfig, LiveEncoderSession
from .farm import (
    JOB_AUDIO,
    JOB_IMAGE,
    JOB_VIDEO,
    EncodeFarm,
    EncodeJob,
    FarmError,
    run_encode_job,
)
from .header import FileProperties, HeaderObject, StreamProperties
from .indexer import IndexEntry, SimpleIndex, add_script_commands
from .packets import (
    DataPacket,
    Depacketizer,
    LossReport,
    MediaUnit,
    Packetizer,
    Payload,
    command_from_unit,
    concat_unit_lists,
    units_from_commands,
    units_from_encoded,
)
from .script_commands import (
    STATEFUL_TYPES,
    TYPE_ANNOTATION,
    TYPE_CAPTION,
    TYPE_FILENAME,
    TYPE_SLIDE,
    TYPE_TREE_LEVEL,
    TYPE_URL,
    ScriptCommand,
    ScriptCommandDispatcher,
    slide_commands,
)
from .stream import ASFFile, ASFLiveStream

__all__ = [
    "ASFEncoder", "ASFError", "ASFFile", "ASFLiveStream", "DEFAULT_PACKET_SIZE",
    "DRMError", "DRMInfo", "DataPacket", "Depacketizer", "EncodeCache",
    "EncodeFarm", "EncodeJob", "EncoderConfig", "FarmError",
    "FLAG_BROADCAST", "FLAG_DRM_PROTECTED", "FLAG_SEEKABLE", "FileProperties",
    "HeaderObject", "IndexEntry", "JOB_AUDIO", "JOB_IMAGE", "JOB_VIDEO",
    "License", "LicenseServer",
    "LiveEncoderSession", "LossReport", "MediaUnit", "Packetizer", "Payload",
    "SCRIPT_STREAM_NUMBER", "STATEFUL_TYPES",
    "STREAM_TYPE_AUDIO",
    "STREAM_TYPE_COMMAND", "STREAM_TYPE_IMAGE", "STREAM_TYPE_VIDEO",
    "ScriptCommand", "ScriptCommandDispatcher", "SimpleIndex",
    "StreamProperties", "TYPE_ANNOTATION", "TYPE_CAPTION", "TYPE_FILENAME",
    "TYPE_SLIDE", "TYPE_TREE_LEVEL", "TYPE_URL", "add_script_commands",
    "command_from_unit", "concat_unit_lists", "run_encode_job", "scramble",
    "slide_commands", "units_from_commands", "units_from_encoded",
]
