"""ASF-like container: header, packets, script commands, index, DRM, encoder."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "constants": (
        "ASFError", "DEFAULT_PACKET_SIZE", "FLAG_BROADCAST", "FLAG_DRM_PROTECTED",
        "FLAG_SEEKABLE", "SCRIPT_STREAM_NUMBER", "STREAM_TYPE_AUDIO",
        "STREAM_TYPE_COMMAND", "STREAM_TYPE_IMAGE", "STREAM_TYPE_VIDEO",
    ),
    "drm": ("DRMError", "DRMInfo", "License", "LicenseServer", "scramble"),
    "encoder": ("ASFEncoder", "EncodeCache", "EncoderConfig", "LiveEncoderSession"),
    "farm": (
        "JOB_AUDIO", "JOB_IMAGE", "JOB_VIDEO", "EncodeFarm", "EncodeJob",
        "FarmError", "run_encode_job",
    ),
    "header": ("FileProperties", "HeaderObject", "StreamProperties"),
    "indexer": ("IndexEntry", "SimpleIndex", "add_script_commands"),
    "packets": (
        "DataPacket", "Depacketizer", "LossReport", "MediaUnit", "Packetizer",
        "Payload", "command_from_unit", "concat_unit_lists",
        "units_from_commands", "units_from_encoded",
    ),
    "script_commands": (
        "STATEFUL_TYPES", "TYPE_ANNOTATION", "TYPE_CAPTION", "TYPE_FILENAME",
        "TYPE_SLIDE", "TYPE_TREE_LEVEL", "TYPE_URL", "ScriptCommand",
        "ScriptCommandDispatcher", "slide_commands",
    ),
    "stream": ("ASFFile", "ASFLiveStream"),
})
