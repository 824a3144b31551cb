"""ASF header objects: file properties, stream properties, metadata.

The header object is everything a client needs before the first data
packet: global file properties (duration, packet size, preroll, flags),
one stream-properties object per stream, a free-form metadata dictionary
(title/author/...), the script-command table
(:mod:`repro.asf.script_commands`) and optional DRM info
(:mod:`repro.asf.drm`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .constants import (
    ASFError,
    DEFAULT_PACKET_SIZE,
    DEFAULT_PREROLL_MS,
    FLAG_BROADCAST,
    FLAG_DRM_PROTECTED,
    MAX_STREAM_NUMBER,
    MIN_STREAM_NUMBER,
    STREAM_TYPES,
    TAG_DRM,
    TAG_FILE_PROPERTIES,
    TAG_HEADER,
    TAG_METADATA,
    TAG_SCRIPT_COMMANDS,
    TAG_STREAM_PROPERTIES,
)
from .drm import DRMInfo
from .script_commands import ScriptCommand, pack_command_table, unpack_command_table
from .wire import Reader, pack_str, pack_u16, pack_u32, pack_u64, write_object


@dataclass
class FileProperties:
    """Global properties of an ASF file/stream."""

    file_id: str
    duration_ms: int = 0
    packet_size: int = DEFAULT_PACKET_SIZE
    preroll_ms: int = DEFAULT_PREROLL_MS
    flags: int = 0

    def __post_init__(self) -> None:
        if self.packet_size < 64:
            raise ASFError("packet size must be at least 64 bytes")
        if self.duration_ms < 0 or self.preroll_ms < 0:
            raise ASFError("durations must be >= 0")

    @property
    def is_broadcast(self) -> bool:
        return bool(self.flags & FLAG_BROADCAST)

    @property
    def is_protected(self) -> bool:
        return bool(self.flags & FLAG_DRM_PROTECTED)

    def pack(self) -> bytes:
        payload = (
            pack_str(self.file_id)
            + pack_u64(self.duration_ms)
            + pack_u32(self.packet_size)
            + pack_u32(self.preroll_ms)
            + pack_u32(self.flags)
        )
        return write_object(TAG_FILE_PROPERTIES, payload)

    @classmethod
    def unpack(cls, payload: bytes) -> "FileProperties":
        r = Reader(payload)
        return cls(
            file_id=r.string(),
            duration_ms=r.u64(),
            packet_size=r.u32(),
            preroll_ms=r.u32(),
            flags=r.u32(),
        )


@dataclass
class StreamProperties:
    """Per-stream description: number, type, codec, bitrate, extras."""

    stream_number: int
    stream_type: str
    codec: str = ""
    bitrate: float = 0.0
    name: str = ""
    extra: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not MIN_STREAM_NUMBER <= self.stream_number <= MAX_STREAM_NUMBER:
            raise ASFError(
                f"stream number {self.stream_number} outside "
                f"{MIN_STREAM_NUMBER}..{MAX_STREAM_NUMBER}"
            )
        if self.stream_type not in STREAM_TYPES:
            raise ASFError(f"unknown stream type {self.stream_type!r}")
        if self.bitrate < 0:
            raise ASFError("bitrate must be >= 0")

    def pack(self) -> bytes:
        payload = (
            pack_u16(self.stream_number)
            + pack_str(self.stream_type)
            + pack_str(self.codec)
            + pack_u64(round(self.bitrate))
            + pack_str(self.name)
            + pack_u16(len(self.extra))
        )
        for key in sorted(self.extra):
            payload += pack_str(key) + pack_str(self.extra[key])
        return write_object(TAG_STREAM_PROPERTIES, payload)

    @classmethod
    def unpack(cls, payload: bytes) -> "StreamProperties":
        r = Reader(payload)
        number = r.u16()
        stream_type = r.string()
        codec = r.string()
        bitrate = float(r.u64())
        name = r.string()
        extra = {}
        for _ in range(r.u16()):
            key = r.string()
            extra[key] = r.string()
        return cls(number, stream_type, codec, bitrate, name, extra)


@dataclass
class HeaderObject:
    """The complete ASF header.

    ``_fingerprint_memo`` is the digest of the last file image taken over
    this header (see :meth:`repro.asf.stream.ASFFile.fingerprint`): the
    header image and packet objects it covered, and the sha1. Like
    ``DataPacket._plan`` it is not on the wire, not compared, not pickled,
    and dies with the header.
    """

    file_properties: FileProperties
    streams: List[StreamProperties] = field(default_factory=list)
    metadata: Dict[str, str] = field(default_factory=dict)
    script_commands: List[ScriptCommand] = field(default_factory=list)
    drm: Optional[DRMInfo] = None
    _fingerprint_memo: Optional[Tuple[bytes, Tuple[object, ...], str]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        # a copy is a header over other packet objects: it starts without
        state = dict(self.__dict__)
        state.pop("_fingerprint_memo", None)
        return state

    def __post_init__(self) -> None:
        numbers = [s.stream_number for s in self.streams]
        if len(numbers) != len(set(numbers)):
            raise ASFError("duplicate stream numbers in header")

    def stream(self, number: int) -> StreamProperties:
        for s in self.streams:
            if s.stream_number == number:
                return s
        raise ASFError(f"no stream number {number}")

    def streams_of_type(self, stream_type: str) -> List[StreamProperties]:
        return [s for s in self.streams if s.stream_type == stream_type]

    def mbr_group(self, group: str = "video") -> List[StreamProperties]:
        """Mutually exclusive multi-bitrate renditions, lowest rate first.

        Empty for single-rate content. A client session receives exactly
        one member of each MBR group (see MediaServer.open_session).
        """
        members = [
            s for s in self.streams if s.extra.get("mbr_group") == group
        ]
        return sorted(members, key=lambda s: int(s.extra.get("mbr_rank", "0")))

    @property
    def total_bitrate(self) -> float:
        return sum(s.bitrate for s in self.streams)

    def pack(self) -> bytes:
        parts = [self.file_properties.pack()]
        parts.extend(s.pack() for s in self.streams)
        meta = pack_u16(len(self.metadata))
        for key in sorted(self.metadata):
            meta += pack_str(key) + pack_str(self.metadata[key])
        parts.append(write_object(TAG_METADATA, meta))
        parts.append(
            write_object(TAG_SCRIPT_COMMANDS, pack_command_table(self.script_commands))
        )
        if self.drm is not None:
            parts.append(write_object(TAG_DRM, self.drm.pack()))
        return write_object(TAG_HEADER, b"".join(parts))

    @classmethod
    def unpack(cls, data: bytes) -> "HeaderObject":
        outer = Reader(data)
        payload = outer.expect_object(TAG_HEADER)
        r = Reader(payload)
        file_properties: Optional[FileProperties] = None
        streams: List[StreamProperties] = []
        metadata: Dict[str, str] = {}
        commands: List[ScriptCommand] = []
        drm: Optional[DRMInfo] = None
        while r.remaining():
            tag, body = r.read_object()
            if tag == TAG_FILE_PROPERTIES:
                file_properties = FileProperties.unpack(body)
            elif tag == TAG_STREAM_PROPERTIES:
                streams.append(StreamProperties.unpack(body))
            elif tag == TAG_METADATA:
                mr = Reader(body)
                for _ in range(mr.u16()):
                    key = mr.string()
                    metadata[key] = mr.string()
            elif tag == TAG_SCRIPT_COMMANDS:
                commands = unpack_command_table(body)
            elif tag == TAG_DRM:
                drm = DRMInfo.unpack(body)
            else:
                # forward compatibility: unknown header objects are skipped
                continue
        if file_properties is None:
            raise ASFError("header missing file-properties object")
        return cls(file_properties, streams, metadata, commands, drm)
