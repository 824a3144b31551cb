"""ASF indexing — seekability plus the "ASF Indexer" utility of §2.1.

Two roles, mirroring the Microsoft tooling the paper cites:

* :class:`SimpleIndex` — the time→packet table appended to stored files so
  players can seek ("mandatory for seekable files"): one entry per fixed
  time interval pointing at the packet carrying the nearest earlier
  keyframe.
* :func:`add_script_commands` — the command-line "ASF Indexer" workflow:
  add script commands to an already-stored file (the paper's way of
  annotating recorded lectures after the fact). Returns a new
  :class:`~repro.asf.stream.ASFFile` with the merged command table.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .constants import ASFError, TAG_INDEX
from .packets import DataPacket
from .script_commands import ScriptCommand
from .wire import Reader, pack_u32, pack_u64, write_object


@dataclass(frozen=True)
class IndexEntry:
    """One index row: presentation time → packet sequence number."""

    time_ms: int
    packet_sequence: int


@dataclass
class SimpleIndex:
    """Fixed-interval time index over a packet sequence."""

    interval_ms: int = 1_000
    entries: List[IndexEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.interval_ms <= 0:
            raise ASFError("index interval must be positive")

    @classmethod
    def build(
        cls,
        packets: Sequence[DataPacket],
        *,
        interval_ms: int = 1_000,
        stream_number: Optional[int] = None,
    ) -> "SimpleIndex":
        """Index keyframe positions at each interval boundary.

        Indexing follows one *reference stream* (ASF's simple index is
        per-video-stream): ``stream_number``, defaulting to the lowest
        stream number present. For each interval start t, the entry points
        at the **first** packet carrying the start of the latest reference
        keyframe with timestamp ≤ t (or packet 0). Keying on one stream
        matters: a slide image at the same timestamp can span many packets,
        and indexing its tail would make seek skip the video in front of it.
        """
        index = cls(interval_ms=interval_ms)
        if stream_number is None:
            present = {
                p.stream_number for packet in packets for p in packet.payloads
            }
            if not present:
                return index
            stream_number = min(present)
        keyframe_packet: dict = {}  # timestamp_ms -> first packet sequence
        max_ts = 0
        for packet in packets:
            for payload in packet.payloads:
                max_ts = max(max_ts, payload.timestamp_ms)
                if (
                    payload.stream_number == stream_number
                    and payload.keyframe
                    and payload.offset == 0
                    and payload.timestamp_ms not in keyframe_packet
                ):
                    keyframe_packet[payload.timestamp_ms] = packet.sequence
        keyframes = sorted(keyframe_packet.items())
        times = [k[0] for k in keyframes]
        t = 0
        while t <= max_ts:
            pos = bisect.bisect_right(times, t) - 1
            packet_seq = keyframes[pos][1] if pos >= 0 else 0
            index.entries.append(IndexEntry(t, packet_seq))
            t += interval_ms
        return index

    def seek(self, seconds: float) -> int:
        """Packet sequence number to start reading from for time ``seconds``."""
        if not self.entries:
            return 0
        target = round(seconds * 1000)
        pos = min(target // self.interval_ms, len(self.entries) - 1)
        return self.entries[max(0, pos)].packet_sequence

    def pack(self) -> bytes:
        payload = pack_u32(self.interval_ms) + pack_u32(len(self.entries))
        for entry in self.entries:
            payload += pack_u64(entry.time_ms) + pack_u32(entry.packet_sequence)
        return write_object(TAG_INDEX, payload)

    @classmethod
    def unpack_from(cls, reader: Reader) -> "SimpleIndex":
        payload = reader.expect_object(TAG_INDEX)
        r = Reader(payload)
        interval = r.u32()
        count = r.u32()
        entries = [IndexEntry(r.u64(), r.u32()) for _ in range(count)]
        return cls(interval_ms=interval, entries=entries)


def add_script_commands(asf_file, commands: Sequence[ScriptCommand]):
    """The "ASF Indexer" post-processing step: merge ``commands`` into a
    stored file's command table (header only — stored files dispatch from
    the table; live streams interleave commands as data payloads).

    Returns a new file object; the input is not mutated.
    """
    from .stream import ASFFile  # local import to avoid a cycle

    if asf_file.header.file_properties.is_broadcast:
        raise ASFError("cannot post-index a live (broadcast) stream")
    merged = sorted(list(asf_file.header.script_commands) + list(commands))
    header = type(asf_file.header)(
        file_properties=asf_file.header.file_properties,
        streams=list(asf_file.header.streams),
        metadata=dict(asf_file.header.metadata),
        script_commands=merged,
        drm=asf_file.header.drm,
    )
    return ASFFile(header=header, packets=list(asf_file.packets), index=asf_file.index)
