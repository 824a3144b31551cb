"""The ASF file/stream container: header + data packets + index.

"ASF content can be an .asf file or a live stream generated by Windows
Media Encoder. ASF content that is in the process of being delivered over
a network is called an ASF stream." (§2.1)

:class:`ASFFile` is the stored form — fully binary round-trippable via
:meth:`ASFFile.pack` / :meth:`ASFFile.unpack`, seekable through its
:class:`~repro.asf.indexer.SimpleIndex`. :class:`ASFLiveStream` is the
broadcast form: an incremental packet feed with no known duration and no
index, as produced by the live encoder.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import chain
from operator import is_
from typing import Callable, Iterator, List, Optional, Sequence

from .constants import ASFError, FLAG_SEEKABLE, TAG_DATA
from .header import HeaderObject
from .indexer import SimpleIndex
from .packets import DataPacket, Depacketizer, MediaUnit
from .wire import Reader, pack_u32


@dataclass
class ASFFile:
    """A stored .asf file: header, packets, optional index."""

    header: HeaderObject
    packets: List[DataPacket] = field(default_factory=list)
    index: Optional[SimpleIndex] = None

    @property
    def duration(self) -> float:
        return self.header.file_properties.duration_ms / 1000.0

    @property
    def packet_count(self) -> int:
        return len(self.packets)

    def data_size(self) -> int:
        return sum(p.packet_size for p in self.packets)

    def ensure_index(self, *, interval_ms: int = 1_000) -> SimpleIndex:
        if self.index is None:
            # index against the video stream (ASF simple index semantics);
            # audio-only content falls back to the lowest stream number
            video = self.header.streams_of_type("video")
            reference = video[0].stream_number if video else None
            self.index = SimpleIndex.build(
                self.packets, interval_ms=interval_ms, stream_number=reference
            )
            self.header.file_properties.flags |= FLAG_SEEKABLE
        return self.index

    def with_header(self, header: HeaderObject) -> "ASFFile":
        """A new file of ``header`` over this file's packet run.

        The new file gets a list of its own holding the same packet
        objects and this file's index (``header`` is marked seekable to
        match). Only for a header that differs from this one in what the
        packets never read: file id, title, author.
        """
        if self.index is not None:
            header.file_properties.flags |= FLAG_SEEKABLE
        return ASFFile(header=header, packets=list(self.packets), index=self.index)

    def packed_packets(self) -> List[bytes]:
        """Wire image of every packet, one ``bytes`` per packet.

        Written per call and never kept: every byte is a fresh copy of
        the fragments, so callers that need only sizes should use
        :meth:`data_size` (every packet is ``packet_size`` on the wire).
        """
        return [p.pack() for p in self.packets]

    def _packet_parts(self) -> Iterator[bytes]:
        return chain.from_iterable(map(DataPacket.wire_parts, self.packets))

    def fingerprint(self) -> str:
        """Content address of this file's wire image (header + packets).

        Stable across processes (sha1 over packed bytes, not object ids),
        so an edge cache keyed by fingerprint recognizes a re-encoded or
        re-transferred copy of the same content. The digest follows the
        run, not the file: it is memoized on the header, beside the header
        image and the packet objects it covered (one reference each, so a
        packet freed and replaced by a new one at its address cannot
        match). Any file over that header reuses it while the header packs
        to the same image and its packets are those very objects — a
        relay's fill assembles the origin's packets under the origin's
        header, so its integrity check hashes nothing. Any other packet
        object, or a header changed since, hashes the whole image again;
        the bytes hashed are not kept.
        """
        header = self.header
        image = header.pack()
        packets = self.packets
        memo = header._fingerprint_memo
        if memo is not None:
            memo_image, run, digest = memo
            if (
                memo_image == image
                and len(run) == len(packets)
                and all(map(is_, run, packets))
            ):
                return digest
        digest = hashlib.sha1(
            b"".join(chain((image,), self._packet_parts()))
        ).hexdigest()
        header._fingerprint_memo = (image, tuple(packets), digest)
        return digest

    def units(self) -> List[MediaUnit]:
        """Reassemble every media unit (lossless local read)."""
        depacketizer = Depacketizer()
        units: List[MediaUnit] = []
        for packet in self.packets:
            units += depacketizer.push_packet(packet)
        return units

    # ------------------------------------------------------------------
    # binary round trip
    # ------------------------------------------------------------------

    def _image(self) -> Iterator[bytes]:
        # header, the data object's tag, length and packet count, every
        # packet's parts, the index: each fragment appears once, as itself
        head = (
            self.header.pack(),
            TAG_DATA,
            pack_u32(4 + self.data_size()),
            pack_u32(len(self.packets)),
        )
        tail = () if self.index is None else (self.index.pack(),)
        return chain(head, self._packet_parts(), tail)

    def pack(self) -> bytes:
        return b"".join(self._image())

    @classmethod
    def unpack(cls, data: bytes) -> "ASFFile":
        reader = Reader(data)
        # header parses from its own slice: find its extent first
        start = reader.pos
        tag, payload = reader.read_object()
        if tag != b"HDRO":
            raise ASFError(f"not an ASF file (leading object {tag!r})")
        header = HeaderObject.unpack(data[start : reader.pos])
        data_payload = reader.expect_object(TAG_DATA)
        dr = Reader(data_payload)
        count = dr.u32()
        packets = [DataPacket.unpack_from(dr) for _ in range(count)]
        index = None
        if reader.remaining():
            index = SimpleIndex.unpack_from(reader)
        return cls(header=header, packets=packets, index=index)

    @classmethod
    def load(cls, path: str) -> "ASFFile":
        with open(path, "rb") as fh:
            return cls.unpack(fh.read())


class ASFLiveStream:
    """A broadcast ASF stream: header first, then an unbounded packet feed.

    Consumers :meth:`subscribe` a callback; every :meth:`append` pushes the
    new packets to all subscribers immediately, no polling, and
    :attr:`packets` holds the feed so far for a late joiner.
    """

    def __init__(self, header: HeaderObject) -> None:
        if not header.file_properties.is_broadcast:
            raise ASFError("live stream requires the broadcast flag")
        self.header = header
        self._packets: List[DataPacket] = []
        self.closed = False
        self._subscribers: List[Callable[[Sequence[DataPacket]], None]] = []

    def append(self, packets: Sequence[DataPacket]) -> None:
        if self.closed:
            raise ASFError("stream already closed")
        self._packets.extend(packets)
        if packets:
            for callback in list(self._subscribers):
                callback(packets)

    def subscribe(
        self, callback: Callable[[Sequence[DataPacket]], None]
    ) -> Callable[[Sequence[DataPacket]], None]:
        """Push every future :meth:`append` batch to ``callback``."""
        self._subscribers.append(callback)
        return callback

    def unsubscribe(
        self, callback: Callable[[Sequence[DataPacket]], None]
    ) -> None:
        if callback in self._subscribers:
            self._subscribers.remove(callback)

    @property
    def packets(self) -> Sequence[DataPacket]:
        """Everything appended so far, in order: the stream's own list,
        not a copy, so indexing a long feed costs O(1). Never mutate it."""
        return self._packets

    def close(self) -> None:
        self.closed = True

    @property
    def available(self) -> int:
        return len(self._packets)
