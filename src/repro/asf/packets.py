"""ASF data packets: payloads, fragmentation, packetizer, depacketizer.

An ASF data section is a sequence of fixed-size packets, each carrying one
or more *payloads*; a payload is a fragment of one media object (an encoded
video frame, audio block, slide blob, or script command). Large objects are
fragmented across packets; small objects share packets. Packets have
constant-rate *send times*, which is how a server paces a stream to the
profile's bitrate.

* :class:`Payload` / :class:`DataPacket` — wire structures (binary
  round-trippable, fixed ``packet_size`` with padding).
* :class:`Packetizer` — multiplexes encoded streams + script commands into
  a paced packet sequence, interleaved by timestamp.
* :class:`Depacketizer` — reassembles objects per stream, tolerating
  packet loss and reporting exactly which objects were lost.
"""

from __future__ import annotations

import itertools
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .constants import (
    ASFError,
    DEFAULT_PACKET_SIZE,
    MAX_STREAM_NUMBER,
    MIN_STREAM_NUMBER,
    SCRIPT_STREAM_NUMBER,
    TAG_PACKET,
)
from .script_commands import ScriptCommand, pack_command, unpack_command
from .wire import Reader

#: payload header: stream, object number, offset, object size, timestamp,
#: keyframe flag, data length; the data follows
_PAYLOAD_HEADER = struct.Struct("<BIIIQBI")
#: packet header: the object wrapper (tag, length) and the packet fields
#: (sequence, packet size, send time, payload count, reserved)
_PACKET_HEADER = struct.Struct("<4sIIIQBH")

#: Fixed per-payload header size on the wire (see Payload.pack).
PAYLOAD_HEADER_SIZE = _PAYLOAD_HEADER.size
#: Fixed per-packet overhead: the 8-byte object wrapper (tag + length)
#: plus the packet header fields (see DataPacket.pack).
PACKET_HEADER_SIZE = _PACKET_HEADER.size

#: length -> the one all-zero ``bytes`` object of that length (DESIGN.md
#: §9): a declared-size unit's data, its fragments, the unit a receiver
#: reassembles from them, and packet padding all hold the same block
_ZERO_BLOCKS: Dict[int, bytes] = {}
#: The longest block the table keeps. The table is never emptied, so it
#: holds the sum of the distinct lengths asked for; fragment and padding
#: lengths stay under the packet size, unit lengths only under the codecs.
#: A declared size over 1 MiB, far above any standard profile's unit, is
#: zeros of its own (cut and joined like real bytes) rather than a block
#: pinned for the life of the process.
ZERO_BLOCK_MAX = 1 << 20


def zero_block(size: int) -> bytes:
    """``size`` zero bytes: the same object on every call, up to
    :data:`ZERO_BLOCK_MAX`."""
    block = _ZERO_BLOCKS.get(size)
    if block is None:
        block = bytes(size)
        if size <= ZERO_BLOCK_MAX:
            _ZERO_BLOCKS[size] = block
    return block


def _is_zero_block(data: bytes) -> bool:
    """``data`` is the table's block for its length: one identity test,
    no byte read. Bytes that merely equal a block (unpacked from a wire
    image, descrambled, ``with_data=True``) are not."""
    return data is _ZERO_BLOCKS.get(len(data))


@dataclass(frozen=True)
class Payload:
    """A fragment of one media object inside a packet.

    ``_shared`` is the reassembly memo: on an offset-0 fragment, ``(the
    object's other fragments in offset order, the MediaUnit they
    reassemble to)``. Receivers fill it
    (:func:`_reassemble`), the :class:`Packetizer` never does; it is not
    on the wire, not compared, not hashed, not pickled, and dies with the
    packet run that holds the fragments.
    """

    stream_number: int
    object_number: int
    offset: int  # byte offset of this fragment within the object
    object_size: int  # total size of the (unfragmented) object
    timestamp_ms: int
    keyframe: bool
    data: bytes
    _shared: Optional[Tuple[Tuple["Payload", ...], "MediaUnit"]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not MIN_STREAM_NUMBER <= self.stream_number <= MAX_STREAM_NUMBER:
            raise ASFError(f"bad stream number {self.stream_number}")
        if self.offset + len(self.data) > self.object_size:
            raise ASFError("payload fragment exceeds object size")

    def __getstate__(self) -> dict:
        # pickle and deepcopy carry the fragment, never the memo: a copy
        # is a different run, and the joined bytes would double the pickle
        state = dict(self.__dict__)
        state.pop("_shared", None)
        return state

    @property
    def is_complete_object(self) -> bool:
        return self.offset == 0 and len(self.data) == self.object_size

    def _head(self) -> bytes:
        """The payload header struct; the fragment's ``data`` follows it."""
        return _PAYLOAD_HEADER.pack(
            self.stream_number,
            self.object_number,
            self.offset,
            self.object_size,
            self.timestamp_ms,
            1 if self.keyframe else 0,
            len(self.data),
        )

    def pack(self) -> bytes:
        return self._head() + self.data

    @classmethod
    def unpack(cls, reader: Reader) -> "Payload":
        stream, number, offset, size, ts, keyframe, length = (
            _PAYLOAD_HEADER.unpack(reader._take(PAYLOAD_HEADER_SIZE))
        )
        data = reader._take(length)
        return cls(stream, number, offset, size, ts, bool(keyframe), data)

    def wire_size(self) -> int:
        return PAYLOAD_HEADER_SIZE + len(self.data)


@dataclass
class DataPacket:
    """One fixed-size packet: sequence number, send time, payloads.

    The wire image is written per call and never kept: :meth:`wire_parts`
    returns the packet header, each payload's header and its own ``data``
    object, then the padding, so the only copy of a fragment a sender
    holds is the payload's. Servers hand these packet objects to their
    sinks and charge ``packet_size`` per send; only a file image, a save
    or a fingerprint writes bytes.

    ``_plan`` is the receive memo: a mark once one receiver reached the
    packet, then the :class:`_ReceivePlan` the next receiver on the shared
    chain built for it. Like ``Payload._shared`` it is not on the wire,
    not compared, not pickled, and dies with the packet run.
    """

    sequence: int
    send_time_ms: int
    payloads: List[Payload] = field(default_factory=list)
    packet_size: int = DEFAULT_PACKET_SIZE
    _plan: object = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        # a copy is a different run: it starts without a receive plan
        state = dict(self.__dict__)
        state.pop("_plan", None)
        return state

    def used(self) -> int:
        return PACKET_HEADER_SIZE + sum(p.wire_size() for p in self.payloads)

    def wire_parts(self) -> List[bytes]:
        """The wire image in order, exactly ``packet_size`` bytes in all:
        the packet header, each payload's header and ``data``, padding."""
        payloads = self.payloads
        count = len(payloads)
        if count > 255:
            raise ASFError(f"packet overflow: {count} payloads > 255")
        size = self.packet_size
        # the object length counts everything after the 8-byte wrapper
        parts = [_PACKET_HEADER.pack(
            TAG_PACKET, size - 8, self.sequence, size, self.send_time_ms, count, 0
        )]
        used = PACKET_HEADER_SIZE + PAYLOAD_HEADER_SIZE * count
        for payload in payloads:
            data = payload.data
            used += len(data)
            parts += (payload._head(), data)
        if used > size:
            raise ASFError(f"packet overflow: {used} > {size}")
        parts.append(zero_block(size - used))
        return parts

    def pack(self) -> bytes:
        return b"".join(self.wire_parts())

    @classmethod
    def unpack_from(cls, reader: Reader) -> "DataPacket":
        tag, length, sequence, packet_size, send_time, count, _ = (
            _PACKET_HEADER.unpack(reader._take(PACKET_HEADER_SIZE))
        )
        if tag != TAG_PACKET:
            raise ASFError(f"expected object {TAG_PACKET!r}, found {tag!r}")
        # the wrapper's length covers the packet fields and the payloads
        fields_size = PACKET_HEADER_SIZE - 8
        if length < fields_size:
            raise ASFError(f"truncated packet: object length {length}")
        r = Reader(reader._take(length - fields_size))
        payloads = [Payload.unpack(r) for _ in range(count)]
        return cls(sequence, send_time, payloads, packet_size)

    @classmethod
    def unpack(cls, data: bytes) -> "DataPacket":
        return cls.unpack_from(Reader(data))


@dataclass(frozen=True)
class MediaUnit:
    """Input to the packetizer / output of the depacketizer."""

    stream_number: int
    object_number: int
    timestamp_ms: int
    keyframe: bool
    data: bytes

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def timestamp(self) -> float:
        return self.timestamp_ms / 1000.0

    def __deepcopy__(self, memo) -> "MediaUnit":
        # frozen: a cloned receiver (MediaPlayer.split_member) shares its
        # units instead of rebuilding every one
        return self


def units_from_encoded(stream_number: int, encoded) -> List[MediaUnit]:
    """Adapt an :class:`~repro.media.codecs.EncodedStream` to media units.

    Units whose codec run skipped payload generation (``data=b""`` but a
    declared size) are *materialized* as the :func:`zero_block` of that
    size, so wire sizes stay honest and every such unit of one size holds
    the same bytes.
    """
    return [
        MediaUnit(
            stream_number,
            u.index,
            round(u.timestamp * 1000),
            u.keyframe,
            u.data or zero_block(u.size),
        )
        for u in encoded.units
    ]


def concat_unit_lists(
    parts: Sequence[Sequence[MediaUnit]], offsets_ms: Sequence[int]
) -> List[MediaUnit]:
    """Concatenate per-segment unit lists onto one presentation timeline.

    Each part's timestamps are shifted by its offset and object numbers are
    renumbered densely across the whole result — the invariant the
    :class:`Depacketizer` loss report relies on. This is how the publish
    pipeline assembles a per-level lecture variant from independently
    encoded (and independently cached) segment streams.
    """
    if len(parts) != len(offsets_ms):
        raise ASFError("concat needs one offset per part")
    out: List[MediaUnit] = []
    number = 0
    for units, offset in zip(parts, offsets_ms):
        for u in units:
            out.append(
                MediaUnit(
                    u.stream_number,
                    number,
                    u.timestamp_ms + offset,
                    u.keyframe,
                    u.data,
                )
            )
            number += 1
    return out


def units_from_commands(commands: Sequence[ScriptCommand]) -> List[MediaUnit]:
    """Script commands as payloads of the reserved command stream."""
    return [
        MediaUnit(SCRIPT_STREAM_NUMBER, i, c.timestamp_ms, True, pack_command(c))
        for i, c in enumerate(sorted(commands))
    ]


def command_from_unit(unit: MediaUnit) -> ScriptCommand:
    if unit.stream_number != SCRIPT_STREAM_NUMBER:
        raise ASFError("not a script-command unit")
    return unpack_command(Reader(unit.data))


class Packetizer:
    """Multiplexes media units into paced, fixed-size packets.

    Two pacing modes:

    * ``"bitrate"`` — constant spacing of ``packet_size·8/bitrate`` between
      send times (live chunks, where timestamps are rebased by the caller);
    * ``"duration"`` — send times spread uniformly across the content's
      timestamp span, so N seconds of media are sent in exactly N seconds
      *including* container overhead — how stored ASF files are paced
      (constant-bitrate pacing would systematically lag by the overhead
      fraction and starve long playbacks).
    """

    def __init__(
        self,
        *,
        packet_size: int = DEFAULT_PACKET_SIZE,
        bitrate: float = 300_000.0,
        pacing: str = "bitrate",
    ) -> None:
        if packet_size <= PACKET_HEADER_SIZE + PAYLOAD_HEADER_SIZE:
            raise ASFError(f"packet size {packet_size} too small to carry data")
        if bitrate <= 0:
            raise ASFError("bitrate must be positive")
        if pacing not in ("bitrate", "duration"):
            raise ASFError(f"unknown pacing mode {pacing!r}")
        self.packet_size = packet_size
        self.bitrate = bitrate
        self.pacing = pacing

    @property
    def packet_interval_ms(self) -> float:
        """Send-time spacing for constant-rate pacing."""
        return self.packet_size * 8 * 1000 / self.bitrate

    def packetize(self, streams: Iterable[Sequence[MediaUnit]]) -> List[DataPacket]:
        """Interleave all units by (timestamp, stream) and pack greedily."""
        units: List[MediaUnit] = []
        for stream_units in streams:
            units.extend(stream_units)
        units.sort(key=lambda u: (u.timestamp_ms, u.stream_number, u.object_number))
        if not units:
            return []

        # one pass: the open packet is its payload list plus the data bytes
        # its next payload may carry, kept as a running count
        capacity = self.packet_size - PACKET_HEADER_SIZE - PAYLOAD_HEADER_SIZE
        payloads: List[Payload] = []
        contents = [payloads]
        space = capacity
        for unit in units:
            data = unit.data
            offset = 0
            total = len(data)
            # a block-backed unit is cut into blocks: no byte is sliced
            zeros = _is_zero_block(data)
            while True:
                # a packet closes when full, or at 255 payloads: the payload
                # count is a u8 on the wire
                if space <= 0 or len(payloads) == 255:
                    payloads = []
                    contents.append(payloads)
                    space = capacity
                if zeros:
                    fragment = zero_block(min(space, total - offset))
                else:
                    fragment = data[offset : offset + space]
                payloads.append(
                    Payload(
                        unit.stream_number,
                        unit.object_number,
                        offset,
                        total,
                        unit.timestamp_ms,
                        unit.keyframe,
                        fragment,
                    )
                )
                offset += len(fragment)
                space -= len(fragment) + PAYLOAD_HEADER_SIZE
                if offset >= total:
                    break

        last = len(contents) - 1
        if self.pacing == "duration" and last:
            # units are sorted by timestamp: the last one carries the span
            max_ts = units[-1].timestamp_ms
            send_times = [round(i * max_ts / last) for i in range(last + 1)]
        else:
            interval = self.packet_interval_ms
            send_times = [round(i * interval) for i in range(last + 1)]
        size = self.packet_size
        return [
            DataPacket(sequence, send_times[sequence], payloads, size)
            for sequence, payloads in enumerate(contents)
        ]


@dataclass
class LossReport:
    """What the depacketizer saw per stream."""

    delivered: Dict[int, int] = field(default_factory=dict)
    lost: Dict[int, List[int]] = field(default_factory=dict)

    def loss_rate(self, stream_number: int) -> float:
        got = self.delivered.get(stream_number, 0)
        missing = len(self.lost.get(stream_number, []))
        total = got + missing
        return missing / total if total else 0.0


def _reassemble(bucket: Dict[int, Payload], last: Payload) -> MediaUnit:
    """The unit a completed ``bucket`` (offset → fragment) reassembles to;
    ``last`` is the fragment that completed it.

    Reassemble once, render many: the server ships the *same* frozen
    fragment objects to every in-process receiver, so the first receiver
    to complete an object leaves its unit on the offset-0 fragment and
    every later receiver whose bucket holds the very same fragment
    objects — checked by identity, every fragment — takes that unit
    instead of joining a private copy. Anything else (packets unpacked
    from bytes, a bucket mixing two generations of a run, overlapping
    fragments) falls through to the join, the one reference path. A join
    whose every part is a :func:`zero_block` joins nothing: it is the
    block of the joined length, cut to the object size as the join is.
    """
    head = bucket.get(0)
    memo = head._shared if head is not None else None
    if memo is not None:
        rest, unit = memo
        if len(rest) + 1 == len(bucket) and all(
            bucket.get(fragment.offset) is fragment for fragment in rest
        ):
            return unit
    parts = [bucket[offset] for offset in sorted(bucket)]
    if all(_is_zero_block(part.data) for part in parts):
        data = zero_block(
            min(sum(len(part.data) for part in parts), last.object_size)
        )
    else:
        data = b"".join(part.data for part in parts)[: last.object_size]
    unit = MediaUnit(
        last.stream_number,
        last.object_number,
        last.timestamp_ms,
        last.keyframe,
        data,
    )
    if (
        parts[0] is head
        and all(
            part.timestamp_ms == last.timestamp_ms
            and part.keyframe == last.keyframe
            and part.object_size == last.object_size
            for part in parts
        )
    ):
        # fragments that agree about their object yield this unit whichever
        # of them arrives last; the latest join wins, so a bucket that mixed
        # in a foreign fragment cannot pin the memo. The head is kept out of
        # its own memo: no reference cycle, the memo is freed with the run
        object.__setattr__(head, "_shared", (tuple(parts[1:]), unit))
    return unit


def _whole_unit(payload: Payload) -> MediaUnit:
    """The unit of an unfragmented object: its data IS the unit, built once
    per payload, not once per receiver."""
    memo = payload._shared
    if memo is not None:
        return memo[1]
    unit = MediaUnit(
        payload.stream_number,
        payload.object_number,
        payload.timestamp_ms,
        payload.keyframe,
        payload.data,
    )
    object.__setattr__(payload, "_shared", ((), unit))
    return unit


#: fragment chain: an object's fragments newest first, as nested
#: ``(payload, older)`` pairs ending in None — appending shares the tail
_Chain = Optional[Tuple[Payload, "_Chain"]]
#: an object in flight: ``(key, chain, bytes held, highest offset)``
_Open = Tuple[Tuple[int, int], _Chain, int, int]


def _bucket(chain: _Chain) -> Dict[int, Payload]:
    """A chain as ``_reassemble``'s bucket (offset → latest fragment)."""
    bucket: Dict[int, Payload] = {}
    while chain is not None:
        payload, chain = chain
        bucket.setdefault(payload.offset, payload)
    return bucket


def _fragment_at(chain: _Chain, offset: int) -> Optional[Payload]:
    while chain is not None:
        payload, chain = chain
        if payload.offset == offset:
            return payload
    return None


def _own(state: Iterable[_Open]) -> Dict[Tuple[int, int], _Open]:
    """A writable copy of a shared state (a plan's ``open``), by key."""
    return {entry[0]: entry for entry in state}


#: state serials of the shared receive chain; 0 names "nothing open"
_serials = itertools.count(1)
#: a memo no payload holds: every follower redoes that completion's join
_NO_MEMO = object()
#: ``DataPacket._plan`` of a packet one receiver has reached
_REACHED = object()


def _receive(
    packet: DataPacket, entries: Dict[tuple, _Open], skip: Optional[_DoneKeys]
) -> Tuple[List[MediaUnit], tuple, int]:
    """The per-payload loop: what ``packet`` does to a receiver whose
    objects in flight are ``entries``, updated in place (O(1) per in-order
    payload, a walk of its object's chain for a repeated offset).

    Returns ``(units, done, suppressed)``: the units the packet completes;
    per unit the recipe ``(head, memo, chain)`` a :class:`_ReceivePlan`
    hands its followers; and how many payloads ``skip`` — the keys of
    completed objects in a ``suppress_completed`` replay — dropped.
    """
    units: List[MediaUnit] = []
    done = []
    suppressed = 0
    for payload in packet.payloads:
        key = (payload.stream_number, payload.object_number)
        if skip is not None and key in skip:
            suppressed += 1
            continue
        entry = entries.pop(key, None)
        if entry is None and payload.is_complete_object:
            # the common case — an unfragmented object in one payload:
            # no chain, no re-sum, no join
            unit = _whole_unit(payload)
            head, memo, chain = payload, payload._shared, None
        else:
            _, chain, have, top = entry or (key, None, 0, -1)
            # running byte count per object instead of re-summing its
            # fragments on every one (quadratic on large objects)
            have += len(payload.data)
            # offsets only grow along an in-order run: a repeat needs a scan
            if payload.offset > top:
                top = payload.offset
            else:
                old = _fragment_at(chain, payload.offset)
                if old is not None:
                    have -= len(old.data)
            chain = (payload, chain)
            if have < payload.object_size:
                entries[key] = (key, chain, have, top)
                continue
            bucket = _bucket(chain)
            unit = _reassemble(bucket, payload)
            head = bucket.get(0)
            memo = head._shared if head is not None else None
            if memo is None or memo[1] is not unit:
                head, memo = payload, _NO_MEMO  # a private join
        units.append(unit)
        done.append((head, memo, chain))
        if skip is not None:
            skip.add(key)
    return units, tuple(done), suppressed


class _ReceivePlan:
    """What one packet does to every receiver whose objects in flight are
    those of state ``prev``: :func:`_receive`, run once for all of them.

    ``done``: per unit the packet completes, ``(head, memo, chain)``. The
    unit is ``memo[1]`` while ``head._shared is memo`` (the reassembly memo
    it came from still holds); otherwise it is re-taken through
    :func:`_reassemble` from ``chain`` (None for an unfragmented object),
    so a follower sees exactly the units the loop would hand it.

    ``open``: the objects still in flight after the packet, a tuple of
    :data:`_Open` entries shared with the plans before this one wherever an
    object did not move. ``serial`` names that state (0 when nothing is
    open): a receiver's place on the chain is a number, not a reference,
    so a run's plans die with the run.
    """

    __slots__ = ("prev", "serial", "done", "open", "__weakref__")

    def __init__(self, packet: DataPacket, prev: int, state: tuple) -> None:
        entries = _own(state)
        _, self.done, _ = _receive(packet, entries, None)
        self.open = tuple(entries.values())
        self.prev = prev
        self.serial = next(_serials) if self.open else 0


def _retake(head: Payload, chain: _Chain) -> MediaUnit:
    """A completion whose memo moved since its plan was built."""
    if chain is None:
        return head._shared[1]
    return _reassemble(_bucket(chain), chain[0])


def _cover(runs: List[int], lo: int, hi: int) -> None:
    """Add ``[lo, hi)`` to sorted, disjoint half-open run bounds
    ``[lo0, hi0, lo1, hi1, ...]``, merging what it overlaps or touches."""
    i = bisect_left(runs, lo)
    j = bisect_right(runs, hi)
    if i & 1:
        i -= 1
        lo = runs[i]
    if j & 1:
        hi = runs[j]
        j += 1
    runs[i:j] = (lo, hi)


def _missing(want: List[int], have: List[int]) -> List[int]:
    """The numbers inside the runs ``want`` and outside the runs ``have``,
    ascending: O(runs + numbers returned)."""
    out: List[int] = []
    j, end = 0, len(have)
    for k in range(0, len(want), 2):
        lo, hi = want[k], want[k + 1]
        while lo < hi:
            while j < end and have[j + 1] <= lo:
                j += 2
            if j < end and have[j] <= lo:
                lo = have[j + 1]
                continue
            stop = min(hi, have[j]) if j < end else hi
            out.extend(range(lo, stop))
            lo = stop
    return out


class _DoneKeys:
    """The ``(stream, object)`` keys of a depacketizer's completed objects,
    read from and added to its object runs: what a ``suppress_completed``
    replay drops (:func:`_receive`)."""

    __slots__ = ("done",)

    def __init__(self, done: Dict[int, List[int]]) -> None:
        self.done = done

    def __contains__(self, key: Tuple[int, int]) -> bool:
        runs = self.done.get(key[0])
        return runs is not None and bool(bisect_right(runs, key[1]) & 1)

    def add(self, key: Tuple[int, int]) -> None:
        stream, number = key
        _cover(self.done.setdefault(stream, []), number, number + 1)


class Depacketizer:
    """Reassembles media units from (possibly lossy) packet arrivals.

    ``on_gap`` (None until a receiver assigns it) fires when an arriving sequence number implies
    earlier packets were skipped, with the sorted list of missing
    sequences — the hook the client's NAK loop
    (:mod:`repro.streaming.recovery`) hangs off.

    Depacketize once per packet run: receivers of the same in-process
    packets share the work a packet causes. :func:`_receive` is the one
    per-payload loop. A packet's first arrival runs it and marks the
    packet; the next arrival in sequence from a shared state (nothing
    open, or the state a plan left) stores its result as the packet's
    :class:`_ReceivePlan`, which every receiver in that state follows in
    O(units). Any other arrival — a loss, a reorder, a replay over open
    objects, suppression of completed objects, a deep-copied or unpickled
    twin — runs the loop on the receiver's own copy of its state, updated
    in place until no object is open. A wire message's packets arrive as
    one train (:meth:`push_train`), and the plans of its in-order run are
    followed in one loop.

    The duplicate filter keeps O(gaps), not O(packets): the sequences seen
    since the last replay are sorted half-open runs ``[lo, hi)``. Every
    arrival above the highest seen (an in-order packet) extends the last
    run or opens one after a gap with no lookup; only a retransmit, a
    repair, a reorder or a replay bisects.

    Loss accounting keeps O(streams + gaps) too: no list of the units
    completed, but per stream the runs of object numbers ever completed,
    the runs every closed delivery window expected, and the open window's
    lowest and highest completed object, each updated as a unit completes
    (:meth:`loss_report`). The units themselves are what :meth:`push_train`
    returns.
    """

    def __init__(self) -> None:
        #: sequences seen since the last replay, as run bounds
        #: ``[lo0, hi0, lo1, hi1, ...]``; the last run ends past the highest
        self._runs: List[int] = []
        self._max_sequence: Optional[int] = None
        self.suppressed_duplicates = 0
        self.on_gap: Optional[Callable[[List[int]], None]] = None
        #: objects in flight: the ``open`` of the plan that left them, named
        #: by ``_serial`` (0 when nothing is open); or, while ``_serial`` is
        #: None, a dict this receiver owns (:func:`_own`)
        self._open = ()
        self._serial: Optional[int] = 0
        #: per stream, the object numbers ever completed as run bounds
        #: ``[lo0, hi0, lo1, hi1, ...]`` (half-open, sorted, disjoint)
        self._done: Dict[int, List[int]] = {}
        #: ``_done`` seen as keys, during a ``suppress_completed`` replay
        self._skip: Optional[_DoneKeys] = None
        #: delivery windows (:meth:`loss_report`): per stream, the runs of
        #: object numbers the closed windows expected; and per stream the
        #: ``[lowest, highest]`` object completed in the open window
        self._expected: Dict[int, List[int]] = {}
        self._span: Dict[int, List[int]] = {}
        #: no replay has closed a window yet
        self._first = True
        #: objects open when the open window began that no arrival in it
        #: has touched: they belong to the windows before
        self._stale: Optional[set] = None
        #: streams the source began mid-window (:meth:`expect_stream`)
        self._late: Tuple[int, ...] = ()

    def __getstate__(self) -> dict:
        # a copy owns copies of its fragments; a serial names nothing there
        state = dict(self.__dict__)
        if self._serial:
            state["_open"], state["_serial"] = _own(self._open), None
        return state

    def expect_replay(self, *, suppress_completed: bool = False) -> None:
        """The source will intentionally re-send earlier packets (a seek):
        forget sequence history so the replay is not dropped as duplicate.

        ``suppress_completed=True`` additionally drops payloads of objects
        already reassembled — used when resuming after a server crash,
        where the replay overlaps content the client has already rendered
        and must not surface twice.

        Either form opens a delivery window (:meth:`loss_report`); a
        player starting mid-file calls it before its first packet.
        """
        expected = self._expected
        for stream, (lo, hi) in self._extent(closing=True).items():
            _cover(expected.setdefault(stream, []), lo, hi + 1)
        self._span = {}
        self._first = False
        if self._serial:
            # stale open objects would seed plans no other receiver shares
            self._open, self._serial = _own(self._open), None
        self._stale = set(self._open) or None
        self._runs.clear()
        self._max_sequence = None
        self._skip = _DoneKeys(self._done) if suppress_completed else None

    def expect_stream(self, stream_number: int) -> None:
        """The source will begin ``stream_number`` mid-window (a downshift's
        lighter rendition): in the first window that stream counts from
        the lowest object that arrives, not from object 0, so content
        nobody asked for is not lost. Later windows count that way for
        every stream already."""
        if stream_number not in self._late:
            self._late = (*self._late, stream_number)

    def push_packet(self, packet: DataPacket) -> List[MediaUnit]:
        """Feed one packet; returns units completed by it (in order). The
        one-packet form of :meth:`push_train`."""
        return self.push_train((packet,))

    def push_train(self, packets: Sequence[DataPacket]) -> List[MediaUnit]:
        """Feed the packets of one wire message, in the order sent (a
        paced train ascends; a relay's catch-up history may hold a repair
        after later sequences); returns the units they complete, in order.

        A packet whose sequence number was already delivered (a retransmit
        or duplicated datagram) is dropped whole — re-pushing it must not
        produce its units twice.

        The common arrival — the next sequence, whose plan was built from
        this receiver's state — is followed here with no per-packet call:
        the last sequence run grows, the plan's state is adopted and its
        completions collected. Every other arrival takes :meth:`_arrive`.
        """
        finished: List[MediaUnit] = []
        highest = self._max_sequence
        # a suppress_completed replay never follows a plan
        serial = self._serial if self._skip is None else None
        followed = None  # the last plan followed, not yet written back
        for packet in packets:
            plan = packet._plan
            if (
                packet.sequence - 1 == highest
                and plan is not None
                and plan is not _REACHED
                and plan.prev == serial
            ):
                highest += 1
                serial = plan.serial
                followed = plan
                for head, memo, chain in plan.done:
                    finished.append(
                        memo[1] if head._shared is memo else _retake(head, chain)
                    )
                continue
            if followed is not None:
                self._follow(followed, highest)
                followed = None
            finished += self._arrive(packet)
            highest = self._max_sequence
            serial = self._serial if self._skip is None else None
        if followed is not None:
            self._follow(followed, highest)
        if finished:
            self._fold(finished)
        return finished

    def _fold(self, units: List[MediaUnit]) -> None:
        """Count completed units into the object runs and the open
        window's span: an in-order unit extends its stream's last run."""
        done, span = self._done, self._span
        for unit in units:
            stream, number = unit.stream_number, unit.object_number
            runs = done.get(stream)
            if runs is None:
                done[stream] = [number, number + 1]
            elif runs[-1] == number:
                runs[-1] = number + 1
            else:
                _cover(runs, number, number + 1)
            bounds = span.get(stream)
            if bounds is None:
                span[stream] = [number, number]
            elif number > bounds[1]:
                bounds[1] = number
            elif number < bounds[0]:
                bounds[0] = number

    def _follow(self, plan: _ReceivePlan, highest: int) -> None:
        """Write back a run of plans followed up to sequence ``highest``:
        each extended the last sequence run by one, ``plan`` is the last."""
        self._runs[-1] = highest + 1
        self._max_sequence = highest
        self._open, self._serial = plan.open, plan.serial

    def _arrive(self, packet: DataPacket) -> List[MediaUnit]:
        """One arrival off the inline path: a first arrival, a plan build,
        a loss, a reorder, a duplicate, a replay or an off-chain receiver."""
        sequence = packet.sequence
        highest = self._max_sequence
        if highest is None or sequence > highest:
            if highest is not None and sequence == highest + 1:
                self._runs[-1] = sequence + 1
            else:
                # nothing above the highest was seen: the gap is all missing
                if highest is not None and self.on_gap is not None:
                    self.on_gap(list(range(highest + 1, sequence)))
                self._runs += (sequence, sequence + 1)
            self._max_sequence = sequence
        elif not self._mark(sequence):
            return []
        serial = self._serial
        plan = packet._plan
        if plan is None:
            # the first arrival only marks the packet: a plan pays off for
            # a packet a second receiver reaches, and a run one receiver
            # plays costs what the loop costs
            packet._plan = _REACHED
        elif serial is not None and self._skip is None:
            if plan is _REACHED and (
                highest is None or sequence == highest + 1
            ):
                # only an unbroken run of arrivals builds: a receiver past
                # a loss or a reorder would build a plan nobody follows
                plan = packet._plan = _ReceivePlan(packet, serial, self._open)
            if plan is not _REACHED and plan.prev == serial:
                self._open, self._serial = plan.open, plan.serial
                return [
                    memo[1] if head._shared is memo else _retake(head, chain)
                    for head, memo, chain in plan.done
                ]
        entries = self._open
        if serial is not None:
            # leaving the chain: the plan's state is copied, not written
            entries = self._open = _own(entries)
        elif self._stale:
            # stale objects are open, so their receiver is off the chain
            self._touch(packet)
        finished, _, suppressed = _receive(packet, entries, self._skip)
        self._serial = None if entries else 0
        self.suppressed_duplicates += suppressed
        return finished

    def _mark(self, sequence: int) -> bool:
        """Add ``sequence``, at or below the highest seen, to the runs;
        False if a run already holds it."""
        runs = self._runs
        i = bisect_right(runs, sequence)
        if i & 1:
            return False
        # runs[i] is the next run's lo: the last run ends past the highest
        after = runs[i] == sequence + 1
        if i and runs[i - 1] == sequence:
            if after:
                del runs[i - 1 : i + 1]
            else:
                runs[i - 1] = sequence + 1
        elif after:
            runs[i] = sequence
        else:
            runs[i:i] = (sequence, sequence + 1)
        return True

    def _touch(self, packet: DataPacket) -> None:
        """Stale objects ``packet`` carries a payload of arrived in the open
        window too; a suppressed payload arrives nowhere."""
        stale, skip = self._stale, self._skip
        for payload in packet.payloads:
            key = (payload.stream_number, payload.object_number)
            if skip is None or key not in skip:
                stale.discard(key)

    def _extent(self, *, closing: bool = False) -> Dict[int, Tuple[int, int]]:
        """The open window's ``{stream: (lo, hi)}``.

        It starts at object 0 if it is the first (unless the stream began
        in it, :meth:`expect_stream`), else at the lowest object completed
        in it: a server resumes at a packet boundary, so the first packets
        may carry the tail of an object the viewer never asked for. It
        ends at the highest object completed in it or, until a replay
        ``closing`` it cuts delivery mid-object, at the highest an arrival
        in it left open.
        """
        first = self._first
        late = self._late
        extent = {
            stream: (0 if first and stream not in late else lo, hi)
            for stream, (lo, hi) in self._span.items()
        }
        if closing:
            return extent
        stale = self._stale or ()
        for key in self._open if self._serial is None else _own(self._open):
            stream, number = key
            if key in stale or not (first or stream in extent):
                continue
            lo, hi = extent.get(stream, (number if stream in late else 0, number))
            extent[stream] = (lo, max(hi, number))
        return extent

    def loss_report(self) -> LossReport:
        """Lost = object numbers inside a delivery window never completed.

        Object numbers are dense per stream, so gaps in a window are
        losses even if no fragment arrived at all. The first window starts
        at object 0, except on a stream begun in it (:meth:`expect_stream`);
        each :meth:`expect_replay` (a seek, a mid-file start, a resume)
        closes one and opens the next (:meth:`_extent`), so content the
        viewer never asked for is not lost.
        """
        expected = {stream: list(runs) for stream, runs in self._expected.items()}
        for stream, (lo, hi) in self._extent().items():
            _cover(expected.setdefault(stream, []), lo, hi + 1)
        report = LossReport()
        for stream, want in expected.items():
            have = self._done.get(stream, [])
            report.delivered[stream] = sum(have[1::2]) - sum(have[::2])
            report.lost[stream] = _missing(want, have)
        return report
