"""The media server — equivalent of Windows Media Services.

Publishes ASF content at named *publishing points* and streams it to
clients over the simulated network:

* **on-demand points** hold a stored :class:`~repro.asf.stream.ASFFile`;
  each client gets its own paced unicast with pause/resume/seek;
* **broadcast points** hold a live :class:`~repro.asf.stream.ASFLiveStream`;
  every attached client receives packets as the encoder emits them
  ("broadcast their encoded content in real time", §2.5).

The serving stack's structural invariant is **encode once, serve many**:

* every publishing point, stored or live, owns exactly one
  :class:`_PointSchedule` — the packet walk, its sequence index and any
  MBR-thinned packet variants are computed once and shared by every
  session; per-session pacing state shrinks to a cursor;
* sessions that start inside one join interval with the same parameters
  ride one :class:`_PacingGroup` — one simulator event per packet train
  paces all of them, instead of one private event chain per client; a
  latecomer is sent the trains it missed at once and joins in progress;
* broadcast delivery is event-driven: the live stream pushes freshly
  encoded packets to the server, which schedules their fan-out at their
  send times — there is no polling pump — and ships each session the
  schedule's entry for its rendition selection;
* **Fast Start is a grant**: whenever a viewer's buffer is empty (play,
  seek, reconnect) the server sends the preroll at whatever the client
  link has to spare — it knows the link and the session's bitrate, the
  client does not (:meth:`MediaServer._grant_fast_start`, DESIGN.md §10).

Control is exposed both as a Python API (used by
:class:`repro.streaming.client.MediaPlayer`) and as HTTP routes on the
server's port (used by the publishing manager) — describe / play / pause /
resume / seek / close. QoS admission per client link uses
:class:`~repro.net.qos.QoSManager` when enabled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..asf.packets import DataPacket
from ..asf.stream import ASFFile, ASFLiveStream
from ..metrics.counters import Counters
from ..net.engine import Simulator
from ..net.qos import QoSError, QoSManager, QoSSpec, Reservation
from ..net.transport import DatagramChannel, Message
from ..web.http import HTTPRequest, HTTPResponse, HTTPServer, VirtualNetwork
from .recovery import NakRequest
from .session import SessionError, SessionState, SessionTable, StreamSession


class PublishError(Exception):
    """Publishing-point misuse."""


#: share of a client link one session may fill — the margin rendition
#: selection, QoS admission and the fast-start grant all leave for
#: protocol overhead and cross traffic
LINK_HEADROOM = 0.9


def _thin(
    packet: DataPacket, excluded: frozenset
) -> Optional[Tuple[DataPacket, int]]:
    """``(packet, wire size)`` as a session withholding ``excluded``
    streams receives it (MBR thinning), or None when the whole packet
    belongs to withheld renditions."""
    if not excluded:
        return packet, packet.packet_size
    kept = [p for p in packet.payloads if p.stream_number not in excluded]
    if not kept:
        return None
    thin = DataPacket(
        packet.sequence, packet.send_time_ms, kept, packet.packet_size
    )
    return thin, thin.used()  # thinned: padding stripped


class _PointSchedule:
    """The shared packet walk of one publishing point, stored or live.

    Holds the point's packet sequence — a stored file's packets, or the
    live stream's own growing list — plus a memo of MBR-thinned packet
    variants keyed by ``(packet index, excluded streams)``: a thinned
    packet is built once and then shipped to every session with the same
    rendition selection (zero-copy fan-out), and a NAK repair re-sends
    that same object.
    """

    def __init__(self, content: Union[ASFFile, ASFLiveStream]) -> None:
        self.packets = content.packets
        self._thinned: Dict[
            Tuple[int, frozenset], Optional[Tuple[DataPacket, int]]
        ] = {}
        self._by_sequence: Dict[int, int] = {}
        self._scanned = 0

    def __len__(self) -> int:
        return len(self.packets)

    def sequence_index(self) -> Dict[int, int]:
        """``sequence -> packet index`` (NAK repair, a relay's duplicate
        drop and hole list), first extended over the packets appended
        since the last lookup (amortized O(1) per live packet).

        The packetizer numbers packets densely, but a packet list that did
        not come from it (hand-built, unpacked from a file, a relay's live
        feed with holes) may not, so this keeps a map rather than assuming
        ``index == sequence``.
        """
        packets = self.packets
        by_sequence = self._by_sequence
        for index in range(self._scanned, len(packets)):
            by_sequence[packets[index].sequence] = index
        self._scanned = len(packets)
        return by_sequence

    def entry(
        self, index: int, excluded: frozenset
    ) -> Optional[Tuple[DataPacket, int]]:
        """``(packet, wire size)`` to ship at ``index``, or None if the
        whole packet belongs to withheld renditions."""
        packet = self.packets[index]
        if not excluded:
            return packet, packet.packet_size
        key = (index, excluded)
        try:
            return self._thinned[key]
        except KeyError:
            result = self._thinned[key] = _thin(packet, excluded)
            return result

    def train(
        self, first: int, end: int, excluded: frozenset
    ) -> Tuple[List[DataPacket], int]:
        """``(packets, wire size)`` of indices ``first:end`` as a session
        withholding ``excluded`` receives them — the :meth:`entry` walk;
        unthinned, a slice of the run itself."""
        if not excluded:
            batch = self.packets[first:end]
            return batch, sum(packet.packet_size for packet in batch)
        batch = []
        wire = 0
        for index in range(first, end):
            entry = self.entry(index, excluded)
            if entry is not None:
                batch.append(entry[0])
                wire += entry[1]
        return batch, wire


class _PacingGroup:
    """Sessions walking one point's schedule in lock-step.

    Members started from the same cursor with the same burst parameters
    inside one join interval (:attr:`MediaServer.join_quantum`), so a
    single event per packet train paces every one of them; a member that
    joined after the first train is caught up on the trains it missed.
    Every fire moves its members' ``packet_cursor`` to the shared cursor,
    so a session that pauses/seeks/closes leaves the group knowing where
    its own walk stands.

    ``replica`` groups carry edge fills: their trains are bounded by
    *send* time (a 64× fill is a handful of big messages); viewer groups
    bound a train by *media* time, so a burst never puts more content
    into one loss unit than real-time pacing does.
    """

    __slots__ = (
        "point", "key", "cursor", "origin", "base_ms",
        "burst_factor", "burst_window_ms", "replica", "members", "handle",
    )

    def __init__(
        self,
        point: str,
        key: tuple,
        cursor: int,
        origin: float,
        base_ms: int,
        burst_factor: float,
        burst_window_ms: float,
        replica: bool,
    ) -> None:
        self.point = point
        self.key = key
        self.cursor = cursor
        self.origin = origin
        self.base_ms = base_ms
        self.burst_factor = burst_factor
        self.burst_window_ms = burst_window_ms
        self.replica = replica
        self.members: Dict[int, StreamSession] = {}
        self.handle: Optional[object] = None

    def effective_offset_ms(self, send_time_ms: int) -> float:
        """Send offset after fast-start burst compression."""
        offset = float(send_time_ms - self.base_ms)
        if self.burst_factor > 1.0:
            if offset <= self.burst_window_ms:
                offset = offset / self.burst_factor
            else:
                offset = (
                    self.burst_window_ms / self.burst_factor
                    + (offset - self.burst_window_ms)
                )
        return offset


@dataclass
class PublishingPoint:
    """A named piece of published content."""

    name: str
    content: Union[ASFFile, ASFLiveStream]
    description: str = ""

    @property
    def broadcast(self) -> bool:
        return isinstance(self.content, ASFLiveStream)

    @property
    def header(self):
        return self.content.header


class MediaServer:
    """Streams publishing points to clients over the virtual network.

    ``pacing_quantum`` (seconds) groups consecutive packets of a shared
    schedule whose send times fall within one window into a single packet
    train — one pacing event and one wire message per session per train.
    ``0.0`` (the default) paces packet-by-packet, exactly like a private
    walk. Pacing groups are the only pacer: every stored-point session
    rides one, alone or with the viewers it joined, and a live point's
    fan-out ships the same schedule entries to every session it feeds.
    """

    def __init__(
        self,
        network: VirtualNetwork,
        host: str,
        *,
        port: int = 8080,
        qos_enabled: bool = False,
        pacing_quantum: float = 0.0,
        tracer=None,
        trace_label: str = "",
    ) -> None:
        if pacing_quantum < 0:
            raise PublishError("pacing_quantum must be >= 0")
        self.network = network
        self.simulator: Simulator = network.simulator
        self.host = network.add_host(host)
        self.port = port
        self.tracer = tracer  # optional repro.obs.Tracer
        #: namespace for trace/QoS identifiers when several servers (an
        #: origin plus edge relays) share one tracer — session ids and QoS
        #: rids are only unique per server, so multi-server audits need it
        self.trace_label = trace_label
        self.points: Dict[str, PublishingPoint] = {}
        self.sessions = SessionTable(tracer=tracer, label=trace_label)
        self.qos_enabled = qos_enabled
        self.pacing_quantum = pacing_quantum
        self._qos: Dict[str, QoSManager] = {}
        self._schedules: Dict[str, _PointSchedule] = {}
        self._groups: Dict[tuple, _PacingGroup] = {}
        self._channels: Dict[int, DatagramChannel] = {}
        self._broadcast_feeds: Dict[str, Callable] = {}
        #: fault state: while crashed the server answers nothing and
        #: delivers nothing (flipped by crash()/restart(), typically via
        #: repro.net.faults)
        self.crashed = False
        self.crash_count = 0
        #: total media bytes shipped over all sessions (egress accounting
        #: for the edge-tier bench: origin egress vs direct fan-out)
        self.bytes_served = 0
        self.recovery_stats = Counters("server-recovery")
        self.http = HTTPServer(network, host, port)
        self._register_routes()

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------

    #: seconds a pacing group stays joinable: a play of the same point
    #: from the same cursor under the same grant that lands in the same
    #: interval of this length joins the group in progress. The origin
    #: merges only plays of one instant; EdgeRelay takes it as an option
    join_quantum = 0.0

    #: trace point.published/point.retired — True at the origin only:
    #: EdgeRelay overrides this to False, so local replica copies coming
    #: and going don't masquerade as authoritative lifecycle events
    _trace_point_lifecycle = True

    def publish(
        self,
        name: str,
        content: Union[ASFFile, ASFLiveStream],
        *,
        description: str = "",
    ) -> PublishingPoint:
        if name in self.points:
            raise PublishError(f"publishing point {name!r} already exists")
        point = PublishingPoint(name, content, description)
        self.points[name] = point
        sched = self._schedules[name] = _PointSchedule(content)
        if point.broadcast:
            # event-driven fan-out: the encoder's append wakes the server,
            # which schedules delivery at each packet's send time — no
            # polling pump, no events while the feed is idle
            feed = functools.partial(self._on_live_packets, name, sched)
            content.subscribe(feed)
            self._broadcast_feeds[name] = feed
            if sched.packets:
                self._on_live_packets(name, sched, sched.packets)
        if self.tracer is not None and self._trace_point_lifecycle:
            self.tracer.event(
                "point.published",
                server=self.trace_label or self.host,
                point=name, broadcast=point.broadcast,
            )
        return point

    def unpublish(self, name: str) -> None:
        point = self._point(name)
        for session in self.sessions.sessions_for_point(name):
            self.close_session(session.session_id)
        feed = self._broadcast_feeds.pop(name, None)
        if feed is not None:
            point.content.unsubscribe(feed)
        del self._schedules[name]
        del self.points[name]
        if self.tracer is not None and self._trace_point_lifecycle:
            self.tracer.event(
                "point.retired",
                server=self.trace_label or self.host,
                point=name,
            )

    def _point(self, name: str) -> PublishingPoint:
        try:
            return self.points[name]
        except KeyError:
            raise PublishError(f"no publishing point {name!r}") from None

    def url_of(self, name: str) -> str:
        """The URL the publishing manager hands to students (Fig. 5)."""
        self._point(name)
        return f"http://{self.host}:{self.port}/lod/{name}"

    # ------------------------------------------------------------------
    # session control (Python API)
    # ------------------------------------------------------------------

    def describe(self, name: str):
        """Header of a publishing point (the DESCRIBE step)."""
        return self._point(name).header

    def _sid(self, session_id: int):
        """Trace-namespaced session identifier (see ``trace_label``)."""
        return self.sessions.trace_id(session_id)

    def open_session(
        self,
        name: str,
        client_host: str,
        deliver: Callable[[List[DataPacket]], None],
        *,
        replica: bool = False,
        multiplicity: int = 1,
    ) -> StreamSession:
        if self.crashed:
            raise SessionError("server is down")
        point = self._point(name)
        session = self.sessions.create(
            name, client_host, deliver, broadcast=point.broadcast,
            replica=replica, multiplicity=multiplicity,
        )
        if not replica:
            # replicas buffer for *their* clients: they must receive the
            # full packet run, so MBR rendition selection is skipped
            self._select_renditions(session, point)
        if self.qos_enabled:
            qos_label = (
                f"{self.trace_label}:{client_host}"
                if self.trace_label else client_host
            )
            manager = self._qos.setdefault(
                client_host,
                QoSManager(
                    self.network.link(self.host, client_host),
                    headroom=LINK_HEADROOM,
                    tracer=self.tracer,
                    label=qos_label,
                ),
            )
            spec = QoSSpec(bandwidth=max(self._session_bitrate(session, point), 1.0))
            try:
                session.reservation = manager.reserve(
                    spec, owner=f"session{session.session_id}"
                )
            except QoSError:
                # failed handshake must not leave a half-open session
                # (nor, trivially, a reservation) behind
                self.sessions.close(session.session_id)
                raise
        return session

    def _select_renditions(self, session: StreamSession, point: PublishingPoint) -> None:
        """Intelligent streaming: pick one MBR video rendition per client.

        The chosen rendition is the highest-rate one that, together with
        the non-MBR streams, fits the client's downlink with 10% headroom;
        the other renditions are withheld (packet thinning).
        """
        header = point.header
        renditions = header.mbr_group("video")
        if not renditions:
            return
        link = self.network.link(self.host, session.client_host)
        other = sum(
            s.bitrate for s in header.streams
            if s.extra.get("mbr_group") != "video"
        )
        budget = link.bandwidth * LINK_HEADROOM - other
        chosen = renditions[0]
        for rendition in renditions:
            if rendition.bitrate <= budget:
                chosen = rendition
        session.selected_video = chosen.stream_number
        session.excluded_streams = frozenset(
            s.stream_number for s in renditions if s is not chosen
        )

    @staticmethod
    def _session_bitrate(session: StreamSession, point: PublishingPoint) -> float:
        return sum(
            s.bitrate for s in point.header.streams
            if s.stream_number not in session.excluded_streams
        )

    def _grant_fast_start(
        self,
        session: StreamSession,
        point: PublishingPoint,
        reason: str,
        window_ms: Optional[float] = None,
    ) -> None:
        """Decide how fast this session's empty buffer may be refilled.

        The one Fast Start policy: a viewer of a stored point gets its
        preroll at the rate the client link can carry — the link's
        bandwidth less the usual headroom, and under QoS admission no
        more than the session's own channel plus what nobody reserved —
        expressed as a multiple of the session's bitrate *after*
        rendition selection. ``window_ms=None`` grants a fresh window of
        one header preroll (play, seek: the buffer is empty); a value
        carries the unspent remainder of an earlier window (resume,
        hand-off: the buffer already holds the rest). Replica fills name
        their own burst in :meth:`play` and are granted none; broadcast
        sessions never get here — nothing is stored to send ahead.
        """
        if session.replica:
            session._burst_factor, session._burst_window_ms = 1.0, 0.0
            return
        if window_ms is None:
            window_ms = float(point.header.file_properties.preroll_ms)
        link = self.network.link(self.host, session.client_host)
        rate = link.bandwidth * LINK_HEADROOM
        if self.qos_enabled:
            own = (
                session.reservation.spec.bandwidth
                if session.reservation is not None else 0.0
            )
            rate = min(rate, own + self._qos[session.client_host].available)
        bitrate = self._session_bitrate(session, point)
        factor = max(1.0, rate / bitrate) if bitrate > 0 else 1.0
        if factor == 1.0:
            window_ms = 0.0  # nothing to spend: one key for every 1× walk
        session._burst_factor = factor
        session._burst_window_ms = window_ms
        if self.tracer is not None:
            self.tracer.event(
                "faststart.grant",
                session=self._sid(session.session_id),
                factor=factor,
                window_ms=window_ms,
                link_bps=link.bandwidth,
                bitrate=bitrate,
                reason=reason,
            )

    def included_streams(self, session_id: int) -> List[int]:
        """Stream numbers this session actually receives."""
        session = self.sessions.get(session_id)
        header = self._point(session.point).header
        return [
            s.stream_number for s in header.streams
            if s.stream_number not in session.excluded_streams
        ]

    def play(
        self,
        session_id: int,
        *,
        start: float = 0.0,
        burst_factor: Optional[float] = None,
        burst_seconds: Optional[float] = None,
    ) -> None:
        """Start (or restart) delivery.

        *Fast start* — Windows Media's "Fast Start" — sends the first
        stretch of content faster than real time so the client fills its
        preroll buffer quickly, then settles to real-time pacing. Left
        alone, the server grants it (:meth:`_grant_fast_start`). An
        explicit ``burst_factor`` is the bare mechanism, for callers that
        drive a session server-side (an edge's replica fill, tests): the
        first ``burst_seconds`` of content (default: the file's preroll)
        go out at ``burst_factor``× the nominal pacing.
        """
        if burst_factor is not None and burst_factor < 1.0:
            raise SessionError("burst_factor must be >= 1")
        if burst_factor is None and burst_seconds is not None:
            raise SessionError("burst_seconds needs an explicit burst_factor")
        session = self.sessions.get(session_id)
        point = self._point(session.point)
        if session.state is SessionState.CONNECTING:
            session.transition(SessionState.STREAMING)
        elif session.state in (SessionState.PAUSED, SessionState.FINISHED):
            session.transition(SessionState.STREAMING)
        if point.broadcast:
            return  # broadcast clients receive the live fan-out's packets
        self._leave_group(session)
        session.position = start
        session.packet_cursor = self._cursor_for(point.content, start)
        if burst_factor is None:
            self._grant_fast_start(session, point, "play")
        else:
            session._burst_factor = burst_factor
            session._burst_window_ms = (
                burst_seconds * 1000.0 if burst_seconds is not None
                else float(point.header.file_properties.preroll_ms)
            )
        self._join_group(session)

    def adopt_session(
        self,
        name: str,
        client_host: str,
        deliver: Callable[[List[DataPacket]], None],
        *,
        cursor: int = 0,
        multiplicity: int = 1,
        burst_window_ms: float = 0.0,
        relocate: Optional[Callable] = None,
        paused: bool = False,
    ) -> StreamSession:
        """Successor side of a warm hand-off: continue another server's
        delivery from an exact packet cursor.

        Unlike :meth:`play`, which anchors at a *position* and (re)sends
        from the nearest index point, adoption resumes at precisely the
        next unsent packet index — the client's buffer already holds
        everything before it, so there is no seek, no replay, and no gap.
        ``burst_window_ms`` is what the predecessor left unspent of the
        session's fast-start window; this server grants its own factor
        over it (its link to the client, not the predecessor's).
        A ``paused`` session is adopted paused at its cursor: it joins no
        pacing group, and its window is granted when it resumes.
        A cursor at/past the end of the schedule adopts straight into
        FINISHED (the predecessor had already delivered everything);
        broadcast sessions just attach to the live fan-out.
        """
        session = self.open_session(
            name, client_host, deliver, multiplicity=multiplicity
        )
        session.relocate = relocate
        point = self._point(name)
        session.transition(SessionState.STREAMING)
        if not point.broadcast:
            sched = self._schedules[name]
            cursor = max(0, min(int(cursor), len(sched.packets)))
            session.packet_cursor = cursor
            if cursor == len(sched.packets):
                session.position = (
                    point.header.file_properties.duration_ms / 1000.0
                )
                session.transition(SessionState.FINISHED)
                return session
            session.position = sched.packets[cursor].send_time_ms / 1000.0
        if paused:
            session._burst_window_ms = burst_window_ms
            session.transition(SessionState.PAUSED)
        elif not point.broadcast:
            if burst_window_ms > 0.0:
                self._grant_fast_start(
                    session, point, "resume", burst_window_ms
                )
            self._join_group(session)
        return session

    def pause(self, session_id: int) -> None:
        session = self.sessions.get(session_id)
        if session.state is SessionState.FINISHED:
            # delivery already completed; the client may still be rendering
            # its buffer, so a pause here is trivially satisfied
            return
        session.transition(SessionState.PAUSED)
        self._leave_group(session)

    def resume(self, session_id: int) -> None:
        session = self.sessions.get(session_id)
        session.transition(SessionState.STREAMING)
        if not session.broadcast:
            if session._burst_window_ms > 0.0 and not session.replica:
                # paused mid-window: the buffer holds what was sent, so
                # only the remainder is still owed at burst speed
                self._grant_fast_start(
                    session, self._point(session.point), "resume",
                    session._burst_window_ms,
                )
            self._join_group(session)

    def seek(self, session_id: int, position: float) -> None:
        session = self.sessions.get(session_id)
        if session.broadcast:
            raise SessionError("cannot seek a broadcast session")
        point = self._point(session.point)
        was_streaming = session.state is SessionState.STREAMING
        self._leave_group(session)
        if session.state is SessionState.FINISHED:
            session.transition(SessionState.STREAMING)
            was_streaming = True
        session.position = position
        session.packet_cursor = self._cursor_for(point.content, position)
        # the client flushes its buffer on a seek: a fresh window, spent
        # now or (seek while paused) when the session resumes
        self._grant_fast_start(session, point, "seek")
        if was_streaming:
            self._join_group(session)

    def close_session(self, session_id: int) -> None:
        session = self.sessions.get(session_id)
        self._leave_group(session)
        self._channels.pop(session_id, None)
        self._release_reservation(session)
        self.sessions.close(session_id)

    def _release_reservation(self, session: StreamSession) -> None:
        """Give back a session's QoS channel — every teardown path (clean
        close, crash, aborted handshake) funnels through here so no
        reservation outlives its session."""
        if session.reservation is not None:
            self._qos[session.client_host].release(session.reservation)
            session.reservation = None

    def qos_leaks(self) -> List[Reservation]:
        """Reservations still held across all client links."""
        return [r for manager in self._qos.values() for r in manager.active()]

    def assert_no_qos_leaks(self) -> None:
        """Raise :class:`QoSError` if any client link still holds a
        reservation — test-suite invariant after every teardown path."""
        for manager in self._qos.values():
            manager.assert_no_leaks()

    # ------------------------------------------------------------------
    # fault hooks (driven by repro.net.faults)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Hard process failure mid-stream.

        Every session dies with the process: pacing chains stop, datagram
        channels vanish, QoS reservations are reclaimed (the reservations
        live in this process — nothing survives to hold them). Clients
        notice only through silence; their watchdog drives reconnection
        after :meth:`restart`.
        """
        if self.crashed:
            return
        self.crashed = True
        self.crash_count += 1
        if self.tracer is not None:
            self.tracer.event(
                "server.crash", host=self.host, sessions=len(self.sessions)
            )
        for session in self.sessions.all():
            self._leave_group(session)
            self._release_reservation(session)
            self.sessions.close(session.session_id)
        self._channels.clear()
        self._groups.clear()

    def restart(self) -> None:
        """Bring the crashed process back with empty session state.

        Published content is durable (stored files on disk, the live feed
        re-attached by the encoder), so points survive; sessions do not —
        clients must reopen.
        """
        self.crashed = False
        if self.tracer is not None:
            self.tracer.event("server.restart", host=self.host)

    # ------------------------------------------------------------------
    # recovery: NAK-driven selective retransmit + graceful degradation
    # ------------------------------------------------------------------

    def _on_recovery_message(self, message: Message) -> None:
        """Receive side of the client's recovery datagram channel."""
        payload = message.payload
        if isinstance(payload, NakRequest):
            self._handle_nak(payload)

    def _handle_nak(self, nak: NakRequest) -> None:
        """Re-send cached packets the client reports missing.

        Repairs reuse the point's :class:`_PointSchedule` entries, stored
        or live — a retransmit costs a lookup and a send of the very
        packet the walk shipped, never a re-encode. Passive by design: no
        server-side timers or per-client loss state, so a loss-free run
        does zero extra work.
        """
        if self.crashed:
            return
        try:
            session = self.sessions.get(nak.session_id)
        except SessionError:
            self.recovery_stats.inc("naks_stale_session")
            return
        if not session.active and session.state is not SessionState.FINISHED:
            # FINISHED sessions still repair: an edge replica that took its
            # whole fill in one burst NAKs the holes *after* delivery ends
            self.recovery_stats.inc("naks_stale_session")
            return
        point = self.points.get(session.point)
        if point is None:
            return
        batch: List[DataPacket] = []
        wire = 0
        for sequence in nak.sequences:
            entry = self._repair_entry(point, session, sequence)
            if entry is None:
                self.recovery_stats.inc("repairs_unavailable")
                continue
            batch.append(entry[0])
            wire += entry[1]
        if batch:
            if self.tracer is not None:
                self.tracer.event(
                    "repair.sent",
                    session=self._sid(session.session_id),
                    count=len(batch),
                    bytes=wire,
                )
            self._send_train(session, batch, wire)
            session.retransmits_sent += len(batch)
            self.recovery_stats.inc("repairs_sent", len(batch))

    def _repair_entry(
        self, point: PublishingPoint, session: StreamSession, sequence: int
    ) -> Optional[Tuple[DataPacket, int]]:
        """Cached ``(packet, wire size)`` for one NAKed sequence."""
        sched = self._schedules[point.name]
        index = sched.sequence_index().get(sequence)
        if index is None:
            return None
        return sched.entry(index, session.excluded_streams)

    def downshift(self, session_id: int) -> Optional[int]:
        """Shift a session one MBR rendition down (graceful degradation).

        Returns the new video stream number, or None when the session is
        single-rate or already at the lowest rendition. The QoS channel is
        re-reserved at the reduced bitrate; if even that is refused the
        session continues best-effort rather than being torn down.
        """
        session = self.sessions.get(session_id)
        point = self._point(session.point)
        renditions = sorted(
            point.header.mbr_group("video"), key=lambda s: s.bitrate
        )
        if not renditions or session.selected_video is None:
            return None
        numbers = [s.stream_number for s in renditions]
        try:
            current = numbers.index(session.selected_video)
        except ValueError:
            return None
        if current == 0:
            return None  # already at the floor
        chosen = renditions[current - 1]
        session.selected_video = chosen.stream_number
        session.excluded_streams = frozenset(
            s.stream_number for s in renditions if s is not chosen
        )
        session.downshifts += 1
        self.recovery_stats.inc("downshifts")
        if self.tracer is not None:
            self.tracer.event(
                "session.downshift",
                session=self._sid(session.session_id),
                video=chosen.stream_number,
            )
        if session.reservation is not None:
            manager = self._qos[session.client_host]
            manager.release(session.reservation)
            session.reservation = None
            spec = QoSSpec(
                bandwidth=max(self._session_bitrate(session, point), 1.0)
            )
            try:
                session.reservation = manager.reserve(
                    spec, owner=f"session{session.session_id}"
                )
            except QoSError:
                pass  # collapsed link may refuse even the floor; run best-effort
        return chosen.stream_number

    # ------------------------------------------------------------------
    # pacing
    # ------------------------------------------------------------------

    @staticmethod
    def _cursor_for(asf: ASFFile, position: float) -> int:
        start_seq = asf.ensure_index().seek(position)
        for i, packet in enumerate(asf.packets):
            if packet.sequence >= start_seq:
                return i
        return len(asf.packets)

    def _carry_window(self, session: StreamSession, base_ms: int) -> None:
        """A walk anchored at ``base_ms`` stops at the session's cursor:
        leave on the session what it has not yet spent of its fast-start
        window, so the next walk continues the burst instead of sending
        a whole new one into a buffer that is already part full."""
        if session._burst_window_ms <= 0.0:
            return
        packets = self._schedules[session.point].packets
        left = 0.0
        if session.packet_cursor < len(packets):
            spent = packets[session.packet_cursor].send_time_ms - base_ms
            left = session._burst_window_ms - spent
        if left <= 0.0:
            session._burst_factor, left = 1.0, 0.0
        session._burst_window_ms = left

    # ------------------------------------------------------------------
    # shared-schedule pacing (encode once, serve many)
    # ------------------------------------------------------------------

    def _join_group(self, session: StreamSession) -> None:
        """Attach a session to the pacing group that started walking its
        point from the same cursor, under the same grant, in this join
        interval — it joins in progress and is caught up on the trains
        already sent — or create the group here, now."""
        sched = self._schedules[session.point]
        burst = session._burst_factor
        window = session._burst_window_ms
        now = self.simulator.now
        quantum = self.join_quantum
        interval = math.floor(now / quantum) if quantum > 0.0 else now
        key = (
            session.point, session.packet_cursor, interval, burst, window,
            session.replica,
        )
        group = self._groups.get(key)
        if group is None:
            if session.packet_cursor < len(sched.packets):
                base_ms = sched.packets[session.packet_cursor].send_time_ms
            else:
                base_ms = 0
            group = _PacingGroup(
                session.point, key, session.packet_cursor, now,
                base_ms, burst, window, session.replica,
            )
            self._groups[key] = group
        elif group.cursor > session.packet_cursor:
            # like a new group's first train, the catch-up leaves after
            # this instant's control reply rather than ahead of it
            self.simulator.schedule_at(
                now, functools.partial(self._catch_up, session, group)
            )
        group.members[session.session_id] = session
        session.pacing_group = group
        if group.handle is None:
            self._schedule_group(group)

    def _catch_up(
        self,
        session: StreamSession,
        group: _PacingGroup,
        stop: Optional[int] = None,
    ) -> None:
        """Join in progress: send a member at once what ``group`` walked
        past before it joined, ``[session.packet_cursor, stop)`` (default:
        the group's cursor), cut where the group cut it — so every message
        is one the session would have received walking alone."""
        if session.pacing_group is not group:
            return  # left before its catch-up was due
        sched = self._schedules[group.point]
        stop = group.cursor if stop is None else stop
        first = session.packet_cursor
        while first < stop:
            end = self._train_end(group, sched.packets, first, stop)
            batch, wire = sched.train(first, end, session.excluded_streams)
            if batch:
                self._send_train(session, batch, wire)
            first = end
        session.packet_cursor = first

    def _train_end(
        self,
        group: _PacingGroup,
        packets: List[DataPacket],
        first: int,
        stop: int,
    ) -> int:
        """End index (at most ``stop``) of ``group``'s train from ``first``.

        A train is one wire message and a link loses a message whole: a
        viewer's train spans at most one quantum of *media* however fast
        it leaves, so a burst never coarsens loss past what NAK repair is
        budgeted for; a replica fill spans a quantum of compressed *send*
        time — few big messages, one arrival each, which its relay's NAK
        rounds wait out before they re-request anything.
        """
        span_ms = group.effective_offset_ms if group.replica else float
        start_ms = span_ms(packets[first].send_time_ms)
        quantum_ms = self.pacing_quantum * 1000.0
        end = first + 1
        while end < stop:
            if span_ms(packets[end].send_time_ms) - start_ms > quantum_ms:
                break
            end += 1
        return end

    def _leave_group(self, session: StreamSession) -> None:
        """Detach a session from its pacing group, if it rides one."""
        group = session.pacing_group
        if group is None:
            return
        session.pacing_group = None
        self._carry_window(session, group.base_ms)
        group.members.pop(session.session_id, None)
        if not group.members:
            if group.handle is not None:
                self.simulator.cancel(group.handle)
                group.handle = None
            self._groups.pop(group.key, None)

    def _schedule_group(self, group: _PacingGroup) -> None:
        sched = self._schedules.get(group.point)
        if sched is None or group.cursor >= len(sched.packets):
            self._finish_group(group)
            return
        packet = sched.packets[group.cursor]
        offset = group.effective_offset_ms(packet.send_time_ms) / 1000.0
        at = group.origin + max(0.0, offset)
        group.handle = self.simulator.schedule_at(
            max(at, self.simulator.now),
            functools.partial(self._fire_group, group),
        )

    def _fire_group(self, group: _PacingGroup) -> None:
        group.handle = None
        sched = self._schedules.get(group.point)
        if sched is None:
            self._groups.pop(group.key, None)
            return  # point unpublished with a fan-out still in flight
        packets = sched.packets
        first = group.cursor
        end = group.cursor = self._train_end(
            group, packets, first, len(packets)
        )
        # one train per rendition selection, shared by its members
        trains: Dict[frozenset, Tuple[List[DataPacket], int]] = {}
        delivered: List[int] = []
        total_wire = 0
        for session in list(group.members.values()):
            if session.state is not SessionState.STREAMING:
                continue
            if session.packet_cursor < first:
                self._catch_up(session, group, first)  # not sent yet
            excluded = session.excluded_streams
            train = trains.get(excluded)
            if train is None:
                train = trains[excluded] = sched.train(first, end, excluded)
            batch, wire = train
            if batch:
                self._send_train(session, batch, wire, traced=False)
                delivered.append(session.session_id)
                total_wire += wire
        if self.tracer is not None and delivered:
            # one record per group fire, not per member — tracing must not
            # reintroduce the O(sessions) per-train work the shared pacing
            # group exists to avoid
            self.tracer.event(
                "packet.train",
                sessions=[self._sid(s) for s in delivered],
                count=end - first,
                bytes=total_wire,
                first_seq=packets[first].sequence,
                last_seq=packets[end - 1].sequence,
            )
        for session in group.members.values():
            session.packet_cursor = group.cursor
        if group.cursor >= len(packets):
            self._finish_group(group)
        else:
            self._schedule_group(group)

    def _finish_group(self, group: _PacingGroup) -> None:
        self._groups.pop(group.key, None)
        if group.handle is not None:
            self.simulator.cancel(group.handle)
            group.handle = None
        for session in list(group.members.values()):
            session.packet_cursor = group.cursor
            session.pacing_group = None
            if session.state is SessionState.STREAMING:
                session.transition(SessionState.FINISHED)
        group.members.clear()

    # ------------------------------------------------------------------
    # broadcast fan-out (event-driven)
    # ------------------------------------------------------------------

    def _on_live_packets(
        self, name: str, sched: _PointSchedule, packets: Sequence[DataPacket]
    ) -> None:
        """Fresh packets from the live encoder — the tail of the schedule's
        list: schedule each fan-out at its send time (immediately for
        overdue packets) in one batch."""
        if self.crashed:
            # the process is down; the encoder's history still accumulates
            # in the live stream, so post-restart NAKs can repair the hole
            return
        now = self.simulator.now
        self.simulator.schedule_batch(
            (
                max(0.0, packet.send_time_ms / 1000.0 - now),
                functools.partial(self._fan_out_live, name, sched, index),
            )
            for index, packet in enumerate(
                packets, len(sched.packets) - len(packets)
            )
        )

    def _fan_out_live(
        self, name: str, sched: _PointSchedule, index: int
    ) -> None:
        if self.crashed:
            return  # fan-out event scheduled before the crash landed
        if self._schedules.get(name) is not sched:
            return  # unpublished (or republished) while the event was in flight
        for session in self.sessions.sessions_for_point(name):
            if session.state is SessionState.STREAMING:
                entry = sched.entry(index, session.excluded_streams)
                if entry is not None:
                    self._send_train(session, [entry[0]], entry[1])

    # ------------------------------------------------------------------
    # the wire
    # ------------------------------------------------------------------

    def _channel_for(self, session: StreamSession) -> DatagramChannel:
        channel = self._channels.get(session.session_id)
        if channel is None:
            link = self.network.link(self.host, session.client_host)
            channel = DatagramChannel(
                link, functools.partial(self._deliver_message, session)
            )
            self._channels[session.session_id] = channel
        return channel

    @staticmethod
    def _deliver_message(session: StreamSession, message: Message) -> None:
        session.deliver(message.payload)  # the train, received as one

    def _send_train(
        self,
        session: StreamSession,
        packets: List[DataPacket],
        wire_size: int,
        traced: bool = True,
    ) -> None:
        """Ship a train as one wire message (one serialization, one arrival).

        ``traced=False`` lets the shared-pacing fan-out emit a single
        aggregated ``packet.train`` record for the whole group instead of
        one per member.
        """
        if traced and self.tracer is not None:
            self.tracer.event(
                "packet.train",
                session=self._sid(session.session_id),
                count=len(packets),
                bytes=wire_size,
                first_seq=packets[0].sequence,
                last_seq=packets[-1].sequence,
            )
        self._channel_for(session).send(Message(packets, wire_size))
        session.packets_sent += len(packets)
        session.bytes_sent += wire_size
        self.bytes_served += wire_size

    # ------------------------------------------------------------------
    # HTTP control plane
    # ------------------------------------------------------------------

    def _register_routes(self) -> None:
        self.http.route("GET", "/lod/", self._handle_describe)
        self.http.route("POST", "/control/", self._handle_control)

    def _handle_describe(self, request: HTTPRequest) -> HTTPResponse:
        if self.crashed:
            return HTTPResponse(503, body="server is down")
        name = request.path[len("/lod/"):]
        if name not in self.points:
            return HTTPResponse(404, body=f"unknown publishing point {name!r}")
        point = self.points[name]
        body = {
            "point": name,
            "broadcast": point.broadcast,
            "header": point.header,
            "description": point.description,
            # nominal content rate — what a relay tree charges against its
            # backbone budget for a fill or live feed over this point
            "bitrate": point.header.total_bitrate,
        }
        if request.query.get("replica") and not point.broadcast:
            # a replica fill needs the content address (cache key) and the
            # exact sequence manifest — sequences are sparse, so a count
            # alone cannot tell a hole from a packetizer gap
            content: ASFFile = point.content
            body["cache_key"] = content.fingerprint()
            body["packet_count"] = content.packet_count
            body["sequences"] = tuple(p.sequence for p in content.packets)
        return HTTPResponse(200, body=body)

    def _open_kwargs(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """Keyword arguments the ``open`` control action forwards to
        :meth:`open_session`. Subclasses extend — the edge relay adds the
        hop-limited fill token a tree fill carries."""
        return {
            "replica": bool(body.get("replica")),
            "multiplicity": int(body.get("multiplicity", 1)),
        }

    def _handle_control(self, request: HTTPRequest) -> HTTPResponse:
        if self.crashed:
            return HTTPResponse(503, body="server is down")
        action = request.path[len("/control/"):]
        body = request.body or {}
        try:
            if action == "open":
                session = self.open_session(
                    body["point"], request.client_host, body["deliver"],
                    **self._open_kwargs(body),
                )
                # how to re-point this client if its session is ever
                # warm-handed to a successor edge (None: crash path only)
                session.relocate = body.get("relocate")
                return HTTPResponse(
                    200,
                    body={
                        "session_id": session.session_id,
                        "streams": self.included_streams(session.session_id),
                        "selected_video": session.selected_video,
                        # reverse datagram path for NAKs — callables ride
                        # response bodies the same way `deliver` rides the
                        # open request
                        "recovery_sink": self._on_recovery_message,
                    },
                )
            if action == "adopt":
                # warm hand-off: the draining edge posts the session
                # cursor here; client_host comes from the body (the
                # *viewer's* host — request.client_host is the edge's)
                session = self.adopt_session(
                    body["point"], body["client_host"], body["deliver"],
                    cursor=int(body.get("cursor", 0)),
                    multiplicity=int(body.get("multiplicity", 1)),
                    burst_window_ms=float(body.get("burst_window_ms", 0.0)),
                    relocate=body.get("relocate"),
                    paused=bool(body.get("paused", False)),
                )
                return HTTPResponse(
                    200,
                    body={
                        "session_id": session.session_id,
                        "trace_session": self._sid(session.session_id),
                        "streams": self.included_streams(session.session_id),
                        "selected_video": session.selected_video,
                        "recovery_sink": self._on_recovery_message,
                    },
                )
            session_id = int(body["session_id"])
            if action == "downshift":
                new_video = self.downshift(session_id)
                return HTTPResponse(
                    200,
                    body={
                        "ok": new_video is not None,
                        "selected_video": self.sessions.get(
                            session_id
                        ).selected_video,
                        "streams": self.included_streams(session_id),
                    },
                )
            if action == "play":
                # only an edge's replica fill names its own burst; what a
                # viewer gets is the server's grant, never the request's
                shape = {}
                if self.sessions.get(session_id).replica:
                    shape = {
                        key: float(body[key])
                        for key in ("burst_factor", "burst_seconds")
                        if key in body
                    }
                self.play(
                    session_id, start=float(body.get("start", 0.0)), **shape
                )
            elif action == "pause":
                self.pause(session_id)
            elif action == "resume":
                self.resume(session_id)
            elif action == "seek":
                self.seek(session_id, float(body["position"]))
            elif action == "close":
                self.close_session(session_id)
            else:
                return HTTPResponse(404, body=f"unknown action {action!r}")
            return HTTPResponse(200, body={"ok": True})
        except (PublishError, SessionError, QoSError, KeyError) as exc:
            return HTTPResponse(409, body=str(exc))
