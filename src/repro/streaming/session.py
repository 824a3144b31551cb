"""Server-side client sessions.

One :class:`StreamSession` per connected client: which publishing point it
watches, delivery mode (on-demand vs broadcast), pacing state, and QoS
reservation. :class:`SessionTable` is the server's registry with lifecycle
and accounting.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..asf.packets import DataPacket
from ..net.qos import Reservation


class SessionState(enum.Enum):
    CONNECTING = "connecting"
    STREAMING = "streaming"
    PAUSED = "paused"
    FINISHED = "finished"
    CLOSED = "closed"


class SessionError(Exception):
    """Lifecycle misuse of a streaming session."""


#: legal state transitions
_TRANSITIONS = {
    SessionState.CONNECTING: {SessionState.STREAMING, SessionState.CLOSED},
    SessionState.STREAMING: {
        SessionState.PAUSED,
        SessionState.FINISHED,
        SessionState.CLOSED,
    },
    SessionState.PAUSED: {SessionState.STREAMING, SessionState.CLOSED},
    SessionState.FINISHED: {SessionState.CLOSED, SessionState.STREAMING},
    SessionState.CLOSED: set(),
}


@dataclass
class StreamSession:
    """One client's attachment to a publishing point."""

    session_id: int
    point: str
    client_host: str
    broadcast: bool
    deliver: Callable[[List[DataPacket]], None]
    state: SessionState = SessionState.CONNECTING
    position: float = 0.0  # media seconds already dispatched (on-demand)
    packet_cursor: int = 0
    reservation: Optional[Reservation] = None
    packets_sent: int = 0
    bytes_sent: int = 0
    #: fast start: packets due within the window go out ``_burst_factor``×
    #: faster (1.0 = real-time pacing). The server grants both; leaving a
    #: pacing walk writes the window's *unspent remainder* back here, so a
    #: resume or hand-off continues the burst instead of restarting it
    _burst_factor: float = 1.0
    _burst_window_ms: float = 0.0
    #: shared-schedule pacing group this session currently rides (server-owned)
    pacing_group: Optional[object] = None
    #: stream numbers withheld from this client (MBR renditions not chosen)
    excluded_streams: frozenset = frozenset()
    #: the MBR video stream chosen for this client (None = single-rate)
    selected_video: Optional[int] = None
    #: graceful-degradation shifts applied to this session
    downshifts: int = 0
    #: packets re-sent in answer to client NAKs
    retransmits_sent: int = 0
    #: True when the downstream is an edge relay filling its buffer, not a
    #: viewer: rendition selection is skipped so the replica gets the full
    #: packet run (an edge thins per *its own* clients, not per itself)
    replica: bool = False
    #: modeled viewers behind this session. 1 for a real client; a load
    #: cohort's delegate session carries the cohort size, so traces and
    #: hand-offs can report modeled audience without per-viewer sessions.
    #: Delivery and QoS stay 1× — one carrier stream feeds the cohort.
    multiplicity: int = 1
    #: client-side relocation callback for warm hand-off: a draining edge
    #: invokes it with the successor's coordinates after the successor
    #: adopted this session (None: client falls back to the crash path)
    relocate: Optional[Callable[[dict], None]] = field(
        default=None, repr=False, compare=False
    )
    #: registry hook: notified after every state change (set by SessionTable)
    _observer: Optional[Callable[["StreamSession"], None]] = field(
        default=None, repr=False, compare=False
    )

    def transition(self, new_state: SessionState) -> None:
        if new_state not in _TRANSITIONS[self.state]:
            raise SessionError(
                f"session {self.session_id}: cannot go {self.state.value} "
                f"-> {new_state.value}"
            )
        self.state = new_state
        if self._observer is not None:
            self._observer(self)

    @property
    def active(self) -> bool:
        return self.state in (SessionState.STREAMING, SessionState.PAUSED)


class SessionTable:
    """Registry of live sessions on a media server."""

    def __init__(self, *, tracer=None, label: str = "") -> None:
        #: trace namespace: with several servers sharing one tracer (origin
        #: plus edge relays) session ids would collide in the audit, so a
        #: labeled table emits "label:id" session attrs instead of raw ints
        self.label = label
        self._sessions: Dict[int, StreamSession] = {}
        #: point name -> {session_id: session}; closed sessions are removed,
        #: so per-point lookups never scan the whole table
        self._by_point: Dict[str, Dict[int, StreamSession]] = {}
        #: sessions currently STREAMING or PAUSED, kept current by the
        #: transition observer — active_sessions() never scans the table
        self._active: Dict[int, StreamSession] = {}
        self._ids = itertools.count(1)
        self.total_created = 0
        self.tracer = tracer  # optional repro.obs.Tracer

    def trace_id(self, session_id: int):
        """The session attr value trace records carry for ``session_id``."""
        return f"{self.label}:{session_id}" if self.label else session_id

    def create(
        self,
        point: str,
        client_host: str,
        deliver: Callable[[List[DataPacket]], None],
        *,
        broadcast: bool,
        replica: bool = False,
        multiplicity: int = 1,
    ) -> StreamSession:
        if multiplicity < 1:
            raise SessionError(f"multiplicity must be >= 1, got {multiplicity}")
        session = StreamSession(
            session_id=next(self._ids),
            point=point,
            client_host=client_host,
            broadcast=broadcast,
            deliver=deliver,
            replica=replica,
            multiplicity=multiplicity,
        )
        self._sessions[session.session_id] = session
        self._by_point.setdefault(point, {})[session.session_id] = session
        session._observer = self._track_state
        self.total_created += 1
        if self.tracer is not None:
            attrs = dict(
                session=self.trace_id(session.session_id),
                point=point,
                client=client_host,
                broadcast=broadcast,
            )
            if multiplicity > 1:
                attrs["multiplicity"] = multiplicity
            if replica:
                attrs["replica"] = True
            self.tracer.event("session.open", **attrs)
        return session

    def _track_state(self, session: StreamSession) -> None:
        if session.active:
            self._active[session.session_id] = session
        else:
            self._active.pop(session.session_id, None)

    def get(self, session_id: int) -> StreamSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise SessionError(f"no session {session_id}") from None

    def close(self, session_id: int) -> StreamSession:
        session = self.get(session_id)
        if session.state is not SessionState.CLOSED:
            session.transition(SessionState.CLOSED)
        del self._sessions[session_id]
        bucket = self._by_point.get(session.point)
        if bucket is not None:
            bucket.pop(session_id, None)
            if not bucket:
                del self._by_point[session.point]
        if self.tracer is not None:
            self.tracer.event(
                "session.close",
                session=self.trace_id(session_id),
                point=session.point,
                packets_sent=session.packets_sent,
                bytes_sent=session.bytes_sent,
            )
        return session

    def active_sessions(self) -> List[StreamSession]:
        """STREAMING/PAUSED sessions — indexed, not a table scan."""
        return list(self._active.values())

    def all(self) -> List[StreamSession]:
        """Every registered session regardless of state."""
        return list(self._sessions.values())

    def sessions_for_point(self, point: str) -> List[StreamSession]:
        """Sessions attached to ``point`` — indexed, not a table scan."""
        return list(self._by_point.get(point, {}).values())

    def __len__(self) -> int:
        return len(self._sessions)

    def assert_consistent(self) -> None:
        """Audit the three indexes against each other.

        Raises :class:`SessionError` if any closed session is still
        registered, the active index disagrees with session state, or the
        per-point buckets drifted from the main table — the leak classes
        that `close()` on every teardown path must prevent.
        """
        problems: List[str] = []
        for sid, session in self._sessions.items():
            if session.state is SessionState.CLOSED:
                problems.append(f"closed session {sid} still in table")
            if session.active and sid not in self._active:
                problems.append(f"active session {sid} missing from index")
            bucket = self._by_point.get(session.point, {})
            if sid not in bucket:
                problems.append(
                    f"session {sid} missing from point bucket {session.point!r}"
                )
        for sid, session in self._active.items():
            if sid not in self._sessions:
                problems.append(f"active index has unregistered session {sid}")
            elif not session.active:
                problems.append(
                    f"active index has {session.state.value} session {sid}"
                )
        for point, bucket in self._by_point.items():
            if not bucket:
                problems.append(f"empty bucket left for point {point!r}")
            for sid in bucket:
                if sid not in self._sessions:
                    problems.append(
                        f"point bucket {point!r} holds unregistered session {sid}"
                    )
        if problems:
            raise SessionError(
                "session table inconsistent: " + "; ".join(problems)
            )
