"""The media player — "the browser with the windows media services".

:class:`MediaPlayer` connects to a publishing point, prebuffers the
header's preroll, renders media units against a presentation clock, and
fires script commands (slide changes, annotations) at their timestamps —
the paper's synchronized video + slides playback (Fig. 7).

Everything measurable about playback lands in a :class:`PlaybackReport`:
startup latency, rebuffer count/time, per-stream loss, a fixed-size digest
of what rendered (:class:`RenderDigest`), and per-slide synchronization
error (the distance between the media position when the slide actually
changed and the timestamp the orchestrator asked for).

Two synchronization modes exist for the ablation benches:

* ``"script"`` (the paper's design) — commands fire off the *media clock*,
  so stalls shift slides and video together;
* ``"timer"`` (the strawman) — commands fire off a wall-clock timer started
  at playback begin, so every stall desynchronizes slides from video.
"""

from __future__ import annotations

import copy
import enum
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Collection, Dict, List, Optional, Set, Tuple
from urllib.parse import urlparse

from ..asf.constants import DEFAULT_PREROLL_MS, SCRIPT_STREAM_NUMBER
from ..asf.drm import DRMError, License, LicenseServer, scramble
from ..asf.header import HeaderObject
from ..asf.packets import DataPacket, Depacketizer, MediaUnit, command_from_unit
from ..asf.script_commands import ScriptCommand, ScriptCommandDispatcher
from ..media.clock import PresentationClock, media_ms, media_ms_each
from ..metrics.counters import Counters
from ..net.engine import EventHandle, SharedTicker, Simulator
from ..net.transport import DatagramChannel, Message
from ..web.http import HTTPClient, HTTPError, VirtualNetwork
from .buffer import JitterBuffer
from .recovery import NAK_WIRE_SIZE, NakRequest, RecoveryClient, RecoveryConfig


class PlayerError(Exception):
    """Connection/rendering misuse."""


class PlayerState(enum.Enum):
    IDLE = "idle"
    CONNECTING = "connecting"
    BUFFERING = "buffering"
    PLAYING = "playing"
    PAUSED = "paused"
    FINISHED = "finished"


class RenderDigest:
    """What a player rendered, folded to a fixed size.

    ``count`` units, the ``first`` and ``last`` as ``(wall time, media
    timestamp ms)``, and ``value``: a running hash over every unit's
    ``(wall time, position, stream, object, timestamp)`` in render order.
    Two playbacks that render the same units at the same instants and
    positions have equal digests. The hash folds tuples of ints and floats
    only, so it is the same in every run of one interpreter whatever
    ``PYTHONHASHSEED`` is; it may differ between Python versions, so
    digests are compared between runs, never against a stored value. A
    traced player writes a ``render.run`` record per stream for each tick
    or settle that rendered it, not one per unit.
    """

    __slots__ = ("count", "first", "last", "value")

    def __init__(self) -> None:
        self.count = 0
        self.first: Optional[Tuple[float, int]] = None
        self.last: Optional[Tuple[float, int]] = None
        self.value = 0

    def add(self, wall_time: float, position: float, unit: MediaUnit) -> None:
        """Fold one unit rendered at ``wall_time`` with the playhead at
        ``position``."""
        ts = unit.timestamp_ms
        self.last = (wall_time, ts)
        if not self.count:
            self.first = self.last
        self.count += 1
        self.value = hash((
            self.value, wall_time, position,
            unit.stream_number, unit.object_number, ts,
        ))

    def copy(self) -> "RenderDigest":
        other = type(self).__new__(type(self))
        other.count, other.first = self.count, self.first
        other.last, other.value = self.last, self.value
        return other

    def _key(self) -> tuple:
        return (self.count, self.first, self.last, self.value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RenderDigest):
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return (
            f"RenderDigest(count={self.count}, first={self.first}, "
            f"last={self.last}, value={self.value})"
        )


@dataclass
class FiredCommand:
    """A script command the player executed."""

    wall_time: float
    position: float
    command: ScriptCommand

    @property
    def sync_error(self) -> float:
        """|media position at firing − commanded timestamp| in seconds."""
        return abs(self.position - self.command.timestamp)


@dataclass
class PlaybackReport:
    """Everything measured during one playback."""

    point: str
    startup_latency: float
    rebuffer_count: int
    rebuffer_time: float
    digest: RenderDigest
    commands: List[FiredCommand]
    loss_rates: Dict[int, float]
    duration_watched: float
    #: media-stream bytes reassembled end to end (delivery-ratio numerator)
    media_bytes: int = 0
    #: recovery counters (NAKs, repairs, reconnects, downshifts...)
    recovery: Dict[str, int] = field(default_factory=dict)
    #: downshift timeline: (position seconds, new video stream) per shift
    downshifts: List[Tuple[float, Optional[int]]] = field(default_factory=list)

    @property
    def max_command_sync_error(self) -> float:
        return max((c.sync_error for c in self.commands), default=0.0)

    @property
    def mean_command_sync_error(self) -> float:
        if not self.commands:
            return 0.0
        return sum(c.sync_error for c in self.commands) / len(self.commands)

    def slide_changes(self) -> List[FiredCommand]:
        return [c for c in self.commands if c.command.type == "SLIDE"]


#: states in which a render tick does nothing
_NOT_RENDERING = (PlayerState.PAUSED, PlayerState.FINISHED, PlayerState.IDLE)

#: a sleeping player wakes this many seconds before the first instant at
#: which its tick could change something: it covers the half millisecond
#: media_ms rounds by, and float error many orders smaller
_WAKE_SLACK = 0.002


class MediaPlayer:
    """A streaming client on one host of the virtual network."""

    RENDER_TICK = 0.05
    UNDERRUN_MARGIN = 0.05

    def __init__(
        self,
        network: VirtualNetwork,
        host: str,
        *,
        user: str = "",
        license_server: Optional[LicenseServer] = None,
        sync_mode: str = "script",
        preroll_override: Optional[float] = None,
        recovery: Optional[RecoveryConfig] = None,
        directory=None,
        tracer=None,
        multiplicity: int = 1,
        render_ticker=None,
    ) -> None:
        if sync_mode not in ("script", "timer"):
            raise PlayerError(f"unknown sync mode {sync_mode!r}")
        if multiplicity < 1:
            raise PlayerError(f"multiplicity must be >= 1, got {multiplicity}")

        self.network = network
        self.simulator: Simulator = network.simulator
        self.host = network.add_host(host)
        self.user = user or host
        self.tracer = tracer  # optional repro.obs.Tracer
        self._playback_span: Optional[int] = None
        self.license_server = license_server
        self.sync_mode = sync_mode
        self.preroll_override = preroll_override
        #: optional repro.streaming.edge.EdgeDirectory — when set, every
        #: reconnect re-resolves the serving URL, so a crashed edge relay
        #: re-routes the player to a surviving one
        self.directory = directory
        #: modeled viewers this player stands for — a cohort delegate in
        #: the load harness carries the cohort size; the server records it
        #: on the session for audience accounting, delivery stays 1×
        self.multiplicity = multiplicity
        #: optional repro.net.engine.SharedTicker — when set, the render
        #: loop registers on it, so thousands of players share one
        #: simulator event per tick; else on a private one of its own
        self._render_ticker = render_ticker
        self.http = HTTPClient(network, host)

        self.state = PlayerState.IDLE
        self.header: Optional[HeaderObject] = None
        #: the header's content duration in seconds (0: none, e.g. live)
        self._duration = 0.0
        self.session_id: Optional[int] = None
        self._server_url: Optional[str] = None
        self._point: Optional[str] = None
        self._broadcast = False
        self._license: Optional[License] = None
        self._depacketizer = Depacketizer()
        self._buffer = JitterBuffer()
        self._clock = PresentationClock()
        self._dispatcher: Optional[ScriptCommandDispatcher] = None
        #: this player's slot on its render ticker
        self._render_task: Optional[Any] = None
        #: skipped by the ticker until a wake-up instant (see _sleep)
        self._asleep = False
        #: play(start > 0) owes one stateful-command catch-up at render start
        self._pending_catchup = False
        self._media_streams: List[int] = []
        self.selected_video: Optional[int] = None
        self._timer_commands: List[ScriptCommand] = []
        self._timer_cursor = 0
        self._timer_origin: Optional[float] = None

        # metrics
        self._digest = RenderDigest()
        #: media-stream bytes reassembled so far (PlaybackReport.media_bytes)
        self._media_bytes = 0
        self.fired: List[FiredCommand] = []
        self._connect_time: Optional[float] = None
        self._first_render: Optional[float] = None
        self.rebuffer_count = 0
        self.rebuffer_time = 0.0
        self._stall_started: Optional[float] = None
        self._stall_is_underrun = False
        self._start_position = 0.0
        self._stream_ended = False
        #: (position seconds, new video stream) per accepted downshift
        self.downshift_log: List[Tuple[float, Optional[int]]] = []

        # recovery (opt-in: None keeps the seed's fire-and-forget behavior
        # and schedules not a single extra simulator event)
        self.recovery_config = recovery
        self.recovery_stats = Counters("player-recovery")
        self._recovery: Optional[RecoveryClient] = None
        self._nak_channel: Optional[DatagramChannel] = None
        self._recovery_sink = None  # server's NAK receiver (from "open")
        self._reconnecting = False
        self._reconnect_attempts = 0
        self._reconnect_timer: Optional[EventHandle] = None
        #: sessions opened so far: a reconnect opens one (see _overtaken)
        self._opens = 0
        #: a user control's round trip is in progress (see _issue)
        self._in_control = False
        #: old (server url, session id) pairs whose close was swallowed by
        #: a partition — that server still thinks they stream (and holds
        #: their QoS channels), so every later attempt retries the close
        #: until one lands. Keyed by URL: after a directory re-route the
        #: orphan lives on the *old* edge, and session ids are only unique
        #: per server, so closing a bare id elsewhere could kill an
        #: innocent session
        self._orphan_sessions: List[Tuple[str, int]] = []
        #: streams granted by a downshift but not yet seen on the wire —
        #: excluded from buffer-depth accounting until data arrives, so a
        #: shift doesn't instantly register as an underrun
        self._pending_streams: Set[int] = set()

    # ------------------------------------------------------------------
    # connection
    # ------------------------------------------------------------------

    @property
    def preroll(self) -> float:
        if self.preroll_override is not None:
            return self.preroll_override
        if self.header is None:
            return DEFAULT_PREROLL_MS / 1000.0
        return self.header.file_properties.preroll_ms / 1000.0

    @property
    def position(self) -> float:
        return self._clock.media_time(self.simulator.now)

    def connect(self, url: str) -> HeaderObject:
        """DESCRIBE: fetch the header of ``url`` (…/lod/<point>)."""
        if self.state is not PlayerState.IDLE:
            raise PlayerError("player already connected")
        self.state = PlayerState.CONNECTING
        self._connect_time = self.simulator.now
        try:
            response = self.http.get(url)
        except HTTPError:
            # an unreachable server must not wedge the player in
            # CONNECTING: the caller may retry against another edge
            self.state = PlayerState.IDLE
            raise
        if not response.ok:
            self.state = PlayerState.IDLE
            raise PlayerError(f"describe failed: {response.status} {response.body}")
        body = response.body
        self.header = body["header"]
        self._duration = self.header.file_properties.duration_ms / 1000.0
        self._point = body["point"]
        self._broadcast = bool(body.get("broadcast"))
        base = url.rsplit("/lod/", 1)[0]
        self._server_url = base
        if self.header.file_properties.is_protected:
            self._acquire_license()
        self._select_streams()
        commands = list(self.header.script_commands)
        self._dispatcher = ScriptCommandDispatcher(commands, self._on_command_fired)
        self._timer_commands = sorted(commands)
        return self.header

    def _acquire_license(self) -> None:
        if self.license_server is None:
            raise DRMError(
                "content is DRM-protected and the player has no license server"
            )
        assert self.header is not None and self.header.drm is not None
        self._license = self.license_server.acquire(
            self.header.drm.content_id, self.user
        )

    def _select_streams(self, included: Optional[Collection[int]] = None) -> None:
        """Buffer-depth accounting covers the header's media streams —
        under MBR only those the server actually sends this session
        (``included``). Always recomputed from the header, so a reconnect
        after a downshift starts clean."""
        assert self.header is not None
        self._wake()
        self._media_streams = [
            s.stream_number
            for s in self.header.streams
            if s.stream_type in ("video", "audio")
            and (included is None or s.stream_number in included)
        ]

    def _control(self, action: str, **fields) -> Any:
        assert self._server_url is not None
        response = self.http.post(f"{self._server_url}/control/{action}", body=fields)
        if not response.ok:
            raise PlayerError(f"{action} failed: {response.status} {response.body}")
        if action == "open":
            self._opens += 1
            self.session_id = response.body["session_id"]
            self._recovery_sink = response.body.get("recovery_sink")
            included = response.body.get("streams")
            if included is not None:
                self._select_streams(included)
                self.selected_video = response.body.get("selected_video")
            self._pending_streams.clear()
        return response.body

    def play(self, *, start: float = 0.0) -> None:
        """Open a session and begin buffering from ``start`` seconds.

        How fast the preroll arrives is the server's call: it grants
        fast start from the headroom of this client's link.
        """
        if self.header is None:
            raise PlayerError("connect() first")
        if self.state is not PlayerState.CONNECTING:
            raise PlayerError(f"cannot play from state {self.state.value}")
        if self.tracer is not None and self._playback_span is None:
            self._playback_span = self.tracer.begin(
                "playback", client=self.user, point=self._point
            )
        if start > 0:
            # loss counts from the first object delivered, not from 0
            self._depacketizer.expect_replay()
        self._open_and_play(start)
        self.state = PlayerState.BUFFERING
        self._start_position = start
        self._pending_catchup = start > 0
        self._arm_recovery()
        self._start_render_loop()

    def _open_and_play(
        self, start: Optional[float], *, announce: bool = True
    ) -> None:
        """Open a session on the current server and start its delivery.

        ``start`` is the media position to deliver from. ``None`` resumes
        a player that already holds content (reconnect, reconnect-style
        split) at its buffered frontier: the replay overlaps delivered
        content at the boundary and the depacketizer drops whatever is
        already reassembled. A live feed has one position — it is just
        (re)attached, and the sequence gap across an outage drives NAK
        repair of whatever the feed sent meanwhile.
        """
        self._control(
            "open", point=self._point, deliver=self._on_train,
            multiplicity=self.multiplicity, relocate=self._on_relocate,
        )
        if announce and self.tracer is not None:
            self.tracer.event(
                "session.attach",
                span=self._playback_span,
                client=self.user,
                session=self.session_id,
            )
        if start is None and self._broadcast:
            start = 0.0
        elif start is None:
            start = self._reconnect_position()
            self._depacketizer.expect_replay(suppress_completed=True)
        self._control("play", session_id=self.session_id, start=start)

    def _start_render_loop(self) -> None:
        ticker = self._render_ticker
        if ticker is None:
            ticker = SharedTicker(self.simulator, self.RENDER_TICK)
        self._render_task = ticker.register(self._render_tick)

    # ------------------------------------------------------------------
    # recovery plumbing (NAKs, watchdog, reconnection, degradation)
    # ------------------------------------------------------------------

    def _arm_recovery(self) -> None:
        """Wire the NAK loop and watchdog to the current session.

        Costs no simulator events by itself: the NAK timer only exists
        while gaps are outstanding, and the watchdog is polled from the
        render tick the player already runs.
        """
        if self.recovery_config is None or self._recovery_sink is None:
            return
        if self._nak_channel is None:
            server_host = urlparse(self._server_url).hostname
            link = self.network.link(self.host, server_host)
            self._nak_channel = DatagramChannel(link, self._recovery_sink)
        else:
            self._nak_channel.on_receive = self._recovery_sink
        if self._recovery is None:
            self._recovery = RecoveryClient(
                self.simulator,
                self.recovery_config,
                send_nak=self._send_nak,
                runway=self._recovery_runway,
                on_downshift=self._request_downshift,
                counters=self.recovery_stats,
                tracer=self.tracer,
            )
        self._depacketizer.on_gap = self._on_sequence_gap
        self._recovery.note_arrival()

    def _send_nak(self, sequences: Tuple[int, ...]) -> None:
        if self._nak_channel is None or self.session_id is None:
            return
        self._nak_channel.send(
            Message(NakRequest(self.session_id, tuple(sequences)), NAK_WIRE_SIZE)
        )

    def _on_sequence_gap(self, missing: List[int]) -> None:
        if self._recovery is None or self._reconnecting:
            return
        self._recovery.observe_gaps(missing)

    def _recovery_runway(self) -> float:
        """Buffered seconds ahead of the playhead — the recovery window.

        While the clock is stopped (buffering, paused) no deadline is
        approaching, so the window is unconditionally open.
        """
        if self.state is not PlayerState.PLAYING:
            return float("inf")
        return self._buffer.depth(self.position, self._media_streams)

    def _reconnect_position(self) -> float:
        """Where to resume after a reconnect: the buffered frontier.

        Everything up to min(per-stream horizons) was already delivered —
        asking the server to replay from there keeps continuity with the
        playhead without re-downloading delivered content.
        """
        base = self.position if self._clock.started else self._start_position
        frontier = self._buffer.runway_ms(0, self._media_streams)
        if frontier is not None:
            base = max(base, frontier / 1000.0)
        return base

    def _resolve_placement(self) -> None:
        """Re-ask the edge directory where this client should be served.

        A crashed or full edge re-routes the player to the next ring
        node; when the target changes, the NAK channel is dropped so the
        next :meth:`_arm_recovery` rebuilds it toward the new host.
        Placement failures (every edge down) become :class:`PlayerError`
        so the reconnect backoff keeps retrying them.
        """
        if self.directory is None or self._point is None:
            return
        try:
            url = self.directory.url_for(self.host, self._point)
        except Exception as exc:
            raise PlayerError(f"placement failed: {exc}") from exc
        base = url.rsplit("/lod/", 1)[0]
        if base != self._server_url:
            self.recovery_stats.inc("reroutes")
            if self.tracer is not None:
                self.tracer.event(
                    "playback.reroute",
                    span=self._playback_span,
                    client=self.user,
                    target=base,
                )
            self._server_url = base
            self._nak_channel = None  # points at the old server's link

    def _close_orphans(self) -> None:
        """Retry closing sessions stranded on this or previous servers."""
        for url, orphan in list(self._orphan_sessions):
            try:
                # direct post, not _control: the orphan must be closed on
                # the server it lives on, not the current target. Any
                # answer settles it — non-OK means the session is already
                # gone (crash wiped it)
                self.http.post(
                    f"{url}/control/close", body={"session_id": orphan}
                )
                self._orphan_sessions.remove((url, orphan))
            except HTTPError:
                if url == self._server_url:
                    # the current target is unreachable: the open below
                    # would fail too, so surface it to the backoff loop
                    raise
                # an *old* edge being down must not block re-routing to a
                # live one; keep the orphan for a later sweep

    def _on_relocate(self, notice: Dict[str, Any]) -> None:
        """A draining edge warm-handed our session to a successor.

        Modeled as a control-plane callback riding the open body, the
        same way ``deliver`` and ``recovery_sink`` ride request/response
        bodies: the old edge invokes it only *after* the successor has
        adopted the session at the exact packet cursor. The player just
        re-points its control/NAK plumbing — the jitter buffer, clock,
        and playhead are untouched, so a planned drain costs no seek, no
        replay, and ~0 rebuffer.
        """
        if self.state in (PlayerState.IDLE, PlayerState.FINISHED):
            return
        if self._reconnecting:
            # a hand-off racing our own stall recovery: ignore the notice
            # and let the reconnect loop re-resolve placement itself (the
            # drained edge closes the old session either way)
            return
        self._wake()
        self._server_url = notice["url"]
        self.session_id = notice["session_id"]
        self._recovery_sink = notice.get("recovery_sink")
        self._nak_channel = None  # pointed at the drained edge's link
        included = notice.get("streams")
        if included is not None and self.header is not None:
            self._select_streams(included)
            self.selected_video = notice.get("selected_video")
        self._pending_streams.clear()
        self.recovery_stats.inc("handoffs")
        if self.tracer is not None:
            self.tracer.event(
                "playback.handoff",
                span=self._playback_span,
                client=self.user,
                target=self._server_url,
                session=self.session_id,
            )
        if self._recovery is not None:
            # a transfer is not a stall: restart the watchdog clock so the
            # successor gets a full silence window before suspicion
            self._recovery.note_arrival()
        self._arm_recovery()

    def _begin_reconnect(self, now: float) -> None:
        """The watchdog fired: delivery stalled (crash or partition)."""
        self.recovery_stats.inc("stalls_detected")
        if self.tracer is not None:
            self.tracer.event(
                "playback.stall",
                span=self._playback_span,
                client=self.user,
                position=self.position,
            )
        self._reconnecting = True
        self._reconnect_attempts = 0
        if self._recovery is not None:
            self._recovery.reset()  # in-flight NAKs are moot
        if self.state is PlayerState.PLAYING:
            self._enter_rebuffer(now)
        # the handshake blocks: it runs once the render tick is done
        self._render_task.after_tick(self._attempt_reconnect)

    def _attempt_reconnect(self) -> None:
        """Close whatever is left of the old session, reopen, resume.

        Runs after the render tick that detected the stall (see
        :meth:`~repro.net.engine.SharedTicker.after_tick`), or from the
        backoff timer. The HTTP timeout is clamped while the server may be
        unreachable so a dead control plane costs seconds, not the
        default 10s, per attempt.
        """
        assert self.recovery_config is not None
        self._reconnect_timer = None
        self._reconnect_attempts += 1
        self.recovery_stats.inc("reconnect_attempts")
        saved_timeout = self.http.timeout
        self.http.timeout = min(saved_timeout, 2.0)
        try:
            if self.session_id is not None:
                self._orphan_sessions.append(
                    (self._server_url, self.session_id)
                )
                self.session_id = None
            self._resolve_placement()
            # close old sessions first so their servers free the QoS
            # channels before the new open reserves another
            self._close_orphans()
            self._open_and_play(None, announce=False)
        except (PlayerError, HTTPError):
            self.session_id = None
            if self._reconnect_attempts >= self.recovery_config.max_reconnects:
                self.recovery_stats.inc("reconnect_giveups")
                self._reconnecting = False
                self._finish()
                return
            delay = min(
                self.recovery_config.reconnect_backoff
                * (2 ** (self._reconnect_attempts - 1)),
                self.recovery_config.reconnect_backoff_max,
            )
            self._reconnect_timer = self.simulator.schedule(
                delay, self._attempt_reconnect
            )
        else:
            self._reconnecting = False
            self._reconnect_attempts = 0
            self.recovery_stats.inc("reconnects")
            if self.tracer is not None:
                self.tracer.event(
                    "playback.reconnect",
                    span=self._playback_span,
                    client=self.user,
                    session=self.session_id,
                )
            if self._recovery is not None:
                self._recovery.reset()
            self._arm_recovery()
        finally:
            self.http.timeout = saved_timeout

    def _request_downshift(self) -> bool:
        """Ask the server for the next lower rendition (reliable path —
        a lost downshift request would defeat its purpose)."""
        if (
            self.session_id is None
            or self._reconnecting
            or (
                self._recovery is not None
                and self._recovery.stalled(self.simulator.now)
            )
        ):
            return False  # stalled/reconnecting: the watchdog owns this
        try:
            body = self._control("downshift", session_id=self.session_id)
        except (PlayerError, HTTPError):
            return False
        if not isinstance(body, dict) or not body.get("ok"):
            return False
        self._wake()
        old_video = self.selected_video
        new_video = body.get("selected_video")
        self.selected_video = new_video
        if old_video is not None and old_video in self._media_streams:
            self._media_streams.remove(old_video)
        if new_video is not None:
            # the lighter rendition starts mid-file: what it skipped is
            # not lost
            self._depacketizer.expect_stream(new_video)
            if new_video not in self._media_streams:
                self._pending_streams.add(new_video)
        self.downshift_log.append((self.position, new_video))
        if self.tracer is not None:
            self.tracer.event(
                "playback.downshift",
                span=self._playback_span,
                client=self.user,
                position=self.position,
                video=new_video,
            )
        return True

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------

    def _on_train(self, packets: List[DataPacket]) -> None:
        """One wire message: its packets, as sent."""
        if self._recovery is None:
            units = self._depacketizer.push_train(packets)
        else:
            units = self._recovery.take_train(
                packets, self._depacketizer.push_train
            )
        if not units:
            return
        pending = self._pending_streams
        license = self._license
        media = []
        media_bytes = self._media_bytes
        for unit in units:
            stream = unit.stream_number
            if stream in pending:
                # first data of a downshifted rendition: it now counts
                # toward buffer depth
                self._wake()
                pending.discard(stream)
                self._media_streams.append(stream)
            if stream == SCRIPT_STREAM_NUMBER:
                # stored files dispatch from the header command table; only
                # live broadcasts (no table up front) fire inline commands
                if self._broadcast:
                    self._on_live_command(unit)
                continue
            media_bytes += unit.size
            if license is not None:
                unit = MediaUnit(
                    stream,
                    unit.object_number,
                    unit.timestamp_ms,
                    unit.keyframe,
                    scramble(unit.data, license.key),
                )
            media.append(unit)
        self._media_bytes = media_bytes
        if not (self._asleep and media):
            self._buffer.extend(media)
        elif self.state is PlayerState.BUFFERING:
            # a buffering player's anchor stands still: whether its next
            # tick starts playback is known now, and only then is it woken
            self._buffer.extend(media)
            if self._ready(self._clock.media_time(self.simulator.now)):
                self._wake()
        else:
            # a unit already due renders at no instant slept through
            # before it arrived: those instants render first. Units not
            # due yet render at no such instant: no settle
            playhead = media_ms(self.position)
            for unit in media:
                if unit.timestamp_ms <= playhead:
                    self._settle()
                    break
            self._buffer.extend(media)

    def _on_live_command(self, unit: MediaUnit) -> None:
        """Live streams carry commands inline: fire immediately."""
        command = command_from_unit(unit)
        self._on_command_fired(command)

    def _on_command_fired(self, command: ScriptCommand) -> None:
        self.fired.append(
            FiredCommand(self.simulator.now, self.position, command)
        )

    # ------------------------------------------------------------------
    # render loop
    # ------------------------------------------------------------------

    def _render_tick(self) -> None:
        if self._asleep:
            self._wake()  # the wake-up instant came
        if self.state in _NOT_RENDERING:
            return
        now = self.simulator.now
        # stall watchdog, piggybacked on the tick the player already runs:
        # total delivery silence means the server crashed or the path is
        # partitioned — reconnect and resume from the buffered frontier.
        # The O(1) silence test goes before the end-of-content scan
        if (
            self._recovery is not None
            and not self._reconnecting
            and not self._stream_ended
            and self._recovery.stalled(now)
            and not self._end_of_content()
        ):
            self._begin_reconnect(now)
            return
        position = self._clock.media_time(now)
        if self.state is PlayerState.BUFFERING:
            if self._ready(position):
                self._start_playing(now)
            else:
                # only an arrival, a control or the watchdog can end the
                # buffering: an arrival that makes it ready or a control
                # wakes the player
                self._doze(now, self._watchdog_due(False))
            return
        # PLAYING: the playhead rounds to media ms once, and every question
        # this tick asks (what is due, how much runway is left) uses it
        pos_ms = media_ms(position)
        due = self._buffer.pop_due_ms(pos_ms)
        if due:
            render = self._digest.add
            for unit in due:
                render(now, position, unit)
            if self.tracer is not None:
                self._trace_runs(due, lambda unit: now)
        if self.sync_mode == "script":
            if self._dispatcher is not None:
                self._dispatcher.advance_to_ms(pos_ms)
        else:
            self._fire_timer_commands(now)
        duration = self._duration
        if duration and position >= duration:
            self._finish()
            return
        # depth() <= UNDERRUN_MARGIN in integer ms: the margin is positive,
        # so depth's clamp at zero cannot change the answer
        runway = self._buffer.runway_ms(pos_ms, self._media_streams)
        if (
            runway is None or runway / 1000.0 <= self.UNDERRUN_MARGIN
        ) and not self._end_of_content():
            self._enter_rebuffer(now)
        else:
            self._sleep(now, pos_ms, runway)

    def _ready(self, position: float) -> bool:
        """Whether a BUFFERING tick with the clock at ``position`` starts
        playback: the preroll is buffered at the anchor, or the content's
        end is, or the stream ended with something left to render."""
        anchor = position if self._clock.started else self._start_position
        return (
            self._buffer.depth(anchor, self._media_streams) >= self.preroll
            or self._end_of_content()
            or (self._stream_ended and len(self._buffer) > 0)
        )

    def _watchdog_due(self, end: bool) -> float:
        """The first instant the stall watchdog could fire (``inf`` when
        it cannot: no recovery, the stream ended, or ``end`` — the end of
        the content is buffered). Counted during a reconnect too, which
        only wakes the player early."""
        recovery = self._recovery
        if recovery is None or self._stream_ended or end:
            return math.inf
        timeout = recovery.config.watchdog_timeout
        return recovery.last_arrival + timeout - _WAKE_SLACK

    def _doze(self, now: float, wake: float) -> None:
        """Skip this player's ticks before ``wake``, if that skips any."""
        if wake > now + self.RENDER_TICK:
            self._render_task.sleep_until(wake)
            self._asleep = True

    def _sleep(self, now: float, pos_ms: int, runway: Optional[int]) -> None:
        """Skip the instants before the first one at which a PLAYING tick
        could do more than render due units.

        That is the earliest of: the finish (position ≥ duration), an
        underrun (runway ≤ ``UNDERRUN_MARGIN``, unless the content's end
        is buffered), the next script or timer command, and the stall
        watchdog (last arrival + its timeout, same exception). Arrivals
        only move those later; whatever else could move one wakes the
        player first (:meth:`_wake`). :meth:`_settle` renders what the
        skipped instants rendered.
        """
        end = self._end_of_content()
        bound = self._duration or math.inf  # media seconds
        if runway is not None and not end:
            bound = min(bound, (pos_ms + runway) / 1000.0 - self.UNDERRUN_MARGIN)
        if self.sync_mode == "script" and self._dispatcher is not None:
            next_ms = self._dispatcher.next_ms()
            if next_ms is not None:
                bound = min(bound, next_ms / 1000.0)
        wake = self._clock.wall_time(bound - _WAKE_SLACK)
        cursor = self._timer_cursor
        if (
            self.sync_mode == "timer"
            and self._timer_origin is not None
            and cursor < len(self._timer_commands)
        ):
            wake = min(
                wake,
                self._timer_origin
                + self._timer_commands[cursor].timestamp - _WAKE_SLACK,
            )
        self._doze(now, min(wake, self._watchdog_due(end)))

    def _settle(self) -> None:
        """Render what the instants slept through so far rendered.

        A playing sleeper's clock runs, and nothing but due units could
        happen at those instants, so each renders the units due at its
        playhead with its own wall time and position — exactly what its
        tick would have. The buffer pops in timestamp
        order, so one pop up to the last playhead takes what the ticks
        would have popped one after another, and each unit belongs to the
        first instant whose playhead reaches its timestamp.
        """
        if not self._asleep:
            return
        times = self._render_task.missed()
        if not times or self.state is not PlayerState.PLAYING:
            return  # a buffering player's ticks render nothing
        positions = self._clock.media_times(times)
        playheads = media_ms_each(positions)
        render = self._digest.add
        due = self._buffer.pop_due_ms(playheads[-1])
        i = 0
        for unit in due:
            if unit.timestamp_ms > playheads[i]:
                i = bisect_left(playheads, unit.timestamp_ms, i)
            render(times[i], positions[i], unit)
        if self.tracer is not None and due:
            self._trace_runs(due, lambda unit: times[
                bisect_left(playheads, unit.timestamp_ms)
            ])

    def _trace_runs(self, units: List[MediaUnit], wall_time) -> None:
        """Record a ``render.run`` per stream of ``units`` (rendered in
        order, each at ``wall_time(unit)``): its first and last timestamp,
        unit count, and the wall instants of its first and last unit."""
        runs: Dict[int, List[MediaUnit]] = {}
        for unit in units:
            runs.setdefault(unit.stream_number, []).append(unit)
        for stream, run in runs.items():
            first, last = run[0], run[-1]
            self.tracer.event(
                "render.run", span=self._playback_span, client=self.user,
                stream=stream, first_ts=first.timestamp_ms,
                last_ts=last.timestamp_ms, n=len(run),
                t0=wall_time(first), t1=wall_time(last),
            )

    def _wake(self) -> None:
        """Settle, and tick at every instant again: called before anything
        changes what the player's tick would do (its state, clock, buffer,
        streams or end of stream)."""
        if self._asleep:
            self._settle()
            self._asleep = False
            self._render_task.wake_up()

    #: tolerance for "everything up to the end is already buffered" — the
    #: last media unit of a stream sits one unit-duration before `duration`
    END_TOLERANCE = 0.5

    def _end_of_content(self) -> bool:
        """True when the tail of the stream is fully buffered/consumed."""
        if self._stream_ended:
            return True
        duration = self._duration
        if not duration or not self._media_streams:
            return False
        lowest = self._buffer.runway_ms(0, self._media_streams)
        if lowest is None:
            lowest = -1  # a stream that delivered nothing yet
        return lowest / 1000.0 >= duration - self.END_TOLERANCE

    def _start_playing(self, now: float) -> None:
        if self._stall_started is not None:
            if self._stall_is_underrun:
                self.rebuffer_time += now - self._stall_started
                if self.tracer is not None:
                    self.tracer.event(
                        "rebuffer.end",
                        span=self._playback_span,
                        client=self.user,
                        duration=now - self._stall_started,
                    )
            self._stall_started = None
            self._clock.resume(now)
        elif not self._clock.started:
            self._clock.start(now, media_time=self._start_position)
        if self._pending_catchup:
            # starting mid-lecture: replay only the latest stateful command
            # per type (the current slide), not the whole history
            self._pending_catchup = False
            if self.sync_mode == "script" and self._dispatcher is not None:
                self._dispatcher.seek(self._start_position)
            elif self.sync_mode == "timer":
                while (
                    self._timer_cursor < len(self._timer_commands)
                    and self._timer_commands[self._timer_cursor].timestamp
                    < self._start_position
                ):
                    self._timer_cursor += 1
        if self._first_render is None:
            self._first_render = now
            if self.sync_mode == "timer":
                self._timer_origin = now
            if self.tracer is not None:
                startup = (
                    now - self._connect_time
                    if self._connect_time is not None
                    else 0.0
                )
                self.tracer.event(
                    "playback.start",
                    span=self._playback_span,
                    client=self.user,
                    startup=startup,
                )
        self.state = PlayerState.PLAYING

    def _enter_rebuffer(self, now: float) -> None:
        self.state = PlayerState.BUFFERING
        self.rebuffer_count += 1
        self._stall_started = now
        self._stall_is_underrun = True
        self._clock.pause(now)
        if self.tracer is not None:
            self.tracer.event(
                "rebuffer.begin",
                span=self._playback_span,
                client=self.user,
                position=self.position,
            )
        if (
            self._recovery is not None
            and not self._reconnecting
            and not self._recovery.stalled(now)
        ):
            # data still flows, just not fast enough: degrade gracefully
            # to a lighter rendition instead of rebuffering repeatedly.
            # The request blocks: it runs once the render tick is done,
            # if the player is still in this rebuffer and not reconnecting
            rebuffer = self.rebuffer_count

            def downshift() -> None:
                if (
                    self.state is PlayerState.BUFFERING
                    and self._stall_is_underrun
                    and self.rebuffer_count == rebuffer
                    and not self._reconnecting
                ):
                    self._recovery.request_downshift()

            self._render_task.after_tick(downshift)

    def _fire_timer_commands(self, now: float) -> None:
        """Strawman sync: commands fire at wall-clock offsets from start."""
        if self._timer_origin is None:
            return
        elapsed = now - self._timer_origin
        while (
            self._timer_cursor < len(self._timer_commands)
            and self._timer_commands[self._timer_cursor].timestamp <= elapsed
        ):
            self._on_command_fired(self._timer_commands[self._timer_cursor])
            self._timer_cursor += 1

    def _finish(self) -> None:
        if self.state is PlayerState.FINISHED:
            return  # one close handshake per playback
        self._wake()
        self.state = PlayerState.FINISHED
        # freeze the playback position: the close handshake advances
        # simulated time, and the clock must not drift past the content end
        duration = self._duration
        final = min(self.position, duration) if duration else self.position
        self._clock.seek(self.simulator.now, final)
        if not self._clock.paused and self._clock.started:
            self._clock.pause(self.simulator.now)
        if self._render_task is not None:
            self._render_task.stop()
        if self._reconnect_timer is not None:
            self.simulator.cancel(self._reconnect_timer)
            self._reconnect_timer = None
        if self._recovery is not None:
            self._recovery.reset()  # cancel any armed NAK timer
        if self._render_task is not None:
            # the handshake blocks: it runs once the render tick is done
            self._render_task.after_tick(self._close)
        else:
            self._close()

    def _close(self) -> None:
        """Close handshake of a finished playback, then end its span."""
        for url, orphan in self._orphan_sessions:
            try:
                self.http.post(
                    f"{url}/control/close", body={"session_id": orphan}
                )
            except HTTPError:
                pass
        self._orphan_sessions.clear()
        if self.session_id is not None:
            try:
                self._control("close", session_id=self.session_id)
            except (PlayerError, HTTPError):
                pass
            self.session_id = None
        if self.tracer is not None and self._playback_span is not None:
            self.tracer.end(
                self._playback_span,
                rendered=self._digest.count,
                rebuffers=self.rebuffer_count,
            )
            self._playback_span = None

    # ------------------------------------------------------------------
    # user interactions
    # ------------------------------------------------------------------

    def _issue(self, action: str, **fields) -> int:
        """Send a user control on the current session and wait for its
        reply; returns the count of sessions opened before it left.

        One user control is in flight at a time: a control due during
        another's round trip raises :class:`PlayerError`, as one issued in
        a state that cannot take it does. What else runs during the trip
        (a rebuffer, a reconnect, a relocate, the end of playback) is for
        the caller to check against that count (:meth:`_overtaken`)."""
        if self._in_control:
            raise PlayerError(f"cannot {action}: a control is in flight")
        opens = self._opens
        self._in_control = True
        try:
            self._control(action, session_id=self.session_id, **fields)
        finally:
            self._in_control = False
        return opens

    def _overtaken(self, action: str, opens: int) -> None:
        """Raise :class:`PlayerError` if a reconnect began or opened a new
        session while ``action`` was in flight: it reached only the session
        the reconnect replaces, which is closed as an orphan, and the new
        one delivers from the buffered frontier the client still holds."""
        if self._reconnecting or self._opens != opens:
            raise PlayerError(
                f"{action} overtaken: a reconnect replaced its session"
            )

    def pause(self) -> None:
        if self.state is not PlayerState.PLAYING:
            raise PlayerError(f"cannot pause from {self.state.value}")
        opens = self._issue("pause")
        if self.state is PlayerState.FINISHED:
            return  # playback ended during the round trip: nothing to pause
        self._overtaken("pause", opens)
        if self.state is not PlayerState.PLAYING:
            # a rebuffer began during the round trip, and a buffering
            # player does not pause: the server's session streams again
            self._issue("resume")
            raise PlayerError("pause overtaken: the player began buffering")
        self._wake()
        self._clock.pause(self.simulator.now)
        self.state = PlayerState.PAUSED

    def resume(self) -> None:
        if self.state is not PlayerState.PAUSED:
            raise PlayerError(f"cannot resume from {self.state.value}")
        self._issue("resume")
        if self.state is PlayerState.FINISHED:
            return  # playback ended during the round trip
        # a paused player neither ticks nor reconnects, and a relocate
        # hands the session on: it is the one the resume reached
        self._clock.resume(self.simulator.now)
        if self._recovery is not None:
            # arrivals legitimately stopped while paused; restart the
            # watchdog clock instead of declaring a stall
            self._recovery.note_arrival()
        self.state = PlayerState.PLAYING

    def seek(self, position: float) -> None:
        """Reposition; the post-seek stall is buffering but not an underrun."""
        if self.state not in (PlayerState.PLAYING, PlayerState.PAUSED):
            raise PlayerError(f"cannot seek from {self.state.value}")
        now = self.simulator.now
        was_paused = self.state is PlayerState.PAUSED
        opens = self._issue("seek", position=position)
        if was_paused and self.state is not PlayerState.FINISHED:
            self._issue("resume")
        if self.state is PlayerState.FINISHED:
            return  # playback ended during the round trip: nothing to move
        self._overtaken("seek", opens)
        # the session (or, after a relocate, its successor) now delivers
        # from ``position``, whatever a rebuffer did to the client meanwhile
        self._seek_transition(now, position)

    def _seek_transition(self, now: float, position: float) -> None:
        """Client side of a reposition the server has already accepted."""
        self._wake()
        if self.tracer is not None:
            # recorded here, not when the request leaves: render ticks keep
            # firing during the control round trip, and the playhead only
            # rebases (to the index point at or before ``position``) now
            self.tracer.event(
                "playback.seek",
                span=self._playback_span,
                client=self.user,
                position=position,
            )
        self._buffer.clear()
        self._depacketizer.expect_replay()  # the server re-sends from here
        if self._recovery is not None:
            self._recovery.reset()  # gaps before the seek are moot
        self._clock.seek(now, position)
        if not self._clock.paused:
            self._clock.pause(now)
        if self._dispatcher is not None:
            self._dispatcher.seek(position)
        self._stall_started = now
        self._stall_is_underrun = False
        self.state = PlayerState.BUFFERING

    def stop(self) -> None:
        """End playback (the way to leave a broadcast with no duration)."""
        if self.state in (PlayerState.IDLE, PlayerState.FINISHED):
            raise PlayerError(f"cannot stop from {self.state.value}")
        self._finish()

    # ------------------------------------------------------------------
    # cohort de-aggregation
    # ------------------------------------------------------------------

    def split_member(
        self,
        host: str,
        *,
        user: str = "",
        seek_to: Optional[float] = None,
        render_ticker=None,
    ) -> "MediaPlayer":
        """De-aggregate one modeled viewer into its own real player.

        A cohort delegate (``multiplicity`` > 1) stands for N viewers whose
        playback never diverged. The moment one of them individuates — a
        seek (``seek_to``), or a reconnect-style action (``seek_to=None``,
        resume at the buffered frontier) — that member becomes a *twin*
        player on ``host``: it inherits the delegate's entire client-side
        history (delivered bytes, render digest, fired commands, clock,
        QoE counters — the member lived inside the cohort until this
        instant), opens its own server session, and restarts delivery
        exactly where the individuating action lands it. The delegate's
        multiplicity drops by one; its server session keeps the opening
        multiplicity (server-side counts are attach-time audience).

        The twin's post-split delivery is byte-identical to what an
        independent player that issued the same action would receive:
        ``server.play(start=p)`` and ``server.seek(p)`` resolve the same
        packet cursor and are granted the same fresh fast-start window,
        so the pacing shape matches too.
        """
        if self.state not in (
            PlayerState.BUFFERING, PlayerState.PLAYING, PlayerState.PAUSED
        ):
            raise PlayerError(f"cannot split from {self.state.value}")
        if self.multiplicity < 2:
            raise PlayerError("no aggregated members left to split out")
        if self._broadcast and seek_to is not None:
            raise PlayerError("cannot seek a broadcast member")
        self._wake()
        now = self.simulator.now
        twin = type(self)(
            self.network,
            host,
            user=user or host,
            license_server=self.license_server,
            sync_mode=self.sync_mode,
            preroll_override=self.preroll_override,
            recovery=self.recovery_config,
            directory=self.directory,
            tracer=self.tracer,
            render_ticker=(
                render_ticker if render_ticker is not None
                else self._render_ticker
            ),
        )
        # shared context (immutable or server-owned)
        twin.header = self.header
        twin._duration = self._duration
        twin._point = self._point
        twin._broadcast = self._broadcast
        twin._server_url = self._server_url
        twin._license = self._license
        twin._media_streams = list(self._media_streams)
        twin.selected_video = self.selected_video
        twin._pending_streams = set(self._pending_streams)
        # client-side playback state: cloned, not re-derived — the member's
        # history *is* the delegate's. on_gap is a bound method back into
        # this player; detach it around the deepcopy so the clone doesn't
        # drag the whole player (network, simulator...) along
        saved_gap = self._depacketizer.on_gap
        self._depacketizer.on_gap = None
        twin._depacketizer = copy.deepcopy(self._depacketizer)
        self._depacketizer.on_gap = saved_gap
        twin._buffer = copy.deepcopy(self._buffer)
        twin._clock = copy.deepcopy(self._clock)
        assert self.header is not None
        twin._dispatcher = ScriptCommandDispatcher(
            list(self.header.script_commands), twin._on_command_fired
        )
        if self._dispatcher is not None:
            twin._dispatcher._cursor = self._dispatcher._cursor
        twin._timer_commands = sorted(self.header.script_commands)
        twin._timer_cursor = self._timer_cursor
        twin._timer_origin = self._timer_origin
        twin._digest = self._digest.copy()
        twin._media_bytes = self._media_bytes
        twin.fired = list(self.fired)
        twin._connect_time = self._connect_time
        twin._first_render = self._first_render
        twin.rebuffer_count = self.rebuffer_count
        twin.rebuffer_time = self.rebuffer_time
        twin._stall_started = self._stall_started
        twin._stall_is_underrun = self._stall_is_underrun
        twin._start_position = self._start_position
        twin._stream_ended = self._stream_ended
        twin.downshift_log = list(self.downshift_log)
        twin._pending_catchup = self._pending_catchup
        twin.state = self.state
        self.multiplicity -= 1
        if self.tracer is not None:
            self.tracer.event(
                "playback.split",
                span=self._playback_span,
                client=self.user,
                member=twin.user,
                remaining=self.multiplicity,
            )
            twin._playback_span = self.tracer.begin(
                "playback", client=twin.user, point=twin._point
            )
        # seek_to=None is the reconnect-style individuation (and the only
        # form a live member takes): resume at the buffered frontier
        twin._open_and_play(seek_to)
        if seek_to is not None:
            # the server resolves play(start=p) with the same cursor as
            # seek(p); client-side this is exactly seek()'s transition
            twin._seek_transition(now, seek_to)
        twin._arm_recovery()
        twin._start_render_loop()
        return twin

    # ------------------------------------------------------------------
    # driving & reporting
    # ------------------------------------------------------------------

    def run_until_finished(self, *, timeout: float = 3_600.0) -> "PlaybackReport":
        """Advance the simulation until playback completes."""
        deadline = self.simulator.now + timeout
        if not self.simulator.wait(
            lambda: self.state is PlayerState.FINISHED, deadline=deadline
        ):
            raise PlayerError(
                f"playback did not finish before t={deadline} "
                f"(state {self.state.value})"
            )
        return self.report()

    def watch(self, url: str, **play_kwargs) -> "PlaybackReport":
        """Connect, play to completion, report."""
        self.connect(url)
        self.play(**play_kwargs)
        return self.run_until_finished()

    def report(self) -> PlaybackReport:
        self._settle()
        loss = self._depacketizer.loss_report()
        startup = (
            (self._first_render - self._connect_time)
            if self._first_render is not None and self._connect_time is not None
            else float("inf")
        )
        return PlaybackReport(
            point=self._point or "",
            startup_latency=startup,
            rebuffer_count=self.rebuffer_count,
            rebuffer_time=self.rebuffer_time,
            digest=self._digest.copy(),
            commands=list(self.fired),
            loss_rates={
                s: loss.loss_rate(s) for s in loss.delivered
            },
            duration_watched=self.position,
            media_bytes=self._media_bytes,
            recovery=self.recovery_stats.as_dict(),
            downshifts=list(self.downshift_log),
        )

    def mark_stream_ended(self) -> None:
        """Broadcast feeds call this when the live session closes."""
        self._wake()
        self._stream_ended = True
