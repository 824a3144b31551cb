"""The player's render path against the seed's: same playback, same trace.

The per-unit path — receive, jitter buffer, render tick — takes a wire
message's packets as one train into a sorted run, rounds the playhead to
integer media milliseconds once per tick and asks the jitter buffer both
of its questions (what is due, how much runway is left) with that one
number; the content duration is read once at connect.
:class:`SeedRenderPlayer` keeps the seed's bodies: a train received packet
by packet into a heap buffer asked in float seconds, rounding on every
call (:class:`SeedJitterBuffer`), a per-tick walk of the header, and
hand-rolled horizon minimums. Every scenario below plays
once with each player, and the reference tick folds each unit into the
same :class:`~repro.streaming.RenderDigest` the player does. The reports
must be equal — their digests too, so every unit rendered at the same wall
time and position — and the tracer records identical — every
``render.unit``, every command at the same playhead, every rebuffer and
downshift — with the same number of simulator events, so no render tick
was skipped.

Every scenario plays a third time with untraced players
(``tracer=None``), which sleep through the instants at which nothing but
due units can happen and settle them later: the reports and the event
count must still equal the seed's.
"""

import heapq
import itertools
import os

import pytest

from repro.asf import ASFEncoder, EncoderConfig, slide_commands
from repro.asf.constants import SCRIPT_STREAM_NUMBER
from repro.asf.drm import scramble
from repro.asf.packets import MediaUnit
from repro.lod import LiveCaptureSession
from repro.media import AudioObject, ImageObject, VideoObject, get_profile
from repro.media.clock import media_ms
from repro.net import FaultInjector, FaultPlan, GilbertElliott
from repro.net.engine import SharedTicker
from repro.obs import Tracer
from repro.streaming import MediaPlayer, MediaServer, PlayerState, RecoveryConfig
from repro.web import VirtualNetwork

#: reseeds the lossy link (the chaos job runs seeds 0, 1, 2)
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))
DURATION = 12.0
SLIDES = 4


class SeedJitterBuffer:
    """The seed's buffer: a ``(timestamp, arrival, unit)`` heap, asked its
    questions in float seconds."""

    def __init__(self):
        self._heap = []
        self._seq = itertools.count()
        self.horizon_ms = {}
        self.pushed = 0
        self.popped = 0

    def push(self, unit):
        heapq.heappush(self._heap, (unit.timestamp_ms, next(self._seq), unit))
        horizon = self.horizon_ms.get(unit.stream_number, -1)
        self.horizon_ms[unit.stream_number] = max(horizon, unit.timestamp_ms)
        self.pushed += 1

    def __len__(self):
        return len(self._heap)

    def clear(self):
        self._heap.clear()
        self.horizon_ms.clear()

    def pop_due(self, position):
        due_ms = media_ms(position)
        out = []
        while self._heap and self._heap[0][0] <= due_ms:
            out.append(heapq.heappop(self._heap)[2])
            self.popped += 1
        return out

    def depth(self, position, streams=None):
        relevant = streams if streams is not None else list(self.horizon_ms)
        if not relevant:
            return 0.0
        pos_ms = media_ms(position)
        depths = []
        for stream in relevant:
            horizon = self.horizon_ms.get(stream)
            if horizon is None:
                return 0.0
            depths.append((horizon - pos_ms) / 1000.0)
        return max(0.0, min(depths))


class SeedRenderPlayer(MediaPlayer):
    """The seed's receive path and render tick over :class:`SeedJitterBuffer`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._buffer = SeedJitterBuffer()

    def _on_train(self, packets):
        # the seed received a train packet by packet
        for packet in packets:
            self._on_packet(packet)

    def _on_packet(self, packet):
        if self._recovery is not None:
            self._recovery.note_train((packet,))  # the seed's note_arrival
        for unit in self._depacketizer.push_packet(packet):
            if unit.stream_number in self._pending_streams:
                self._pending_streams.discard(unit.stream_number)
                self._media_streams.append(unit.stream_number)
            if unit.stream_number == SCRIPT_STREAM_NUMBER:
                if self._broadcast:
                    self._on_live_command(unit)
                continue
            self._media_bytes += unit.size
            if self._license is not None:
                unit = MediaUnit(
                    unit.stream_number,
                    unit.object_number,
                    unit.timestamp_ms,
                    unit.keyframe,
                    scramble(unit.data, self._license.key),
                )
            self._buffer.push(unit)

    def _recovery_runway(self):
        if self.state is not PlayerState.PLAYING:
            return float("inf")
        return self._buffer.depth(self.position, self._media_streams)

    def _reconnect_position(self):
        base = self.position if self._clock.started else self._start_position
        if self._media_streams:
            horizons = [
                self._buffer.horizon_ms.get(s, -1) for s in self._media_streams
            ]
            if all(h >= 0 for h in horizons):
                base = max(base, min(horizons) / 1000.0)
        return base

    def _render_tick(self):
        if self.state in (PlayerState.PAUSED, PlayerState.FINISHED, PlayerState.IDLE):
            return
        now = self.simulator.now
        if (
            self._recovery is not None
            and not self._reconnecting
            and not self._stream_ended
            and self._recovery.stalled(now)
            and not self._end_of_content()
        ):
            self._begin_reconnect(now)
            return
        position = self.position
        if self.state is PlayerState.BUFFERING:
            anchor = position if self._clock.started else self._start_position
            if (
                self._buffer.depth(anchor, self._media_streams) >= self.preroll
                or self._end_of_content()
                or (self._stream_ended and len(self._buffer))
            ):
                self._start_playing(now)
            return
        due = self._buffer.pop_due(position)
        for unit in due:
            self._digest.add(now, position, unit)
            if self.tracer is not None:
                self.tracer.event(
                    "render.unit",
                    span=self._playback_span,
                    client=self.user,
                    stream=unit.stream_number,
                    ts=unit.timestamp_ms,
                )
        if self.sync_mode == "script" and self._dispatcher is not None:
            self._dispatcher.advance_to_ms(media_ms(position))
        elif self.sync_mode == "timer":
            self._fire_timer_commands(now)
        duration = self.header.file_properties.duration_ms / 1000.0
        if duration and position >= duration:
            self._finish()
            return
        depth = self._buffer.depth(position, self._media_streams)
        if depth <= self.UNDERRUN_MARGIN and not self._end_of_content():
            self._enter_rebuffer(now)

    def _end_of_content(self):
        if self._stream_ended:
            return True
        duration = (
            self.header.file_properties.duration_ms / 1000.0 if self.header else 0.0
        )
        if not duration or not self._media_streams:
            return False
        horizons = [
            self._buffer.horizon_ms.get(s, -1) / 1000.0 for s in self._media_streams
        ]
        return min(horizons) >= duration - self.END_TOLERANCE


def make_asf():
    per_slide = DURATION / SLIDES
    return ASFEncoder(EncoderConfig(profile=get_profile("dsl-256k"))).encode_file(
        file_id="lec",
        video=VideoObject("talk", DURATION, width=320, height=240, fps=10),
        audio=AudioObject("voice", DURATION),
        images=[
            (ImageObject(f"s{i}", per_slide, width=320, height=240), i * per_slide)
            for i in range(SLIDES)
        ],
        commands=slide_commands([(f"s{i}", i * per_slide) for i in range(SLIDES)]),
    )


def make_mbr_asf():
    renditions = [get_profile(n) for n in ("modem-56k", "isdn-dual", "dsl-256k", "lan-1m")]
    return ASFEncoder(EncoderConfig(profile=renditions[-1])).encode_file_mbr(
        file_id="mbr",
        video=VideoObject("talk", DURATION, width=640, height=480, fps=25),
        renditions=renditions,
        audio=AudioObject("voice", DURATION),
        commands=slide_commands([("s0", 0.0), ("s1", DURATION / 2)]),
    )


ASF = {"lecture": make_asf(), "mbr": make_mbr_asf()}


class UntracedPlayer(MediaPlayer):
    """The shipped player, built without a tracer whatever it is handed
    (so are its split twins): it sleeps between wake-ups."""

    def __init__(self, *args, tracer=None, **kwargs):
        super().__init__(*args, **kwargs)


class World:
    def __init__(self, cls, *, bandwidth=2_000_000, delay=0.02, hosts=("student",)):
        self.cls = cls
        self.tracer = Tracer("render")
        self.net = VirtualNetwork()
        self.sim = self.net.simulator
        self.tracer.bind_clock(self.sim)
        for host in hosts:
            self.net.connect("server", host, bandwidth=bandwidth, delay=delay)
        self.server = MediaServer(self.net, "server", port=8080, tracer=self.tracer)
        for point, asf in ASF.items():
            self.server.publish(point, asf)
        self.players = []

    def player(self, host="student", point="lecture", **kwargs):
        player = self.cls(self.net, host, tracer=self.tracer, **kwargs)
        self.players.append(player)
        player.connect(self.server.url_of(point))
        player.play()
        return player

    def at(self, when, action):
        self.sim.schedule_at(when, action)

    def finish(self, horizon=60.0):
        self.sim.run_until(horizon)
        for player in self.players:
            if player.state is not PlayerState.FINISHED:
                player.stop()
        self.sim.run_until(horizon + 5.0)
        return (
            [player.report() for player in self.players],
            self.tracer.records,
            self.sim.events_processed,
        )


def lan_on_demand(cls):
    world = World(cls, bandwidth=10_000_000, delay=0.001)
    world.player()
    return world.finish()


def lossy_wan_with_naks(cls):
    world = World(cls, bandwidth=1_500_000, delay=0.06)
    link = world.net.link("server", "student")
    link.rng.seed(1000 + CHAOS_SEED)
    link.set_loss(burst_loss=GilbertElliott.from_average(0.05, mean_burst=5.0))
    world.player(recovery=RecoveryConfig())
    return world.finish()


def crash_and_resume(cls):
    world = World(cls)
    FaultInjector(world.net, servers={"media": world.server}).apply(
        FaultPlan("crash").server_crash("media", at=5.0, restart_at=6.5)
    )
    world.player(recovery=RecoveryConfig())
    return world.finish()


def seek(cls):
    world = World(cls)
    player = world.player()
    world.at(4.0, lambda: player.seek(9.0))
    world.at(8.0, lambda: player.seek(2.0))
    return world.finish()


def pause_resume(cls):
    world = World(cls)
    player = world.player()
    world.at(3.0, player.pause)
    world.at(5.5, player.resume)
    return world.finish()


def mbr_downshift(cls):
    world = World(cls)
    FaultInjector(world.net).apply(
        FaultPlan("collapse").bandwidth("server", "student", at=4.0, bps=400_000.0)
    )
    world.player(point="mbr", recovery=RecoveryConfig())
    return world.finish(120.0)


def underrun(cls):
    world = World(cls)
    FaultInjector(world.net).apply(
        FaultPlan("collapse").bandwidth("server", "student", at=4.0, bps=400_000.0)
    )
    world.player(point="mbr")
    return world.finish(120.0)


def cohort_split(cls):
    world = World(cls, hosts=("cohort", "m1", "m2"))
    ticker = SharedTicker(world.sim, MediaPlayer.RENDER_TICK)
    delegate = world.player("cohort", multiplicity=3, render_ticker=ticker)

    def split(host, **kwargs):
        twin = delegate.split_member(host, user=host, **kwargs)
        assert type(twin) is cls
        world.players.append(twin)

    world.at(4.0, lambda: split("m1", seek_to=8.5))
    world.at(6.0, lambda: split("m2"))
    return world.finish()


def live_broadcast(cls):
    world = World(cls)
    capture = LiveCaptureSession(world.sim, get_profile("isdn-dual"), chunk=0.5)
    world.server.publish("live", capture.stream)
    player = world.player(point="live", preroll_override=1.0)
    capture.advance_slide("intro")
    world.at(4.0, lambda: capture.advance_slide("mid"))
    world.at(7.0, lambda: capture.advance_slide("wrap"))

    def end():
        capture.finish()
        player.mark_stream_ended()

    world.at(10.0, end)
    return world.finish(14.0)


def preroll_override(cls):
    world = World(cls, hosts=("a", "b"))
    world.player("a", preroll_override=1.25)
    world.player("b", preroll_override=0.0)
    return world.finish()


def timer_sync(cls):
    world = World(cls)
    FaultInjector(world.net).apply(
        FaultPlan("collapse").bandwidth("server", "student", at=3.0, bps=150_000.0)
    )
    world.player(sync_mode="timer")
    return world.finish(120.0)


SCENARIOS = [
    lan_on_demand, lossy_wan_with_naks, crash_and_resume, seek, pause_resume,
    mbr_downshift, underrun, cohort_split, live_broadcast, preroll_override,
    timer_sync,
]


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
def test_render_path_matches_seed(scenario):
    reports, records, events = scenario(MediaPlayer)
    seed_reports, seed_records, seed_events = scenario(SeedRenderPlayer)
    assert reports == seed_reports
    assert records == seed_records
    assert events == seed_events
    assert any(r["name"] == "render.unit" for r in records)
    assert all(report.digest.count for report in reports)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
def test_untraced_render_path_matches_seed(scenario):
    reports, _, events = scenario(UntracedPlayer)
    seed_reports, _, seed_events = scenario(SeedRenderPlayer)
    assert reports == seed_reports
    assert events == seed_events
    assert all(report.digest.count for report in reports)


def test_an_untraced_player_sleeps_between_wake_ups():
    """On a steady LAN playback the ticker calls the untraced player at
    under a tenth of its instants; the settle renders the rest."""
    calls = []

    class CountingPlayer(UntracedPlayer):
        def _render_tick(self):
            calls.append(self.simulator.now)
            super()._render_tick()

    world = World(CountingPlayer, bandwidth=10_000_000, delay=0.001)
    player = world.player()
    (report,), _, _ = world.finish()
    ticker = player._render_task.ticker
    assert ticker.fires > 200
    assert len(calls) < ticker.fires / 10
    assert report.digest.count > len(calls)


def test_scenarios_reach_their_paths():
    """Each scenario exercises what it is named for."""
    (lossy,), _, _ = lossy_wan_with_naks(MediaPlayer)
    assert lossy.recovery.get("naks_sent", 0) >= 1
    (crashed,), _, _ = crash_and_resume(MediaPlayer)
    assert crashed.recovery.get("reconnects", 0) >= 1
    (shifted,), _, _ = mbr_downshift(MediaPlayer)
    assert shifted.downshifts
    (stalled,), _, _ = underrun(MediaPlayer)
    assert stalled.rebuffer_count >= 1
    (timer,), _, _ = timer_sync(MediaPlayer)
    assert timer.rebuffer_count >= 1 and timer.commands
    reports, _, _ = cohort_split(MediaPlayer)
    assert len(reports) == 3
    (live,), _, _ = live_broadcast(MediaPlayer)
    assert [c.command.parameter for c in live.commands] == ["intro", "mid", "wrap"]
