"""Reconnect determinism: chaos runs must replay byte-identically.

Reconnect backoff reads no wall clock and no shared RNG, so two runs of
the same chaos scenario with the same ``CHAOS_SEED`` produce *identical*
traces and reconnect timelines, and every viewer the crash stalled
recovers.
"""

import os

import pytest

from repro.asf import ASFEncoder, EncoderConfig, slide_commands
from repro.media import AudioObject, ImageObject, VideoObject, get_profile
from repro.metrics.counters import reset_counters
from repro.net import FaultInjector, FaultPlan
from repro.obs import Tracer
from repro.streaming import (
    MediaPlayer,
    MediaServer,
    PlayerState,
    RecoveryConfig,
    build_edge_tier,
)
from repro.web import VirtualNetwork

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))
PROFILE = get_profile("dsl-256k")
DURATION = 20.0
SLIDES = 2
VIEWERS = 3


def make_asf():
    per_slide = DURATION / SLIDES
    return ASFEncoder(EncoderConfig(profile=PROFILE)).encode_file(
        file_id="lec",
        video=VideoObject("talk", DURATION, width=320, height=240, fps=10),
        audio=AudioObject("voice", DURATION),
        images=[
            (ImageObject(f"s{i}", per_slide, width=320, height=240),
             i * per_slide)
            for i in range(SLIDES)
        ],
        commands=slide_commands(
            [(f"s{i}", i * per_slide) for i in range(SLIDES)]
        ),
    )


def run_chaos():
    """One fixed chaos scenario: an edge dies mid-stream under N viewers
    and restarts later; every viewer reconnects. Returns (trace jsonl,
    per-viewer reconnect delay schedule, reports)."""
    reset_counters("edge_cache")
    tracer = Tracer("determinism")
    net = VirtualNetwork()
    tracer.bind_clock(net.simulator)
    net.simulator.tracer = tracer
    origin = MediaServer(
        net, "origin", port=8080, pacing_quantum=0.5,
        trace_label="origin", tracer=tracer,
    )
    origin.publish("lecture", make_asf())
    directory, relays = build_edge_tier(
        net, origin, ["edge0", "edge1"],
        pacing_quantum=0.5, seed=CHAOS_SEED, tracer=tracer,
    )
    config = RecoveryConfig()
    players = []
    for i in range(VIEWERS):
        host = f"viewer{i}"
        for relay in relays:
            net.connect(relay.host, host, bandwidth=2_000_000, delay=0.02)
            net.link(relay.host, host).rng.seed(1000 + CHAOS_SEED + i)
        player = MediaPlayer(
            net, host, user=host, directory=directory,
            recovery=config, tracer=tracer,
        )
        players.append(player)

    # every viewer watches via its directory placement; kill whichever
    # edge hosts viewer0 while all of them stream, so at least one
    # viewer is guaranteed to ride the crash path
    victim = directory.place("viewer0|lecture")
    injector = FaultInjector(net, tracer=tracer)
    injector.register_directory(directory)
    injector.apply(
        FaultPlan("kill").edge_crash(victim, at=6.0, restart_at=14.0)
    )
    for player in players:
        player.connect(directory.url_for(player.host, "lecture"))
        player.play()
    net.simulator.run_until(80.0)
    reports = []
    for player in players:
        if player.state is not PlayerState.FINISHED:
            player.stop()
        reports.append(player.report())

    # reconstruct each player's reconnect-attempt schedule from the trace
    delays = {}
    for record in tracer.events("playback.reconnect"):
        delays.setdefault(record["attrs"]["client"], []).append(record["t"])
    return tracer.to_jsonl(), delays, reports


class TestReconnectDeterminism:
    def test_same_seed_replays_identical_traces_when_an_edge_crashes(self):
        trace_a, delays_a, reports = run_chaos()
        trace_b, delays_b, _ = run_chaos()
        assert delays_a == delays_b
        assert trace_a == trace_b
        # every stalled viewer recovered
        stalled = [
            r for r in reports if r.recovery.get("stalls_detected", 0) >= 1
        ]
        assert stalled, "the crash must have stalled at least one viewer"
        for report in reports:
            assert report.duration_watched == pytest.approx(
                DURATION, abs=0.5
            )

    def test_zero_jitter_reproduces_unjittered_schedule(self):
        # reconnects carry no jitter: a stall is answered by one attempt
        # right after the render tick that saw it, and the rerouted
        # viewer gets back on that attempt, with no backoff retry
        _, delays, reports = run_chaos()
        for report in reports:
            stalls = report.recovery.get("stalls_detected", 0)
            assert report.recovery.get("reconnect_attempts", 0) == stalls
            assert report.recovery.get("reconnects", 0) == stalls
        stalled = sum(
            r.recovery.get("stalls_detected", 0) for r in reports
        )
        assert sum(len(v) for v in delays.values()) == stalled >= 1
