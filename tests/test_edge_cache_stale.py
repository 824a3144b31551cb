"""Stale-serve coverage for the :class:`PacketRunCache`.

An edge whose origin is unreachable but whose cache holds the content
serves *stale* rather than refusing viewers. These tests pin down the
two behaviours the original stale-serve change shipped without coverage:

* concurrent viewers arriving during an origin outage are all served
  from the cached replica, and what they get is **byte-identical** to
  the origin's packet run (the cache stores the verbatim fill);
* an eviction racing a stale-serve is harmless: the published point
  holds its own reference to the ASF file, so evicting the cache entry
  mid-playback never yanks packets out from under live sessions.
"""

import os

import pytest

from repro.asf import ASFEncoder, EncoderConfig, slide_commands
from repro.media import AudioObject, ImageObject, VideoObject, get_profile
from repro.metrics.counters import get_counters, reset_counters
from repro.streaming import MediaPlayer, MediaServer, PlayerState, build_edge_tier

from repro.web import VirtualNetwork
from tests.helpers import log_renders, rendered

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))
PROFILE = get_profile("dsl-256k")
DURATION = 20.0
SLIDES = 4


def make_asf(file_id="lec"):
    per_slide = DURATION / SLIDES
    return ASFEncoder(EncoderConfig(profile=PROFILE)).encode_file(
        file_id=file_id,
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


def packed_size(asf):
    return len(asf.header.pack()) + asf.data_size()


def make_tier(lectures, *, viewers=("student",), **tier_kwargs):
    reset_counters("edge_cache")
    net = VirtualNetwork()
    origin = MediaServer(net, "origin", port=8080, pacing_quantum=0.5)
    for name, asf in lectures.items():
        origin.publish(name, asf)
    directory, (edge0,) = build_edge_tier(
        net, origin, ["edge0"], pacing_quantum=0.5, **tier_kwargs,
    )
    for host in viewers:
        net.connect("edge0", host, bandwidth=2_000_000, delay=0.02)
    return net, origin, directory, edge0


def watch(net, player, url, horizon=60.0):
    player.connect(url)
    player.play()
    net.simulator.run_until(horizon)
    if player.state is not PlayerState.FINISHED:
        player.stop()
    return player.report()


def render_keys(report):
    return [
        (r.unit.stream_number, r.unit.object_number) for r in rendered(report)
    ]


class TestStaleServeDuringOutage:
    def test_concurrent_viewers_get_byte_identical_cached_bytes(self):
        asf = make_asf()
        net, origin, directory, edge0 = make_tier(
            {"lecture": asf}, viewers=("s1", "s2")
        )
        reference = origin.points["lecture"].content
        fingerprint = reference.fingerprint()

        # warm the cache, then release the local point so the next viewer
        # re-ensures it — and kill the origin so that re-ensure cannot
        # re-register upstream
        edge0.prefetch("lecture")
        edge0.unpublish("lecture")
        assert "lecture" not in edge0.points
        origin.crash()

        counters = get_counters("edge_cache")
        url = f"http://{edge0.host}:{edge0.port}/lod/lecture"
        p1 = log_renders(MediaPlayer(net, "s1", user="s1"))
        p2 = log_renders(MediaPlayer(net, "s2", user="s2"))
        # both arrive at the same instant, during the outage
        p1.connect(url)
        p2.connect(url)
        p1.play()
        p2.play()
        net.simulator.run_until(60.0)
        for p in (p1, p2):
            if p.state is not PlayerState.FINISHED:
                p.stop()

        assert counters["stale_serves"] >= 1
        # what the cache served is the origin's run, byte for byte
        cached = edge0.cache.lookup(fingerprint)
        assert cached is not None
        assert (
            b"".join(pkt.pack() for pkt in cached.packets)
            == b"".join(pkt.pack() for pkt in reference.packets)
        )
        # and both viewers experienced the identical, complete lecture
        r1, r2 = p1.report(), p2.report()
        for report in (r1, r2):
            assert report.duration_watched == pytest.approx(DURATION, abs=0.3)
            fired = [c.command.parameter for c in report.slide_changes()]
            assert fired == [f"s{i}" for i in range(SLIDES)]
        assert render_keys(r1) == render_keys(r2)

    def test_eviction_racing_stale_serve_leaves_playback_intact(self):
        asf_a = make_asf("lecA")
        asf_b = make_asf("lecB")
        # budget: holds either run alone, but not both — storing B evicts A
        budget = packed_size(asf_a) + packed_size(asf_b) // 2
        net, origin, directory, edge0 = make_tier(
            {"lecA": asf_a, "lecB": asf_b}, cache_bytes=budget
        )
        fp_a = origin.points["lecA"].content.fingerprint()

        edge0.prefetch("lecA")
        edge0.unpublish("lecA")
        origin.crash()

        counters = get_counters("edge_cache")
        player = log_renders(MediaPlayer(net, "student", user="student"))
        player.connect(f"http://{edge0.host}:{edge0.port}/lod/lecA")
        player.play()
        net.simulator.run_until(2.0)
        assert counters["stale_serves"] >= 1

        # origin comes back and a *different* lecture fills, evicting the
        # stale-served run from the cache mid-playback
        origin.restart()
        net.simulator.schedule_at(3.0, lambda: edge0.prefetch("lecB"))
        net.simulator.run_until(60.0)
        if player.state is not PlayerState.FINISHED:
            player.stop()

        assert counters["evictions"] >= 1
        assert edge0.cache.lookup(fp_a) is None
        # the published point held its own reference: eviction never
        # touched the live session
        report = player.report()
        assert report.duration_watched == pytest.approx(DURATION, abs=0.3)
        fired = [c.command.parameter for c in report.slide_changes()]
        assert fired == [f"s{i}" for i in range(SLIDES)]
        keys = render_keys(report)
        assert len(keys) == len(set(keys))
