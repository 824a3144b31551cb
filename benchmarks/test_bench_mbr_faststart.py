"""Bench S3 (extension) — intelligent streaming and fast start.

Two encoder/server features of the era's Windows Media stack that the
paper's workflow sat on top of, implemented and quantified here:

* **multi-bitrate (MBR)**: one published file carries several video
  renditions; the server picks the best one per client link and thins the
  rest. Shape: a single high-rate encoding stalls on slow links while the
  MBR publish plays clean everywhere, trading resolution instead.
* **fast start**: the server grants the preroll at whatever the client
  link has to spare — N× real time on a link N/0.9× the bitrate. Shape:
  startup latency falls roughly as preroll/N as the link widens, with no
  effect on sync or steady-state pacing.
"""

import pytest

from benchmarks._harness import run_once

from repro.asf import ASFEncoder, EncoderConfig
from repro.media import AudioObject, VideoObject, get_profile
from repro.metrics import format_table
from repro.streaming import MediaPlayer, MediaServer
from repro.web import VirtualNetwork

RENDITIONS = [get_profile(n) for n in
              ("modem-56k", "isdn-dual", "dsl-256k", "lan-1m")]
SOURCE = VideoObject("talk", 20.0, width=640, height=480, fps=25)


def encode_single():
    return ASFEncoder(EncoderConfig(profile=get_profile("lan-1m"))).encode_file(
        file_id="single", video=SOURCE, audio=AudioObject("voice", 20.0)
    )


def encode_mbr():
    encoder = ASFEncoder(EncoderConfig(profile=RENDITIONS[-1]))
    return encoder.encode_file_mbr(
        file_id="mbr", video=SOURCE, renditions=RENDITIONS,
        audio=AudioObject("voice", 20.0),
    )


def watch(asf, bandwidth):
    net = VirtualNetwork()
    net.connect("server", "student", bandwidth=bandwidth, delay=0.03,
                queue_limit=10_000)
    server = MediaServer(net, "server", port=8080)
    server.publish("p", asf)
    player = MediaPlayer(net, "student")
    try:
        report = player.watch(server.url_of("p"), )
    except Exception:
        return None, None
    chosen = None
    if player.selected_video is not None:
        chosen = asf.header.stream(player.selected_video).extra.get("profile")
    return report, chosen


class TestS3MBR:
    LINKS = {"modem-80k": 80_000, "isdn-200k": 200_000,
             "dsl-400k": 400_000, "lan-5m": 5_000_000}

    def test_bench_mbr_vs_single_rate(self, benchmark):
        def sweep():
            single = encode_single()
            mbr = encode_mbr()
            rows = []
            for link, bps in self.LINKS.items():
                s_report, _ = watch(single, bps)
                m_report, m_profile = watch(mbr, bps)
                rows.append((link, s_report, m_report, m_profile))
            return rows

        rows = run_once(benchmark, sweep)
        table = []
        for link, s_report, m_report, m_profile in rows:
            single_cell = (
                "stall" if s_report is None
                else f"{s_report.rebuffer_count}rb/{s_report.rebuffer_time:.1f}s"
            )
            table.append([
                link, single_cell,
                f"{m_report.rebuffer_count}rb", m_profile,
            ])
            # the shape: MBR plays clean on every link
            assert m_report is not None and m_report.rebuffer_count == 0, link
        print("\n[S3a] single 1 Mbps encoding vs MBR publish:")
        print(format_table(
            ["link", "single-rate", "MBR", "MBR rendition"], table
        ))
        # single-rate stalls on every link below its bitrate
        slow = [r for r in rows if self.LINKS[r[0]] < 900_000]
        assert all(
            s is None or s.rebuffer_count > 0 for _, s, _, _ in slow
        )
        # MBR renditions scale with the link
        profiles = [r[3] for r in rows]
        assert profiles == ["modem-56k", "isdn-dual", "dsl-256k", "lan-1m"]


class TestS3FastStart:
    #: client link as a multiple of the content bitrate; the server
    #: grants the preroll at 0.9x the link, so ~1x, 2.2x, 4.5x, 9x
    HEADROOMS = (1.2, 2.5, 5.0, 10.0)

    def test_bench_fast_start(self, benchmark):
        asf = encode_single()
        bitrate = asf.header.total_bitrate

        def sweep():
            rows = []
            for headroom in self.HEADROOMS:
                net = VirtualNetwork()
                net.connect("server", "student",
                            bandwidth=headroom * bitrate, delay=0.02)
                server = MediaServer(net, "server", port=8080)
                server.publish("p", asf)
                player = MediaPlayer(net, "student")
                player.connect(server.url_of("p"))
                player.play()
                granted = server.sessions.get(player.session_id)._burst_factor
                report = player.run_until_finished()
                rows.append((headroom, granted, report))
            return rows

        rows = run_once(benchmark, sweep)
        startups = [r.startup_latency for _, _, r in rows]
        assert startups == sorted(startups, reverse=True)
        assert startups[-1] < startups[0] / 2.5  # 9x grant ≥ 2.5x faster start
        for headroom, _, report in rows:
            assert report.rebuffer_count == 0, headroom
            assert report.max_command_sync_error <= 0.1, headroom
        print("\n[S3b] fast start: client link vs granted burst vs startup latency:")
        print(format_table(
            ["link / bitrate", "granted burst", "startup (s)", "rebuffers",
             "max sync err (ms)"],
            [[h, g, r.startup_latency, r.rebuffer_count,
              r.max_command_sync_error * 1000] for h, g, r in rows],
        ))
