"""Unit tests for fast-start burst delivery and multi-bitrate streaming."""

import pytest

from repro.asf import ASFEncoder, EncoderConfig, slide_commands
from repro.asf.drm import LicenseServer
from repro.media import AudioObject, ImageObject, VideoObject, get_profile
from repro.streaming import MediaPlayer, MediaServer, SessionError
from repro.web import VirtualNetwork


def single_rate_asf(duration=30.0):
    return ASFEncoder(EncoderConfig(profile=get_profile("dsl-256k"))).encode_file(
        file_id="single",
        video=VideoObject("talk", duration, width=320, height=240, fps=10),
        audio=AudioObject("voice", duration),
    )


def mbr_asf(duration=20.0, rendition_names=("modem-56k", "isdn-dual", "dsl-256k", "lan-1m")):
    renditions = [get_profile(n) for n in rendition_names]
    encoder = ASFEncoder(EncoderConfig(profile=renditions[-1]))
    return encoder.encode_file_mbr(
        file_id="mbr",
        video=VideoObject("talk", duration, width=640, height=480, fps=25),
        renditions=renditions,
        audio=AudioObject("voice", duration),
        commands=slide_commands([("s0", 0.0), ("s1", duration / 2)]),
    )


def world(asf, *, bandwidth=2e6, host="student", **link):
    net = VirtualNetwork()
    net.connect("server", host, bandwidth=bandwidth, queue_limit=10_000, **link)
    server = MediaServer(net, "server", port=8080)
    server.publish("p", asf)
    return net, server


class TestFastStart:
    def test_burst_cuts_startup_latency(self):
        """The grant follows the link: the same file, the same client
        code, over a link with no headroom and one with plenty."""
        asf = single_rate_asf()
        preroll = asf.header.file_properties.preroll_ms / 1000.0

        def watch_over(headroom):
            net, server = world(
                asf, bandwidth=headroom * asf.header.total_bitrate
            )
            return MediaPlayer(net, "student").watch(server.url_of("p"))

        narrow, wide = watch_over(1.1), watch_over(8.0)
        # 1.1x less the usual headroom leaves nothing to burst with
        assert narrow.startup_latency >= preroll
        assert wide.startup_latency < preroll / 2
        assert wide.rebuffer_count == 0
        assert wide.duration_watched == pytest.approx(30.0, abs=0.2)

    def test_burst_does_not_change_sync(self):
        net, server = world(single_rate_asf())
        player = MediaPlayer(net, "student")
        player.connect(server.url_of("p"))
        player.play()
        report = player.run_until_finished()
        assert report.max_command_sync_error <= 0.1

    def test_burst_factor_below_one_rejected(self):
        net, server = world(single_rate_asf())
        session = server.open_session("p", "student", lambda pkt: None)
        with pytest.raises(SessionError):
            server.play(session.session_id, burst_factor=0.5)

    def test_burst_after_settling_is_realtime(self):
        # after the burst window the stream must not outrun real time by
        # more than the burst window itself
        net, server = world(single_rate_asf())
        player = MediaPlayer(net, "student")
        player.connect(server.url_of("p"))
        player.play()
        player.run_until_finished()
        session_stats = server.sessions  # session already closed
        # playback completed at roughly real time + startup
        assert net.simulator.now == pytest.approx(30.0, abs=3.5)


class TestMBREncoding:
    def test_rendition_streams_tagged(self):
        asf = mbr_asf()
        group = asf.header.mbr_group("video")
        assert len(group) == 4
        rates = [s.bitrate for s in group]
        assert rates == sorted(rates)
        assert [s.extra["mbr_rank"] for s in group] == ["0", "1", "2", "3"]

    def test_single_audio_stream(self):
        asf = mbr_asf()
        assert len(asf.header.streams_of_type("audio")) == 1

    def test_mbr_group_empty_for_single_rate(self):
        assert single_rate_asf().header.mbr_group("video") == []

    def test_requires_renditions(self):
        encoder = ASFEncoder(EncoderConfig(profile=get_profile("dsl-256k")))
        with pytest.raises(Exception):
            encoder.encode_file_mbr(
                file_id="x", video=VideoObject("v", 5.0), renditions=[]
            )

    def test_binary_round_trip_preserves_mbr_tags(self):
        from repro.asf import ASFFile

        asf = mbr_asf()
        clone = ASFFile.unpack(asf.pack())
        assert len(clone.header.mbr_group("video")) == 4

    def test_mbr_drm(self):
        licenses = LicenseServer()
        renditions = [get_profile("modem-56k"), get_profile("dsl-256k")]
        encoder = ASFEncoder(EncoderConfig(profile=renditions[-1]))
        asf = encoder.encode_file_mbr(
            file_id="pmbr",
            video=VideoObject("v", 5.0, width=160, height=120, fps=10),
            renditions=renditions,
            license_server=licenses,
        )
        assert asf.header.file_properties.is_protected


class TestIntelligentStreaming:
    @pytest.mark.parametrize(
        "bandwidth, expected_profile",
        [
            (80_000, "modem-56k"),     # floor rendition even if tight
            (200_000, "isdn-dual"),
            (400_000, "dsl-256k"),
            (5_000_000, "lan-1m"),
        ],
    )
    def test_server_picks_fitting_rendition(self, bandwidth, expected_profile):
        asf = mbr_asf()
        net, server = world(asf, bandwidth=bandwidth)
        player = MediaPlayer(net, "student")
        report = player.watch(server.url_of("p"))
        chosen = asf.header.stream(player.selected_video)
        assert chosen.extra["profile"] == expected_profile
        assert report.duration_watched == pytest.approx(20.0, abs=0.3)

    def test_only_selected_rendition_delivered(self):
        asf = mbr_asf()
        net, server = world(asf, bandwidth=400_000)
        player = MediaPlayer(net, "student")
        report = player.watch(server.url_of("p"))
        video_streams = {s.stream_number for s in asf.header.mbr_group("video")}
        received = {r.unit.stream_number for r in report.rendered}
        assert received & video_streams == {player.selected_video}

    def test_thinning_reduces_bytes_on_the_wire(self):
        asf = mbr_asf()
        full_wire = asf.data_size()
        net, server = world(asf, bandwidth=200_000)
        player = MediaPlayer(net, "student")
        player.watch(server.url_of("p"))
        link = net.link("server", "student")
        # the slow client received far less than the full multi-rate file
        assert link.stats.bytes_delivered < full_wire * 0.5

    def test_slides_and_commands_survive_thinning(self):
        asf = mbr_asf()
        net, server = world(asf, bandwidth=200_000)
        player = MediaPlayer(net, "student")
        report = player.watch(server.url_of("p"))
        slides = [c.command.parameter for c in report.slide_changes()]
        assert slides == ["s0", "s1"]
        assert report.max_command_sync_error <= 0.1

    def test_different_clients_get_different_renditions(self):
        asf = mbr_asf()
        net = VirtualNetwork()
        net.connect("server", "slow", bandwidth=100_000, queue_limit=10_000)
        net.connect("server", "fast", bandwidth=5_000_000)
        server = MediaServer(net, "server", port=8080)
        server.publish("p", asf)
        slow = MediaPlayer(net, "slow")
        fast = MediaPlayer(net, "fast")
        slow.connect(server.url_of("p"))
        fast.connect(server.url_of("p"))
        slow.play()
        fast.play()
        slow_rep = slow.run_until_finished()
        fast_rep = fast.run_until_finished()
        assert slow.selected_video != fast.selected_video
        slow_profile = asf.header.stream(slow.selected_video).extra["profile"]
        fast_profile = asf.header.stream(fast.selected_video).extra["profile"]
        assert slow_profile == "modem-56k" and fast_profile == "lan-1m"
        assert slow_rep.rebuffer_count == 0 and fast_rep.rebuffer_count == 0

    def test_qos_reservation_uses_selected_bitrate(self):
        asf = mbr_asf()
        net = VirtualNetwork()
        net.connect("server", "student", bandwidth=400_000, queue_limit=10_000)
        server = MediaServer(net, "server", port=8080, qos_enabled=True)
        server.publish("p", asf)
        session = server.open_session("p", "student", lambda pkt: None)
        # the reservation is for the chosen rendition, not the full file
        assert session.reservation.spec.bandwidth < asf.header.total_bitrate / 2
