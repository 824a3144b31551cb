"""Unit tests for ASF encoder, file round-trip, live streams, DRM, dispatcher."""

import pytest

from repro.asf import (
    ASFEncoder,
    ASFError,
    ASFFile,
    ASFLiveStream,
    DRMError,
    EncoderConfig,
    FLAG_SEEKABLE,
    LicenseServer,
    MediaUnit,
    ScriptCommand,
    ScriptCommandDispatcher,
    add_script_commands,
    scramble,
    slide_commands,
)
from repro.asf.header import FileProperties, HeaderObject, StreamProperties
from repro.media import AudioObject, ImageObject, VideoObject, get_profile
from repro.media.clock import media_ms

PROFILE = get_profile("dsl-256k")


def encode_lecture(**kwargs):
    encoder = ASFEncoder(EncoderConfig(profile=PROFILE))
    defaults = dict(
        file_id="lec",
        video=VideoObject("talk", 10.0, width=320, height=240, fps=10),
        audio=AudioObject("voice", 10.0),
        images=[(ImageObject(f"s{i}", 5.0, width=320, height=240), i * 5.0)
                for i in range(2)],
        commands=slide_commands([("s0", 0.0), ("s1", 5.0)]),
    )
    defaults.update(kwargs)
    return encoder.encode_file(**defaults)


class TestEncodeFile:
    def test_stream_table(self):
        asf = encode_lecture()
        types = [s.stream_type for s in asf.header.streams]
        assert types == ["video", "audio", "image", "command"]

    def test_duration_from_sources(self):
        asf = encode_lecture()
        assert asf.duration == pytest.approx(10.0)

    def test_indexed_and_seekable(self):
        asf = encode_lecture()
        assert asf.index is not None
        assert asf.header.file_properties.flags & FLAG_SEEKABLE

    def test_commands_in_header(self):
        asf = encode_lecture()
        assert [c.parameter for c in asf.header.script_commands] == ["s0", "s1"]

    def test_nothing_to_encode_rejected(self):
        encoder = ASFEncoder(EncoderConfig(profile=PROFILE))
        with pytest.raises(ASFError):
            encoder.encode_file(file_id="x")

    def test_binary_round_trip(self, monkeypatch):
        monkeypatch.setattr(EncoderConfig, "metadata", {"title": "T"})
        asf = encode_lecture()
        clone = ASFFile.unpack(asf.pack())
        assert clone.packet_count == asf.packet_count
        assert clone.header.metadata == {"title": "T"}
        assert clone.header.file_properties.duration_ms == 10_000
        assert len(clone.units()) == len(asf.units())

    def test_save_load(self, tmp_path):
        asf = encode_lecture()
        path = tmp_path / "lecture.asf"
        path.write_bytes(asf.pack())
        clone = ASFFile.load(str(path))
        assert clone.packet_count == asf.packet_count

    def test_video_only(self):
        asf = encode_lecture(audio=None, images=(), commands=())
        assert [s.stream_type for s in asf.header.streams] == ["video"]

    def test_bitrates_match_profile(self):
        asf = encode_lecture()
        video = asf.header.streams_of_type("video")[0]
        assert video.bitrate == pytest.approx(PROFILE.video_bitrate, rel=0.05)

    def test_unpack_garbage_rejected(self):
        with pytest.raises(ASFError):
            ASFFile.unpack(b"MP4\x00garbage data here")


class TestPostIndexing:
    def test_add_script_commands_merges(self):
        asf = encode_lecture(commands=slide_commands([("s0", 0.0)]))
        updated = add_script_commands(
            asf, [ScriptCommand(7_000, "CAPTION", "hello")]
        )
        types = [c.type for c in updated.header.script_commands]
        assert types == ["SLIDE", "CAPTION"]
        # original untouched
        assert len(asf.header.script_commands) == 1

    def test_cannot_post_index_broadcast(self):
        header = HeaderObject(
            FileProperties("live", flags=1),
            streams=[StreamProperties(1, "video")],
        )
        live_file = ASFFile(header=header)
        with pytest.raises(ASFError):
            add_script_commands(live_file, [])


class TestLiveStream:
    def make_session(self):
        encoder = ASFEncoder(EncoderConfig(profile=PROFILE))
        return encoder.start_live(
            file_id="live1",
            streams=[StreamProperties(1, "video", codec="mpeg4", bitrate=200_000)],
            bitrate=200_000,
        )

    def test_requires_broadcast_flag(self):
        header = HeaderObject(FileProperties("x"), streams=[])
        with pytest.raises(ASFError):
            ASFLiveStream(header)

    def test_capture_produces_packets(self):
        session = self.make_session()
        units = [MediaUnit(1, i, i * 100, True, b"f" * 500) for i in range(10)]
        produced = session.capture(units)
        assert produced > 0
        assert session.stream.available == produced

    def test_sequence_numbers_continuous_across_captures(self):
        session = self.make_session()
        session.capture([MediaUnit(1, 0, 0, True, b"f" * 500)])
        session.capture([MediaUnit(1, 1, 100, True, b"f" * 500)])
        due = session.stream.packets
        assert [p.sequence for p in due] == list(range(len(due)))

    def test_live_command_injection(self):
        session = self.make_session()
        session.send_command(ScriptCommand(0, "SLIDE", "s0"))
        assert session.stream.available == 1

    def test_closed_stream_rejects_append(self):
        session = self.make_session()
        session.finish()
        with pytest.raises(ASFError):
            session.capture([MediaUnit(1, 0, 0, True, b"x")])

    def test_empty_capture_noop(self):
        session = self.make_session()
        assert session.capture([]) == 0


class TestDRM:
    def test_protected_flag_and_header(self):
        server = LicenseServer()
        asf = encode_lecture(license_server=server)
        assert asf.header.file_properties.is_protected
        assert asf.header.drm.content_id == "lec"

    def test_license_flow(self):
        server = LicenseServer()
        server.register("c1")
        server.entitle("c1", "alice")
        lic = server.acquire("c1", "alice")
        assert lic.key

    def test_unentitled_user_denied(self):
        server = LicenseServer()
        server.register("c1")
        with pytest.raises(DRMError):
            server.acquire("c1", "bob")

    def test_revocation(self):
        server = LicenseServer()
        server.register("c1")
        server.entitle("c1", "alice")
        server.revoke("c1", "alice")
        with pytest.raises(DRMError):
            server.acquire("c1", "alice")

    def test_unknown_content(self):
        server = LicenseServer()
        with pytest.raises(DRMError):
            server.acquire("nope", "alice")
        with pytest.raises(DRMError):
            server.entitle("nope", "alice")

    def test_scramble_involutive(self):
        data = b"the quick brown fox" * 10
        key = "k123"
        assert scramble(scramble(data, key), key) == data
        assert scramble(data, key) != data

    def test_protected_content_differs_from_clear(self):
        server = LicenseServer()
        config = EncoderConfig(profile=PROFILE, with_data=True)
        video = VideoObject("v", 2.0, width=64, height=64, fps=5)
        clear = ASFEncoder(config).encode_file(file_id="c", video=video)
        protected = ASFEncoder(config).encode_file(
            file_id="c", video=video, license_server=server
        )
        assert clear.units()[0].data != protected.units()[0].data
        key = server.register("c")
        assert scramble(protected.units()[0].data, key) == clear.units()[0].data


class TestDispatcher:
    def make(self, commands):
        fired = []
        dispatcher = ScriptCommandDispatcher(commands, fired.append)
        return dispatcher, fired

    COMMANDS = [
        ScriptCommand(0, "SLIDE", "s0"),
        ScriptCommand(5_000, "SLIDE", "s1"),
        ScriptCommand(7_000, "CAPTION", "hi"),
        ScriptCommand(10_000, "SLIDE", "s2"),
    ]

    def test_advance_fires_due_commands_once(self):
        dispatcher, fired = self.make(self.COMMANDS)
        dispatcher.advance_to_ms(media_ms(6.0))
        assert [c.parameter for c in fired] == ["s0", "s1"]
        dispatcher.advance_to_ms(media_ms(6.5))
        assert len(fired) == 2  # nothing new

    def test_advance_to_end(self):
        dispatcher, fired = self.make(self.COMMANDS)
        dispatcher.advance_to_ms(media_ms(60.0))
        assert len(fired) == 4 and dispatcher.pending == 0

    def test_seek_replays_latest_stateful_per_type(self):
        dispatcher, fired = self.make(self.COMMANDS)
        replayed = dispatcher.seek(8.0)
        # latest SLIDE (s1) and CAPTION (hi); not s0
        assert {(c.type, c.parameter) for c in replayed} == {
            ("SLIDE", "s1"), ("CAPTION", "hi")
        }

    def test_seek_then_advance_continues_forward(self):
        dispatcher, fired = self.make(self.COMMANDS)
        dispatcher.seek(8.0)
        dispatcher.advance_to_ms(media_ms(11.0))
        assert fired[-1].parameter == "s2"

    def test_seek_backward(self):
        dispatcher, fired = self.make(self.COMMANDS)
        dispatcher.advance_to_ms(media_ms(60.0))
        replayed = dispatcher.seek(1.0)
        assert [c.parameter for c in replayed] == ["s0"]
        dispatcher.advance_to_ms(media_ms(6.0))
        assert fired[-1].parameter == "s1"
