"""One stored-file assembler: byte identity, cache-key stability, one site.

Every stored ``.asf`` — single-rate, multi-bitrate, LOD grid variant — is
built by the two steps of :func:`repro.asf.encoder.assemble_asf`
(``file_header``, ``packetize_file``). The fingerprints below
were computed at the commit *before* the three hand-written copies were
folded into it; the AST walks keep the copies (and the relay's private
copy of the region topology, the server's second schedule and pacer, and
the autoscaler with its helpers and the options no caller set) from
growing back.
"""

import ast
import copy
from pathlib import Path

from repro.asf import ASFEncoder, EncodeCache, EncoderConfig, slide_commands
from repro.asf.constants import FLAG_SEEKABLE
from repro.asf.packets import DataPacket
from repro.asf.stream import ASFFile
from repro.load import harness
from repro.lod import Lecture, LODPublisher
from repro.media import AudioObject, ImageObject, VideoObject, get_profile

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

LADDER = [get_profile(n) for n in ("dsl-256k", "modem-56k", "lan-1m")]
VIDEO = VideoObject("talk", 9.0, width=320, height=240, fps=10)
AUDIO = AudioObject("voice", 9.0)
IMAGES = [
    (ImageObject("s0", 4.5, width=160, height=120), 0.0),
    (ImageObject("s1", 4.5, width=160, height=120), 4.5),
]
COMMANDS = slide_commands([("s0", 0.0), ("s1", 4.5)])
SOURCES = dict(video=VIDEO, audio=AUDIO, images=IMAGES, commands=COMMANDS)


def encoder(cache=None):
    config = EncoderConfig(profile=LADDER[0], metadata={"title": "T"})
    return ASFEncoder(config, cache=cache)


class TestGoldenFingerprints:
    def test_single_rate_lecture(self):
        asf = harness.encode_lecture("lec0", 12.0)
        assert asf.fingerprint() == "77961d347d4d97d8fa79713bff43cd1f76b8a855"

    def test_three_rendition_mbr_file(self):
        asf = encoder().encode_file_mbr(
            file_id="mbr0", renditions=LADDER, **SOURCES
        )
        assert asf.fingerprint() == "20b09ab4b8d4e2cd3f547f77acdf7d28b4a28207"

    def test_lod_grid_variants(self):
        lecture = Lecture.from_slide_durations(
            "grid-talk", "Prof", [12, 8, 10, 6, 9, 5],
            importances=[0, 1, 2, 0, 1, 2], slide_width=160, slide_height=120,
        )
        renditions = [get_profile("modem-56k"), get_profile("dsl-256k")]
        result = LODPublisher(renditions=renditions).publish(lecture, "p")
        assert result.variant(1, "modem-56k").asf.fingerprint() == (
            "3497b57ea727239dbf4e043af41dd5bb03290089"
        )
        assert result.variant(3, "dsl-256k").asf.fingerprint() == (
            "393ff08591f632f17422759824cd43a6c895ba7f"
        )


    def test_memo_holds_while_every_packet_object_stays(self):
        asf = harness.encode_lecture("lec0", 12.0)
        digest = asf.fingerprint()
        # the memo key is the packet objects themselves, one reference each
        image, run, memo = asf.header._fingerprint_memo
        assert memo == digest and image == asf.header.pack()
        assert isinstance(run, tuple)
        assert len(run) == len(asf.packets)
        assert all(a is b for a, b in zip(run, asf.packets))
        asf.header._fingerprint_memo = (image, run, "memo")
        assert asf.fingerprint() == "memo"  # same list, same objects: a hit
        # an equal packet that is another object forces a recompute
        asf.packets[3] = DataPacket.unpack(asf.packets[3].pack())
        assert asf.fingerprint() == digest

    def test_a_new_packet_at_a_freed_packets_address_is_not_a_hit(self):
        asf = harness.encode_lecture("x", 2.0)
        asf.fingerprint()
        old = asf.packets[0]
        replacement = copy.copy(old)
        replacement.send_time_ms += 1
        address = id(old)
        asf.packets[0] = None
        del old
        # new packets take freed blocks first: keep allocating until one
        # sits at the old packet's address, or give up while it is held
        candidates = []
        for _ in range(64):
            candidates.append(copy.copy(replacement))
            if id(candidates[-1]) == address:
                break
        asf.packets[0] = candidates[-1]
        fresh = ASFFile(header=asf.header, packets=list(asf.packets))
        assert asf.fingerprint() == fresh.fingerprint()

    # the digest follows the run: a relay's fill assembles the origin's
    # packet objects under the origin's header in a new ASFFile

    def count_hashed_packets(self, monkeypatch):
        hashed = []
        wire_parts = DataPacket.wire_parts

        def counted(packet):
            hashed.append(packet)
            return wire_parts(packet)

        monkeypatch.setattr(DataPacket, "wire_parts", counted)
        return hashed

    def test_a_second_file_over_the_same_run_hashes_nothing(self, monkeypatch):
        asf = harness.encode_lecture("lec0", 4.0)
        digest = asf.fingerprint()
        hashed = self.count_hashed_packets(monkeypatch)
        relayed = ASFFile(header=asf.header, packets=list(asf.packets))
        assert relayed.fingerprint() == digest
        assert hashed == []

    def test_another_packet_object_hashes_the_run_again(self, monkeypatch):
        asf = harness.encode_lecture("lec0", 4.0)
        digest = asf.fingerprint()
        packets = list(asf.packets)
        packets[5] = DataPacket.unpack(packets[5].pack())  # equal, not it
        hashed = self.count_hashed_packets(monkeypatch)
        assert ASFFile(header=asf.header, packets=packets).fingerprint() == digest
        assert len(hashed) == len(packets)
        altered = copy.copy(packets[5])
        altered.send_time_ms += 1
        packets[5] = altered
        assert ASFFile(header=asf.header, packets=packets).fingerprint() != digest
        assert len(hashed) == 2 * len(packets)

    def test_a_changed_header_hashes_the_run_again(self, monkeypatch):
        asf = harness.encode_lecture("lec0", 4.0)
        digest = asf.fingerprint()
        hashed = self.count_hashed_packets(monkeypatch)
        asf.header.file_properties.flags ^= FLAG_SEEKABLE
        relayed = ASFFile(header=asf.header, packets=list(asf.packets))
        assert relayed.fingerprint() != digest
        assert len(hashed) == len(asf.packets)
        # the new digest now follows the run in turn, for both files
        assert asf.fingerprint() == relayed.fingerprint()
        assert len(hashed) == len(asf.packets)


class TestCacheKeysUnchanged:
    """Keys written by the two former key functions still hit."""

    def old_tail(self, enc):
        cfg = enc.config
        return (
            cfg.packet_size, cfg.preroll_ms, cfg.with_data,
            tuple(sorted(cfg.metadata.items())),
        )

    def test_old_single_rate_key_hits(self):
        cache = EncodeCache()
        enc = encoder(cache)
        old_key = (
            "f", VIDEO, AUDIO, tuple(IMAGES), tuple(sorted(COMMANDS)),
            enc.config.profile,
        ) + self.old_tail(enc)
        stored = encoder().encode_file(file_id="f", **SOURCES)
        cache.store(old_key, stored)
        assert enc.encode_file(file_id="f", **SOURCES) is stored
        assert (cache.hits, cache.misses) == (1, 0)

    def test_old_mbr_key_hits(self):
        cache = EncodeCache()
        enc = encoder(cache)
        ordered = sorted(LADDER, key=lambda p: p.video_bitrate)
        old_key = (
            "mbr", "f", VIDEO, AUDIO, tuple(IMAGES), tuple(sorted(COMMANDS)),
            tuple(ordered),
        ) + self.old_tail(enc)
        stored = encoder().encode_file_mbr(
            file_id="f", renditions=LADDER, **SOURCES
        )
        cache.store(old_key, stored)
        again = enc.encode_file_mbr(file_id="f", renditions=LADDER, **SOURCES)
        assert again is stored
        assert (cache.hits, cache.misses) == (1, 0)


def _sites(is_site, root=SRC):
    """``{"pkg/file.py:function"}`` of the innermost defs holding a match."""
    found = set()

    def visit(node, where, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if is_site(node):
            found.add(f"{where}:{owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, where, owner)

    for path in sorted(root.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()
        visit(ast.parse(path.read_text()), where, "<module>")
    return found


def _calls(name, **keywords):
    def is_site(node):
        if not isinstance(node, ast.Call):
            return False
        callee = getattr(node.func, "id", getattr(node.func, "attr", None))
        given = {
            k.arg: k.value.value for k in node.keywords
            if isinstance(k.value, ast.Constant)
        }
        return callee == name and all(
            given.get(k) == v for k, v in keywords.items()
        )
    return is_site


class TestOneBodyPerJob:
    def test_one_duration_paced_packetizer_site(self):
        assert _sites(_calls("Packetizer", pacing="duration")) == {
            "asf/encoder.py:packetize_file"
        }

    def test_one_stored_file_header_site(self):
        # start_live writes the (broadcast) header of a live stream; every
        # stored file's header comes from the assembler's header step
        assert _sites(_calls("HeaderObject")) == {
            "asf/encoder.py:file_header", "asf/encoder.py:start_live",
        }

    def test_one_drain_loop_in_the_engine(self):
        # step pops one event, peek_time only discards cancelled heads
        def names_heappop(node):
            return isinstance(node, ast.Attribute) and node.attr == "heappop"

        assert _sites(names_heappop, SRC / "net") == {
            "net/engine.py:peek_time", "net/engine.py:step",
            "net/engine.py:_drain",
        }

    def test_relays_keep_no_copy_of_the_region_parent(self):
        def reads_parent_url(node):
            return isinstance(node, ast.Attribute) and node.attr == "parent_url"

        for package in ("streaming", "control"):
            assert _sites(reads_parent_url, SRC / package) == set()

    def test_one_schedule_per_point(self):
        # stored and live points alike: publish builds the one schedule
        assert _sites(_calls("_PointSchedule")) == {
            "streaming/server.py:publish"
        }

    def test_no_second_sequence_index_or_pacer(self):
        gone = {
            "shared_pacing", "pacing_handle", "_pace_origin", "_pace_base",
            "_live_index", "_live_scanned", "_live_index_for",
            "_schedule_next_packet", "_transmit",
            # the autoscaler, the helpers only it read, and the
            # supervision and tier-builder options no caller set
            "Autoscaler", "CapacityPolicy", "LatentEdge", "edge_load",
            "edges", "modeled_viewers", "unwatch", "vnodes",
            "parent_failover", "sweep_interval", "beacon_bandwidth",
            "beacon_delay",
        }

        def names_a_gone_thing(node):
            # a variable, attribute, argument, keyword or definition
            return any(
                getattr(node, field, None) in gone
                for field in ("id", "attr", "arg", "name")
            )

        for package in ("streaming", "control"):
            assert _sites(names_a_gone_thing, SRC / package) == set()
