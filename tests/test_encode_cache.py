"""EncodeCache and the write path — the encode-once layer.

A re-encode of identical sources must be a cache hit returning the same
:class:`ASFFile`; any knob that changes the output bytes must miss; and
:meth:`DataPacket.pack` writes the wire image per call, so it reflects
every mutation and no packet or file keeps a copy of it.
"""

import gc
import tracemalloc

from repro.asf import (
    ASFEncoder,
    DataPacket,
    EncodeCache,
    EncoderConfig,
    Payload,
)
from repro.asf.drm import LicenseServer
from repro.lod import Lecture, LODPublisher
from repro.media import get_profile
from repro.media.objects import AudioObject, ImageObject, VideoObject


def sources():
    video = VideoObject("talk", 12.0, width=320, height=240, fps=15.0)
    audio = AudioObject("voice", 12.0, sample_rate=22_050, channels=1)
    images = [
        (ImageObject("s0", 6.0, width=640, height=480, seed="s0"), 0.0),
        (ImageObject("s1", 6.0, width=640, height=480, seed="s1"), 6.0),
    ]
    return video, audio, images


def make_encoder(cache, **config_kwargs):
    config = EncoderConfig(profile=get_profile("isdn-dual"), **config_kwargs)
    return ASFEncoder(config, cache=cache)


class TestEncodeCache:
    def test_identical_encode_hits(self):
        cache = EncodeCache()
        video, audio, images = sources()
        first = make_encoder(cache).encode_file(
            file_id="L1", video=video, audio=audio, images=images
        )
        again = make_encoder(cache).encode_file(
            file_id="L1", video=video, audio=audio, images=images
        )
        assert again is first
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    def test_different_file_id_misses(self):
        cache = EncodeCache()
        video, audio, images = sources()
        a = make_encoder(cache).encode_file(file_id="A", video=video)
        b = make_encoder(cache).encode_file(file_id="B", video=video)
        assert a is not b
        assert cache.hits == 0
        assert len(cache) == 2

    def test_profile_changes_miss(self):
        cache = EncodeCache()
        video, _, _ = sources()
        isdn = ASFEncoder(
            EncoderConfig(profile=get_profile("isdn-dual")), cache=cache
        ).encode_file(file_id="L", video=video)
        lan = ASFEncoder(
            EncoderConfig(profile=get_profile("lan-1m")), cache=cache
        ).encode_file(file_id="L", video=video)
        assert lan is not isdn
        assert cache.hits == 0

    def test_packet_size_changes_miss(self):
        cache = EncodeCache()
        video, _, _ = sources()
        small = make_encoder(cache, packet_size=800).encode_file(
            file_id="L", video=video
        )
        large = make_encoder(cache, packet_size=2_000).encode_file(
            file_id="L", video=video
        )
        assert small is not large
        assert small.header.file_properties.packet_size == 800
        assert large.header.file_properties.packet_size == 2_000

    def test_metadata_changes_miss(self):
        cache = EncodeCache()
        video, _, _ = sources()
        first = make_encoder(cache, metadata={"title": "x"}).encode_file(
            file_id="L", video=video
        )
        second = make_encoder(cache, metadata={"title": "y"}).encode_file(
            file_id="L", video=video
        )
        assert first is not second

    def test_drm_bypasses_cache(self):
        cache = EncodeCache()
        video, _, _ = sources()
        licenses = LicenseServer()
        encoder = make_encoder(cache)
        protected = encoder.encode_file(
            file_id="L", video=video, license_server=licenses
        )
        again = encoder.encode_file(
            file_id="L", video=video, license_server=licenses
        )
        assert protected is not again  # every publish re-registers a license
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 0)

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(EncodeCache, "MAX_ENTRIES", 2)
        cache = EncodeCache()
        video, _, _ = sources()
        for name in ("A", "B", "C"):
            make_encoder(cache).encode_file(file_id=name, video=video)
        assert len(cache) == 2
        # A was evicted: encoding it again is a miss
        make_encoder(cache).encode_file(file_id="A", video=video)
        assert cache.hits == 0
        # C is still warm
        make_encoder(cache).encode_file(file_id="C", video=video)
        assert cache.hits == 1

    def test_clear(self):
        cache = EncodeCache()
        video, _, _ = sources()
        make_encoder(cache).encode_file(file_id="L", video=video)
        cache.clear()
        assert len(cache) == 0
        make_encoder(cache).encode_file(file_id="L", video=video)
        assert cache.misses == 2

    def test_uncached_encoder_unaffected(self):
        video, _, _ = sources()
        a = make_encoder(None).encode_file(file_id="L", video=video)
        b = make_encoder(None).encode_file(file_id="L", video=video)
        assert a is not b  # no cache: every call builds a fresh file


class TestMBRCache:
    """encode_file_mbr goes through the cache with a rendition-aware key."""

    RENDITIONS = ["modem-56k", "dsl-256k", "lan-1m"]

    def renditions(self):
        return [get_profile(name) for name in self.RENDITIONS]

    def test_identical_mbr_encode_hits(self):
        cache = EncodeCache()
        video, audio, images = sources()
        first = make_encoder(cache).encode_file_mbr(
            file_id="L",
            video=video,
            audio=audio,
            images=images,
            renditions=self.renditions(),
        )
        again = make_encoder(cache).encode_file_mbr(
            file_id="L",
            video=video,
            audio=audio,
            images=images,
            renditions=self.renditions(),
        )
        assert again is first
        assert (cache.hits, cache.misses) == (1, 1)

    def test_rendition_order_is_normalized(self):
        cache = EncodeCache()
        video, _, _ = sources()
        first = make_encoder(cache).encode_file_mbr(
            file_id="L", video=video, renditions=self.renditions()
        )
        shuffled = make_encoder(cache).encode_file_mbr(
            file_id="L", video=video, renditions=self.renditions()[::-1]
        )
        assert shuffled is first

    def test_ladder_change_misses(self):
        cache = EncodeCache()
        video, _, _ = sources()
        full = make_encoder(cache).encode_file_mbr(
            file_id="L", video=video, renditions=self.renditions()
        )
        trimmed = make_encoder(cache).encode_file_mbr(
            file_id="L",
            video=video,
            renditions=self.renditions()[:2],
        )
        assert trimmed is not full
        assert cache.hits == 0

    def test_single_and_mbr_keys_do_not_collide(self):
        cache = EncodeCache()
        video, _, _ = sources()
        single = make_encoder(cache).encode_file(file_id="L", video=video)
        mbr = make_encoder(cache).encode_file_mbr(
            file_id="L", video=video, renditions=[get_profile("isdn-dual")]
        )
        assert mbr is not single
        assert cache.hits == 0

    def test_drm_bypasses_mbr_cache(self):
        cache = EncodeCache()
        video, _, _ = sources()
        licenses = LicenseServer()
        encoder = make_encoder(cache)
        protected = encoder.encode_file_mbr(
            file_id="L",
            video=video,
            renditions=self.renditions(),
            license_server=licenses,
        )
        again = encoder.encode_file_mbr(
            file_id="L",
            video=video,
            renditions=self.renditions(),
            license_server=licenses,
        )
        assert protected is not again
        assert len(cache) == 0
        assert cache.segment_count == 0
        assert (cache.hits, cache.misses) == (0, 0)
        assert (cache.segment_hits, cache.segment_misses) == (0, 0)


class TestSegmentScope:
    def test_segment_entries_counted_separately(self):
        cache = EncodeCache()
        video, audio, images = sources()
        make_encoder(cache).encode_file(
            file_id="L", video=video, audio=audio, images=images
        )
        assert len(cache) == 1  # one file entry
        assert cache.segment_count == 4  # video + audio + two slides
        assert cache.segment_misses == 4

    def test_segment_reuse_across_file_ids(self):
        cache = EncodeCache()
        video, audio, images = sources()
        make_encoder(cache).encode_file(file_id="A", video=video)
        make_encoder(cache).encode_file(file_id="B", video=video)
        # different file id: file-level miss, but the codec run is reused
        assert cache.hits == 0
        assert cache.segment_hits == 1
        assert cache.bytes_saved > 0

    def test_segment_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(EncodeCache, "MAX_SEGMENT_ENTRIES", 1)
        cache = EncodeCache()
        video, audio, _ = sources()
        make_encoder(cache).encode_file(file_id="L", video=video, audio=audio)
        assert cache.segment_count == 1
        assert cache.evictions == 1


class TestPacketRunScope:
    """Grid cells' packet runs live in the file scope under ``"run"`` keys."""

    def lecture(self):
        return Lecture.from_slide_durations(
            "runs", "Prof", [3, 2, 2, 1], importances=[0, 1, 2, 3],
            slide_width=160, slide_height=120,
        )

    def test_runs_past_max_entries_evict_the_oldest(self, monkeypatch):
        from repro.metrics import get_counters

        monkeypatch.setattr(EncodeCache, "MAX_ENTRIES", 3)
        bag = get_counters("encode_cache")
        evicted_before = bag.get("file_evictions")
        cache = EncodeCache()
        renditions = [get_profile("modem-56k"), get_profile("dsl-256k")]
        publisher = LODPublisher(renditions=renditions, cache=cache)
        first = publisher.publish(self.lecture(), "p")
        # 4 levels x 2 renditions: 8 distinct runs through 3 slots
        assert len(first.variants) == 8
        assert len(cache) == 3
        assert cache.evictions == bag.get("file_evictions") - evicted_before == 5
        assert all(key[0] == "run" for key in cache._entries)

        # the newest cells still hit; the oldest were evicted and rebuild
        # into new packets, byte-identical
        for level, shared in ((4, True), (1, False)):
            again = publisher.publish(self.lecture(), "p", levels=[level])
            for profile in again.profiles:
                old = first.variant(level, profile).asf
                new = again.variant(level, profile).asf
                assert (new.packets[0] is old.packets[0]) is shared, (level, profile)
                assert new.pack() == old.pack()
                assert new.fingerprint() == old.fingerprint()


class TestCountersRegistry:
    def test_cache_publishes_to_registry_bag(self):
        from repro.metrics import get_counters

        bag = get_counters("encode_cache")
        before_hits = bag.get("file_hits")
        before_seg = bag.get("segment_misses")
        cache = EncodeCache()
        video, _, _ = sources()
        make_encoder(cache).encode_file(file_id="L", video=video)
        make_encoder(cache).encode_file(file_id="L", video=video)
        assert bag.get("file_hits") == before_hits + 1
        assert bag.get("segment_misses") == before_seg + 1


class TestPackMemo:
    """``pack()`` keeps no memo: every call writes the current state."""

    def packet(self):
        payload = Payload(1, 0, 0, 6, 0, True, b"abcdef")
        return DataPacket(0, 0, [payload], packet_size=200)

    def test_pack_equals_a_fresh_pack(self):
        packet = self.packet()
        first = packet.pack()
        assert packet.pack() == first == self.packet().pack()
        assert b"".join(packet.wire_parts()) == first
        assert len(first) == packet.packet_size

    def test_memo_matches_fresh_pack(self):
        packet = self.packet()
        memoized = packet.pack()
        fresh = self.packet().pack()
        assert memoized == fresh

    def test_mutating_header_fields_invalidates(self):
        packet = self.packet()
        before = packet.pack()
        packet.sequence = 7
        packet.send_time_ms = 1_234
        after = packet.pack()
        assert after is not before
        assert after != before
        reference = DataPacket(
            7, 1_234, list(packet.payloads), packet_size=200
        ).pack()
        assert after == reference

    def test_appending_payload_invalidates(self):
        packet = self.packet()
        before = packet.pack()
        packet.payloads.append(Payload(2, 0, 0, 2, 5, False, b"zz"))
        after = packet.pack()
        assert after != before
        reference = DataPacket(
            0, 0, list(packet.payloads), packet_size=200
        ).pack()
        assert after == reference

    def test_asffile_packed_packets_equal_fresh_packs(self):
        cache = EncodeCache()
        video, audio, images = sources()
        asf = make_encoder(cache).encode_file(
            file_id="L", video=video, audio=audio, images=images
        )
        view = asf.packed_packets()
        assert view == asf.packed_packets()
        assert view == [
            DataPacket(
                p.sequence, p.send_time_ms, list(p.payloads), p.packet_size
            ).pack()
            for p in asf.packets
        ]

    def test_data_size_is_the_packed_run_size(self):
        # the edge cache and the catalog charge header + data_size()
        video, audio, images = sources()
        asf = make_encoder(EncodeCache()).encode_file(
            file_id="L", video=video, audio=audio, images=images
        )
        packed = len(asf.header.pack()) + sum(len(b) for b in asf.packed_packets())
        assert packed == len(asf.header.pack()) + asf.data_size()


class TestWireImageRetention:
    """Packing and fingerprinting a grid leaves no wire image behind."""

    def grid(self):
        lecture = Lecture.from_slide_durations(
            "retention",
            "Prof",
            [6, 4, 5, 3],
            importances=[0, 1, 0, 1],
            slide_width=160,
            slide_height=120,
        )
        renditions = [get_profile("modem-56k"), get_profile("dsl-256k")]
        result = LODPublisher(renditions=renditions).publish(lecture, "p")
        assert len(result.variants) == 4  # two levels x two renditions
        return [variant.asf for variant in result.variants.values()]

    def test_packing_holds_no_second_copy(self):
        files = self.grid()
        total = sum(asf.data_size() for asf in files)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for asf in files:
                assert len(asf.pack()) > asf.data_size()
                assert len(asf.fingerprint()) == 40
                for packet in asf.packets:
                    packet.pack()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 0.10 * total
        for asf in files:
            for obj in (asf, *asf.packets):
                kept = [
                    name
                    for name, value in vars(obj).items()
                    if isinstance(value, bytes)
                    and len(value) == asf.packets[0].packet_size
                ]
                assert kept == [], type(obj).__name__
