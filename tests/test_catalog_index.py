"""The searchable lecture catalog (:mod:`repro.catalog`).

The catalog is built from artifacts the system already publishes —
header metadata, SLIDE script commands, the ASF simple index — so these
tests pin three promises:

* **determinism**: the same published grid always yields the same
  catalog export, search ranking, and TOC (byte-for-byte);
* **navigability**: ``seek_to_slide`` resolves to exactly the packet
  run playback would fetch — a player seeking through the catalog
  renders the same units as one that started at the slide's position
  (the manual ``expect_replay()`` path);
* **freshness**: a republish re-indexes the variant, bumping the
  recorded cache key (what prefetch and invalidation key off).
"""

import pytest

from repro.asf import ASFEncoder, EncoderConfig, slide_commands
from repro.catalog import CatalogIndex, tokenize
from repro.lod import Lecture, LODPublisher
from repro.media import AudioObject, ImageObject, VideoObject, get_profile
from repro.streaming import MediaPlayer, MediaServer, PlayerState
from repro.web import VirtualNetwork

PROFILE = get_profile("dsl-256k")
DURATION = 20.0
SLIDES = 4


def make_asf(file_id="lec", title=None, duration=DURATION, slides=SLIDES):
    per_slide = duration / slides
    encoder = ASFEncoder(EncoderConfig(profile=PROFILE))
    asf = encoder.encode_file(
        file_id=file_id,
        video=VideoObject("talk", duration, width=320, height=240, fps=10),
        audio=AudioObject("voice", duration),
        images=[
            (ImageObject(f"s{i}", per_slide, width=320, height=240),
             i * per_slide)
            for i in range(slides)
        ],
        commands=slide_commands(
            [(f"s{i}", i * per_slide) for i in range(slides)]
        ),
    )
    if title is not None:
        asf.header.metadata["title"] = title
    return asf


def grid_lecture(durations=(12, 8, 10, 6)):
    return Lecture.from_slide_durations(
        "Queueing Theory", "Prof", list(durations),
        importances=[0, 1, 0, 1], slide_width=160, slide_height=120,
    )


class TestTokenize:
    def test_lowercases_and_splits_on_non_alnum(self):
        assert tokenize("Queueing-Theory, Part 2!") == [
            "queueing", "theory", "part", "2",
        ]

    def test_empty(self):
        assert tokenize("--- ") == []


class TestCatalogBuild:
    def test_toc_lists_every_slide_in_order(self):
        asf = make_asf()
        catalog = CatalogIndex()
        catalog.add_variant("lec", asf)
        toc = catalog.toc("lec")
        assert [ref.slide for ref in toc] == ["s0", "s1", "s2", "s3"]
        assert [ref.timestamp for ref in toc] == [0.0, 5.0, 10.0, 15.0]

    def test_slide_refs_resolve_to_simple_index_offsets(self):
        asf = make_asf()
        catalog = CatalogIndex()
        catalog.add_variant("lec", asf)
        index = asf.ensure_index()
        for ref in catalog.toc("lec"):
            assert ref.packet_sequence == index.seek(ref.timestamp)
            # the run playback would fetch starts exactly there
            run = asf.packets_from(ref.timestamp)
            assert run[0].sequence == ref.packet_sequence

    def test_entry_carries_cache_key_and_wire_size(self):
        asf = make_asf()
        catalog = CatalogIndex()
        entry = catalog.add_variant("lec", asf)
        assert entry.cache_key == asf.fingerprint()
        assert entry.size_bytes == len(asf.header.pack()) + asf.data_size()

    def test_reindex_replaces_entry_and_bumps_cache_key(self):
        catalog = CatalogIndex()
        old = catalog.add_variant("lec", make_asf(title="Old Title"))
        new = catalog.add_variant(
            "lec", make_asf(duration=24.0, title="New Title")
        )
        assert len(catalog) == 1
        assert catalog.entry("lec").cache_key == new.cache_key
        assert new.cache_key != old.cache_key
        # old title's postings are gone with the old entry
        assert catalog.search("old") == []
        assert [h.point for h in catalog.search("new")] == ["lec"]

    def test_determinism_same_grid_same_export(self):
        builds = []
        for _ in range(2):
            catalog = CatalogIndex()
            result = LODPublisher(
                renditions=[PROFILE], catalog=catalog
            ).publish(grid_lecture(), "qt")
            assert result.variants
            builds.append(catalog.export())
        assert builds[0] == builds[1]

    def test_grid_variants_share_lecture_name(self):
        catalog = CatalogIndex()
        LODPublisher(renditions=[PROFILE], catalog=catalog).publish(
            grid_lecture(), "qt"
        )
        variants = catalog.variants_of("qt")
        assert variants
        assert all(v.lecture == "qt" for v in variants)
        assert all(v.point.startswith("qt-l") for v in variants)


class TestSearch:
    def build(self):
        catalog = CatalogIndex()
        catalog.add_variant("intro", make_asf("intro", title="Intro to Queueing"))
        catalog.add_variant("adv", make_asf("adv", title="Advanced Networks"))
        return catalog

    def test_title_tokens_outweigh_command_tokens(self):
        catalog = self.build()
        # "queueing" appears only in intro's title; slide names s0..s3
        # appear as command parameters in both
        hits = catalog.search("queueing s1")
        assert hits[0].point == "intro"
        assert hits[0].score > hits[1].score

    def test_ties_break_lexicographically(self):
        catalog = self.build()
        hits = catalog.search("s2")  # same command weight in both
        assert [h.point for h in hits] == ["adv", "intro"]
        assert hits[0].score == hits[1].score

    def test_search_is_deterministic(self):
        catalog = self.build()
        first = catalog.search("queueing networks s0")
        for _ in range(3):
            assert catalog.search("queueing networks s0") == first

    def test_limit_and_miss(self):
        catalog = self.build()
        assert catalog.search("s3", limit=1)[0].point == "adv"
        assert catalog.search("nonexistent-word") == []

    def test_matched_tokens_reported(self):
        catalog = self.build()
        (hit,) = catalog.search("advanced networks")
        assert hit.matched == ("advanced", "networks")


class TestSeekToSlide:
    def test_unknown_slide_raises(self):
        catalog = CatalogIndex()
        catalog.add_variant("lec", make_asf())
        with pytest.raises(KeyError):
            catalog.seek_to_slide("lec", "s99")
        with pytest.raises(KeyError):
            catalog.seek_to_slide("ghost", "s0")

    def test_catalog_seek_matches_manual_replay_seek(self):
        """A player seeking via the catalog renders the same tail as one
        started at the slide position (the ``expect_replay()`` path)."""
        asf = make_asf()
        catalog = CatalogIndex()
        catalog.add_variant("lec", asf)
        ref = catalog.seek_to_slide("lec", "s2")
        assert ref.timestamp == 10.0

        net = VirtualNetwork()
        origin = MediaServer(net, "origin", port=8080, pacing_quantum=0.5)
        origin.publish("lec", asf)
        for host in ("nav", "direct"):
            net.connect("origin", host, bandwidth=2_000_000, delay=0.02)
        url = f"http://origin:8080/lod/lec"

        # catalog-navigating player: start from zero, then jump to s2
        nav = MediaPlayer(net, "nav", user="nav")
        nav.connect(url)
        nav.play()
        net.simulator.run_until(4.0)
        nav.seek(ref.timestamp)
        net.simulator.run_until(80.0)
        if nav.state is not PlayerState.FINISHED:
            nav.stop()

        # reference player: plays the slide's tail directly
        direct = MediaPlayer(net, "direct", user="direct")
        direct.connect(url)
        direct.play(start=ref.timestamp)
        net.simulator.run_until(160.0)
        if direct.state is not PlayerState.FINISHED:
            direct.stop()

        def keys(report):
            # everything rendered at/after the slide's playback position
            return {
                (r.unit.stream_number, r.unit.object_number)
                for r in report.rendered
                if r.position >= ref.timestamp
            }

        assert keys(nav.report()) == keys(direct.report())

    def test_slide_command_fires_after_catalog_seek(self):
        asf = make_asf()
        catalog = CatalogIndex()
        catalog.add_variant("lec", asf)
        ref = catalog.seek_to_slide("lec", "s3")

        net = VirtualNetwork()
        origin = MediaServer(net, "origin", port=8080, pacing_quantum=0.5)
        origin.publish("lec", asf)
        net.connect("origin", "nav", bandwidth=2_000_000, delay=0.02)
        player = MediaPlayer(net, "nav", user="nav")
        player.connect("http://origin:8080/lod/lec")
        player.play(start=ref.timestamp)
        net.simulator.run_until(60.0)
        if player.state is not PlayerState.FINISHED:
            player.stop()
        fired = [c.command.parameter for c in player.report().commands
                 if c.command.type == "SLIDE"]
        assert fired and fired[0] == "s3"
