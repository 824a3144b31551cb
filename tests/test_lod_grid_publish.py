"""LODPublisher: the levels × renditions grid with segment-level reuse."""

import pytest

from repro.asf import TYPE_SLIDE, TYPE_TREE_LEVEL, EncodeCache, EncodeFarm, Packetizer
from repro.lod import Lecture, LectureError, LODPublisher
from repro.lod.lecture import LectureSegment
from repro.media import get_profile
from repro.media.objects import ImageObject
from repro.streaming import MediaServer, PublishError
from repro.web import VirtualNetwork

RENDITIONS = [get_profile("modem-56k"), get_profile("dsl-256k")]


def lecture():
    return Lecture.from_slide_durations(
        "grid-talk",
        "Prof",
        [12, 8, 10, 6, 9, 5],
        importances=[0, 1, 2, 0, 1, 2],
        slide_width=160,
        slide_height=120,
    )


def edit_slide(lec, index, new_seed):
    """The 'teacher fixed one slide' republish: same timeline, one image."""
    segments = []
    for i, s in enumerate(lec.segments):
        slide = s.slide
        if i == index:
            slide = ImageObject(
                new_seed, s.duration, width=slide.width, height=slide.height
            )
        segments.append(
            LectureSegment(s.name, slide, s.start, s.duration, s.importance)
        )
    return Lecture(
        title=lec.title,
        author=lec.author,
        video=lec.video,
        audio=lec.audio,
        segments=segments,
    )


class TestGridShape:
    def test_publishes_every_cell(self):
        result = LODPublisher(renditions=RENDITIONS).publish(lecture(), "p")
        assert result.levels == (1, 2, 3)
        assert result.profiles == ("modem-56k", "dsl-256k")
        assert len(result.variants) == 6

    def test_levels_nest_and_timelines_are_contiguous(self):
        lec = lecture()
        result = LODPublisher(renditions=RENDITIONS).publish(lec, "p")
        previous = None
        for level in result.levels:
            variant = result.variant(level, "dsl-256k")
            expected = [
                s.name for s in lec.segments if s.importance < level
            ]
            assert list(variant.segments) == expected
            assert variant.duration == pytest.approx(
                sum(s.duration for s in lec.segments if s.importance < level)
            )
            if previous is not None:
                it = iter(variant.segments)
                assert all(name in it for name in previous)
            previous = variant.segments

    def test_variant_carries_level_commands(self):
        result = LODPublisher(renditions=RENDITIONS).publish(lecture(), "p")
        variant = result.variant(2, "modem-56k")
        commands = variant.asf.header.script_commands
        levels = [c for c in commands if c.type == TYPE_TREE_LEVEL]
        slides = [c for c in commands if c.type == TYPE_SLIDE]
        assert [(c.timestamp_ms, c.parameter) for c in levels] == [(0, "2")]
        assert [c.parameter for c in slides] == list(variant.segments)
        # slides fire at the *rebased* starts of the shortened timeline
        assert [c.timestamp_ms for c in slides] == [0, 12_000, 20_000, 26_000]

    def test_explicit_levels_validated(self):
        publisher = LODPublisher(renditions=RENDITIONS)
        result = publisher.publish(lecture(), "p", levels=[2])
        assert result.levels == (2,)
        with pytest.raises(LectureError):
            publisher.publish(lecture(), "p", levels=[0])
        with pytest.raises(LectureError):
            publisher.publish(lecture(), "p", levels=[9])

    def test_needs_renditions(self):
        with pytest.raises(LectureError):
            LODPublisher(renditions=[])
        with pytest.raises(LectureError):
            LODPublisher(renditions=[RENDITIONS[0], RENDITIONS[0]])

    def test_unknown_variant_rejected(self):
        result = LODPublisher(renditions=RENDITIONS).publish(lecture(), "p")
        with pytest.raises(LectureError):
            result.variant(1, "lan-1m")


class TestGridReuse:
    def test_dedup_collapses_grid_to_distinct_segment_encodes(self):
        lec = lecture()
        result = LODPublisher(renditions=RENDITIONS).publish(lec, "p")
        segments = len(lec.segments)
        profiles = len(RENDITIONS)
        # distinct work: video + audio per (segment, profile), one image per
        # segment — regardless of how many levels repeat each segment
        assert result.encodes_performed == 2 * segments * profiles + segments
        assert result.jobs_submitted > result.encodes_performed
        assert result.dedup_hits == result.jobs_submitted - result.encodes_performed

    def test_republish_is_pure_cache(self):
        cache = EncodeCache()
        publisher = LODPublisher(renditions=RENDITIONS, cache=cache)
        publisher.publish(lecture(), "p")
        again = publisher.publish(lecture(), "p")
        assert again.encodes_performed == 0
        assert again.cache_hits > 0

    def test_one_slide_edit_encodes_only_the_delta(self):
        cache = EncodeCache()
        publisher = LODPublisher(renditions=RENDITIONS, cache=cache)
        first = publisher.publish(lecture(), "p")
        edited = edit_slide(lecture(), 0, "slide0-fixed")
        second = publisher.publish(edited, "p2")
        # only the replaced slide image is new work
        assert second.encodes_performed == 1
        assert second.encodes_performed <= first.encodes_performed * 0.5
        assert (
            second.variant(1, "dsl-256k").asf.pack()
            != first.variant(1, "dsl-256k").asf.pack()
        )

    def test_publishing_level_k_after_deeper_grid_is_free(self):
        cache = EncodeCache()
        publisher = LODPublisher(renditions=RENDITIONS, cache=cache)
        publisher.publish(lecture(), "p", levels=[3])
        shallow = publisher.publish(lecture(), "p-short", levels=[1, 2])
        assert shallow.encodes_performed == 0


def four_level_lecture():
    return Lecture.from_slide_durations(
        "four-levels",
        "Prof",
        [3, 2, 2, 1, 2, 1, 1, 2],
        importances=[0, 1, 2, 3] * 2,
        slide_width=160,
        slide_height=120,
    )


GRID_RENDITIONS = RENDITIONS + [get_profile("lan-1m")]


def count_packetize(monkeypatch):
    calls = []
    original = Packetizer.packetize

    def counted(self, unit_lists):
        calls.append(len(unit_lists))
        return original(self, unit_lists)

    monkeypatch.setattr(Packetizer, "packetize", counted)
    return calls


class TestPacketRunReuse:
    """A grid cell's packet run is built once per content, not per publish."""

    def test_clean_republish_shares_every_packet(self, monkeypatch):
        cache = EncodeCache()
        publisher = LODPublisher(renditions=GRID_RENDITIONS, cache=cache)
        first = publisher.publish(four_level_lecture(), "p")
        assert len(first.variants) == 12  # 4 levels x 3 renditions
        assert (cache.hits, cache.misses, len(cache)) == (0, 12, 12)
        calls = count_packetize(monkeypatch)
        again = publisher.publish(four_level_lecture(), "p")
        assert calls == []
        assert (cache.hits, cache.misses) == (12, 12)
        for key, variant in first.variants.items():
            old, new = variant.asf, again.variants[key].asf
            assert new is not old
            assert new.header is not old.header
            assert new.packets is not old.packets
            assert all(a is b for a, b in zip(new.packets, old.packets))
            assert len(new.packets) == len(old.packets)
            assert new.index is old.index
            assert new.pack() == old.pack()
            assert new.fingerprint() == old.fingerprint()

    def test_publish_under_another_name_shares_packets(self):
        publisher = LODPublisher(renditions=RENDITIONS, cache=EncodeCache())
        first = publisher.publish(lecture(), "p")
        other = publisher.publish(lecture(), "q")
        for key, variant in first.variants.items():
            old, new = variant.asf, other.variants[key].asf
            assert all(a is b for a, b in zip(new.packets, old.packets))
            assert new.header.file_properties.file_id == other.variants[key].point
            assert old.header.file_properties.file_id == variant.point
            assert new.fingerprint() != old.fingerprint()

    def test_level_after_the_full_grid_is_a_hit(self, monkeypatch):
        cache = EncodeCache()
        publisher = LODPublisher(renditions=RENDITIONS, cache=cache)
        full = publisher.publish(lecture(), "p")
        calls = count_packetize(monkeypatch)
        hits = cache.hits
        one = publisher.publish(lecture(), "p", levels=[2])
        assert calls == []
        assert cache.hits == hits + len(RENDITIONS)
        for profile in one.profiles:
            new = one.variant(2, profile).asf.packets
            old = full.variant(2, profile).asf.packets
            assert len(new) == len(old)
            assert all(a is b for a, b in zip(new, old))

    def test_publisher_without_a_cache_shares_nothing(self, monkeypatch):
        publisher = LODPublisher(renditions=RENDITIONS)
        first = publisher.publish(lecture(), "p")
        calls = count_packetize(monkeypatch)
        again = publisher.publish(lecture(), "p")
        assert len(calls) == len(first.variants)
        for key, variant in first.variants.items():
            new = again.variants[key].asf
            assert not any(a is b for a, b in zip(new.packets, variant.asf.packets))
            assert new.pack() == variant.asf.pack()

    def test_edited_cells_rebuild_and_the_rest_share(self):
        publisher = LODPublisher(renditions=RENDITIONS, cache=EncodeCache())
        first = publisher.publish(lecture(), "p")
        # slide 2 (importance 2) is only in level 3
        edited = publisher.publish(edit_slide(lecture(), 2, "slide2-fixed"), "p")
        for (level, profile), variant in first.variants.items():
            old, new = variant.asf.packets, edited.variant(level, profile).asf.packets
            shared = [a is b for a, b in zip(new, old)]
            assert all(shared) if level < 3 else not any(shared)


class TestGridServing:
    def make_server(self):
        net = VirtualNetwork()
        net.connect("server", "student", bandwidth=2e6, delay=0.02)
        return MediaServer(net, "server", port=8080)

    def test_publishes_points_with_urls(self):
        server = self.make_server()
        publisher = LODPublisher(server, renditions=RENDITIONS)
        result = publisher.publish(lecture(), "course")
        assert len(server.points) == 6
        variant = result.variant(1, "modem-56k")
        assert variant.point == "course-l1-modem-56k"
        assert variant.url == server.url_of("course-l1-modem-56k")

    def test_replace_republishes_colliding_points(self):
        server = self.make_server()
        publisher = LODPublisher(server, renditions=RENDITIONS)
        publisher.publish(lecture(), "course")
        from repro.streaming.server import PublishError

        with pytest.raises(PublishError):
            publisher.publish(lecture(), "course")
        edited = edit_slide(lecture(), 1, "slide1-fixed")
        result = publisher.publish(edited, "course", replace=True)
        assert len(server.points) == 6
        point = server.points["course-l2-dsl-256k"]
        assert point.content is result.variant(2, "dsl-256k").asf

    def test_colliding_publish_publishes_nothing(self):
        server = self.make_server()
        publisher = LODPublisher(server, renditions=RENDITIONS)
        publisher.publish(lecture(), "g", levels=[2])
        before = dict(server.points)
        with pytest.raises(PublishError, match="g-l2-modem-56k"):
            publisher.publish(lecture(), "g")
        # the cells before the first colliding one did not go up either
        assert server.points == before
        assert "g-l1-dsl-256k" not in server.points
