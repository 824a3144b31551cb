"""Property: a grid cell's packet run is reused exactly when nothing it
reads changed.

A publisher sharing an :class:`EncodeCache` stores each cell's packet run
under everything the packets read and hands it to every later publish of
the same content — a clean republish, another point name, a subset of the
levels. The oracle is a publisher without a cache, which packetizes every
cell of every publish from scratch. On generated lectures (slide
durations and importances, with or without audio), rendition subsets,
point names, ``levels=`` subsets and one-slide edits, every variant of
the caching publisher must pack to the oracle's bytes and carry its
fingerprint; a cell published before with the same content must hold the
very packet objects of that earlier publish, and a cell holding the
edited slide must share none of them.
"""

from hypothesis import given, settings, strategies as st

from repro.asf import EncodeCache
from repro.lod import Lecture, LODPublisher
from repro.lod.lecture import LectureSegment
from repro.media import get_profile
from repro.media.objects import ImageObject

PROFILES = ("modem-56k", "dsl-256k", "lan-1m")
POINTS = ("p", "q", "talk-7")


@st.composite
def lectures(draw):
    n = draw(st.integers(2, 5))
    durations = draw(
        st.lists(st.integers(200, 2_500), min_size=n, max_size=n)
    )
    importances = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    importances[0] = 0  # level 1 is never empty
    return Lecture.from_slide_durations(
        "props",
        "Prof",
        [ms / 1000 for ms in durations],
        importances=importances,
        with_audio=draw(st.booleans()),
        width=160,
        height=120,
        slide_width=160,
        slide_height=120,
    )


def edit_slide(lecture, index):
    """The same timeline with slide ``index``'s image replaced."""
    segments = []
    for i, s in enumerate(lecture.segments):
        slide = s.slide
        if i == index:
            slide = ImageObject(
                f"{s.name}-fixed", s.duration, width=slide.width, height=slide.height
            )
        segments.append(
            LectureSegment(s.name, slide, s.start, s.duration, s.importance)
        )
    return Lecture(
        title=lecture.title, author=lecture.author, video=lecture.video,
        audio=lecture.audio, segments=segments,
    )


def levels_of(lecture, drawn):
    highest = lecture.content_tree().highest_level
    chosen = sorted({q for q in drawn if q <= highest})
    return chosen or None


@settings(deadline=None, max_examples=25)
@given(
    lecture=lectures(),
    profiles=st.lists(
        st.sampled_from(PROFILES), min_size=1, max_size=3, unique=True
    ),
    points=st.lists(st.sampled_from(POINTS), min_size=3, max_size=3),
    drawn_levels=st.lists(
        st.lists(st.integers(1, 3), max_size=3), min_size=3, max_size=3
    ),
    edit=st.integers(0, 4),
)
def test_caching_publisher_matches_and_shares_exactly(
    lecture, profiles, points, drawn_levels, edit
):
    renditions = [get_profile(name) for name in profiles]
    cached = LODPublisher(renditions=renditions, cache=EncodeCache())
    oracle = LODPublisher(renditions=renditions)
    edit %= len(lecture.segments)
    edited_name = lecture.segments[edit].name
    edited = edit_slide(lecture, edit)

    # (level, profile, edited?) -> the packets of the first publish of it
    seen = {}
    for step, source in enumerate((lecture, lecture, edited)):
        levels = levels_of(source, drawn_levels[step])
        result = cached.publish(source, points[step], levels=levels)
        reference = oracle.publish(source, points[step], levels=levels)
        assert sorted(result.variants) == sorted(reference.variants)
        for key, variant in result.variants.items():
            asf = variant.asf
            assert asf.pack() == reference.variants[key].asf.pack()
            assert asf.fingerprint() == reference.variants[key].asf.fingerprint()
            assert asf.header.file_properties.file_id == variant.point

            touched = source is edited and edited_name in variant.segments
            before = seen.setdefault((*key, touched), asf.packets)
            if before is not asf.packets:
                # the same content published before: the very same packets
                assert len(before) == len(asf.packets)
                assert all(a is b for a, b in zip(asf.packets, before))
            if touched:
                # a cell holding the edited slide shares no packet with
                # that cell before the edit
                original = seen.get((*key, False))
                if original is not None:
                    ids = set(map(id, original))
                    assert not any(id(p) in ids for p in asf.packets)
