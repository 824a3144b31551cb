"""Republish invalidation: the active half of cache freshness.

A ``replace=True`` grid publish that changes a variant's content
address pushes an eager ``invalidate`` to every edge the holder
registry lists — stale runs drop *now*, the next viewer refills the
new generation, and an in-flight fill of the old generation is aborted
(the stale gate wins the republish-racing-prefetch race).

The race test is part of the chaos matrix: ``CHAOS_SEED`` moves the
republish instant inside the fill window.
"""

import os

import pytest

from repro.asf import EncodeCache
from repro.catalog import CatalogIndex
from repro.lod import Lecture, LODPublisher
from repro.media import get_profile
from repro.metrics.counters import get_counters, reset_counters
from repro.streaming import (
    MediaPlayer,
    MediaServer,
    PlayerState,
    PublishError,
    SessionError,
    build_edge_tier,
)
from repro.web import VirtualNetwork

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))
PROFILE = get_profile("dsl-256k")
POINT = "qt-l1-dsl-256k"


def lecture(durations=(12, 8, 10, 6)):
    return Lecture.from_slide_durations(
        "Queueing Theory", "Prof", list(durations),
        importances=[0, 1, 0, 1], slide_width=160, slide_height=120,
    )


def edited_lecture():
    """The 'teacher re-cut a slide' republish: slide 2 — a member of the
    published level-1 variant — grows a second, changing the variant's
    timeline and therefore its content address."""
    return lecture((12, 8, 11, 6))


def packed(asf):
    return len(asf.header.pack()) + asf.data_size()


def build_world(edges=3, cache=None):
    reset_counters("edge_cache")
    net = VirtualNetwork()
    origin = MediaServer(net, "origin", port=8080, pacing_quantum=0.5)
    directory, relays = build_edge_tier(
        net, origin, [f"edge{i}" for i in range(edges)],
        pacing_quantum=0.5,
    )
    # flat edges that fill from each other: the holder registry without
    # a region parent that would hold (and be invalidated) too
    for relay in relays:
        relay.attach_directory(directory)
    catalog = CatalogIndex()
    publisher = LODPublisher(
        origin, renditions=[PROFILE], cache=cache,
        edge_directory=directory, catalog=catalog,
    )
    return net, origin, directory, relays, publisher, catalog


class TestInvalidationPush:
    def test_republish_reaches_every_holding_edge(self):
        net, origin, directory, relays, publisher, catalog = build_world()
        publisher.publish(lecture(), "qt", levels=[1])
        old_key = origin.points[POINT].content.fingerprint()
        for relay in relays:
            relay.prefetch(POINT)
            assert relay._cache_keys[POINT] == old_key
        assert directory.holders(POINT) == [r.name for r in relays]

        result = publisher.publish(
            edited_lecture(), "qt", levels=[1], replace=True,
        )
        new_key = origin.points[POINT].content.fingerprint()
        assert new_key != old_key
        assert result.invalidations_pushed == len(relays)

        counters = get_counters("edge_cache")
        assert counters["invalidations"] == len(relays)
        for relay in relays:
            assert old_key not in relay.cache
            assert POINT not in relay._cache_keys
            assert POINT not in relay.points
        # nobody advertises the point any more
        assert directory.holders(POINT) == []
        # the catalog tracks the fresh generation
        assert catalog.entry(POINT).cache_key == new_key

    def test_unchanged_republish_pushes_nothing(self):
        net, origin, directory, relays, publisher, catalog = build_world(edges=1)
        publisher.publish(lecture(), "qt", levels=[1])
        relays[0].prefetch(POINT)
        # identical content → same fingerprint → no invalidation traffic
        result = publisher.publish(lecture(), "qt", levels=[1], replace=True)
        assert result.invalidations_pushed == 0
        assert POINT in relays[0].points

    def test_republish_from_a_cache_pushes_only_edits(self):
        """A clean republish shares the old run's packets under a fresh
        header and pushes nothing; an edit still reaches every holder."""
        net, origin, directory, relays, publisher, catalog = build_world(
            cache=EncodeCache()
        )
        publisher.publish(lecture(), "qt", levels=[1])
        first = origin.points[POINT].content
        for relay in relays:
            relay.prefetch(POINT)

        clean = publisher.publish(lecture(), "qt", levels=[1], replace=True)
        again = origin.points[POINT].content
        assert again is not first
        assert all(a is b for a, b in zip(again.packets, first.packets))
        assert clean.invalidations_pushed == 0
        assert all(POINT in relay.points for relay in relays)

        edited = publisher.publish(
            edited_lecture(), "qt", levels=[1], replace=True,
        )
        assert edited.invalidations_pushed == len(relays)
        assert not any(POINT in relay.points for relay in relays)

    def test_fresh_edge_is_left_alone(self):
        """An edge already holding the *new* generation keeps it."""
        net, origin, directory, relays, publisher, catalog = build_world(edges=1)
        publisher.publish(lecture(), "qt", levels=[1])
        (relay,) = relays
        relay.prefetch(POINT)
        new_asf = origin.points[POINT].content
        # simulate the edge having refilled fresh already
        assert relay.invalidate_point(POINT, new_asf.fingerprint()) is False
        assert POINT in relay.points

    def test_next_viewer_refills_byte_identical_fresh_run(self):
        net, origin, directory, relays, publisher, catalog = build_world(edges=1)
        publisher.publish(lecture(), "qt", levels=[1])
        (relay,) = relays
        relay.prefetch(POINT)
        old_key = relay._cache_keys[POINT]

        publisher.publish(
            edited_lecture(), "qt", levels=[1], replace=True,
        )
        reference = origin.points[POINT].content
        assert old_key not in relay.cache

        net.connect(relay.host, "viewer", bandwidth=2_000_000, delay=0.02)
        player = MediaPlayer(net, "viewer", user="viewer")
        player.connect(f"http://{relay.host}:{relay.port}/lod/{POINT}")
        player.play()
        net.simulator.run_until(300.0)
        if player.state is not PlayerState.FINISHED:
            player.stop()

        fresh = relay.cache.lookup(reference.fingerprint())
        assert fresh is not None
        assert (
            b"".join(p.pack() for p in fresh.packets)
            == b"".join(p.pack() for p in reference.packets)
        )
        # exactly one stale run was dropped, exactly one fresh refill made
        assert relay.cache.bytes_cached == packed(reference)


class TestSupersededRunDrop:
    def test_refill_after_republish_drops_old_generation(self):
        """Without a push (no directory attached to the publisher), the
        stale-source gate on the next fill supersedes the old run — the
        byte budget holds exactly one generation afterwards."""
        net, origin, directory, relays, publisher, catalog = build_world(edges=1)
        publisher.publish(lecture(), "qt", levels=[1])
        publisher.edge_directory = None  # TTL/stale-gate world: no push
        (relay,) = relays
        relay.prefetch(POINT)
        old_key = relay._cache_keys[POINT]

        publisher.publish(
            edited_lecture(), "qt", levels=[1], replace=True,
        )
        new_ref = origin.points[POINT].content
        assert old_key in relay.cache  # nothing pushed: stale run rests

        relay.unpublish(POINT)  # point released; the cache entry remains
        relay.prefetch(POINT)   # next ensure re-describes the origin

        counters = get_counters("edge_cache")
        assert counters["superseded_runs_dropped"] == 1
        assert old_key not in relay.cache
        assert relay._cache_keys[POINT] == new_ref.fingerprint()
        assert relay.cache.bytes_cached == packed(new_ref)


class TestRepublishRacesPrefetch:
    """Chaos-matrix member: a republish landing *mid-fill* must abort
    the stale fill (the gate wins); the edge never serves old bytes."""

    @pytest.mark.parametrize("lag", [0.002, 0.01, 0.05])
    def test_stale_gate_wins_the_race(self, lag):
        net, origin, directory, relays, publisher, catalog = build_world(edges=1)
        publisher.publish(lecture(), "qt", levels=[1])
        (relay,) = relays
        old_key = origin.points[POINT].content.fingerprint()

        # the republish fires while the prefetch's fill is in flight —
        # CHAOS_SEED slides the instant across the transfer window
        delay = lag * (1 + CHAOS_SEED)
        net.simulator.schedule(
            delay,
            lambda: publisher.publish(
                edited_lecture(), "qt", levels=[1], replace=True,
            ),
        )
        try:
            relay.prefetch(POINT)
        except (PublishError, SessionError):
            pass  # an aborted stale fill surfaces as a failed ensure
        # a fast fill can beat the republish; drive past it so every
        # (lag, seed) cell ends in the post-republish world — the slow
        # cells degrade to the plain push-after-fill invalidation
        net.simulator.run_until(delay + 1.0)

        new_key = origin.points[POINT].content.fingerprint()
        assert new_key != old_key
        # the invariant under ANY interleaving: no stale state survives
        assert old_key not in relay.cache
        assert relay._cache_keys.get(POINT) in (None, new_key)
        counters = get_counters("edge_cache")
        if counters["stale_fill_aborted"]:
            # the push caught the fill mid-flight: the abort left no
            # partial run behind either
            assert POINT not in relay.points or (
                relay._cache_keys.get(POINT) == new_key
            )

        # recovery: the very next warm lands the fresh generation
        relay.prefetch(POINT)
        assert relay._cache_keys[POINT] == new_key
        reference = origin.points[POINT].content
        cached = relay.cache.lookup(new_key)
        assert cached is not None
        assert (
            b"".join(p.pack() for p in cached.packets)
            == b"".join(p.pack() for p in reference.packets)
        )
