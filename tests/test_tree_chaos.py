"""Chaos against the relay tree: dead siblings, stale replicas, races.

The tree fill plan (sibling → parent → origin) must degrade, never
wedge:

* a sibling that **crashes mid-fill** costs the filling leaf one failed
  attempt; the fill falls through to the regional parent and the viewer
  still gets byte-identical content;
* a sibling left holding an **old version** of a republished run is
  rejected *before any media moves* — the origin's authoritative
  describe carries the cache key every non-origin source must match;
* **concurrent misses** on two siblings coalesce: the second leaf finds
  the first's in-flight fill through the directory's pending-holder
  registry and rides it, so the origin's data egress for the whole
  region is one session;
* the headline: a **100k-viewer live flash crowd** over a two-region
  tree — the origin carries one feed per region, every cohort sees the
  broadcast, and the full :class:`TraceChecker` audit (fill loops,
  backbone budget honesty, one-feed-per-region) holds over the entire
  trace.

``CHAOS_SEED`` (env) must hold for seeds 0, 1, 2;
``CHAOS_SCALE_VIEWERS`` shrinks the flash crowd for CI smoke runs.
"""

import os

from repro.asf import ASFEncoder, EncoderConfig, slide_commands
from repro.load import LoadConfig, WorkloadSpec, run_workload
from repro.media import AudioObject, ImageObject, VideoObject, get_profile
from repro.metrics.counters import get_counters, reset_counters
from repro.obs import TraceChecker, Tracer
from repro.streaming import (
    BackboneBudget, MediaServer, SessionState, build_relay_tree,
)
from repro.web import VirtualNetwork
from tests.helpers import lecture_catalog

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))
VIEWERS = int(os.environ.get("CHAOS_SCALE_VIEWERS", "100000"))
PROFILE = get_profile("dsl-256k")
DURATION = 8.0


def make_asf(file_id="lec", duration=DURATION):
    return ASFEncoder(EncoderConfig(profile=PROFILE)).encode_file(
        file_id=file_id,
        video=VideoObject("talk", duration, width=320, height=240, fps=10),
        audio=AudioObject("voice", duration),
        images=[(ImageObject("s0", duration, width=320, height=240), 0.0)],
        commands=slide_commands([("s0", 0.0)]),
    )


def make_tree(*, tracer=None, budget=None):
    """One region, two leaves — the smallest tree with a sibling."""
    reset_counters("edge_cache")
    net = VirtualNetwork()
    if tracer is not None:
        tracer.bind_clock(net.simulator)
        net.simulator.tracer = tracer
    origin = MediaServer(
        net, "origin", port=8080, pacing_quantum=0.5,
        trace_label="origin", tracer=tracer,
    )
    origin.publish("lecture", make_asf())
    directory, parents, leaves = build_relay_tree(
        net, origin, {"r0": ["e0", "e1"]},
        pacing_quantum=0.5, seed=CHAOS_SEED,
        backbone_budget=budget, tracer=tracer,
    )
    for leaf in leaves:
        net.connect(leaf.host, "viewer", bandwidth=2_000_000, delay=0.02)
    return net, origin, directory, parents, leaves


def blob_of(packets):
    return b"".join(p.pack() for p in packets)


def reference_blob(origin):
    return blob_of(origin.points["lecture"].content.packets)


class TestSiblingCrashMidFill:
    def test_fill_falls_through_to_parent_when_sibling_dies(self):
        budget = BackboneBudget()
        net, origin, directory, parents, leaves = make_tree(budget=budget)
        e0, e1 = leaves
        e0.prefetch("lecture")
        warm_origin_sessions = origin.sessions.total_created

        # a sent run is one whole-file train that lands even if its
        # sender dies, so the crash must come between the fill's open and
        # play at the sibling: a 20 kb/s sibling link stretches those
        # round trips past it
        net.link("e0", "e1").set_bandwidth(20_000)
        mid_fill = []

        def crash():
            # e1 is filling, and e0 holds its replica session unplayed
            mid_fill.append(
                "lecture" in e1._fills
                and [s.state for s in e0.sessions.all()]
                == [SessionState.CONNECTING]
            )
            e0.crash()

        net.simulator.schedule(0.2, crash)
        e1.prefetch("lecture")
        assert mid_fill == [True]

        counters = get_counters("edge_cache")
        # the sibling attempt was charged and failed; the parent (still
        # warm from e0's fill) delivered
        assert counters["parent_fills"] >= 2
        assert "lecture" in e1.points
        assert blob_of(e1.points["lecture"].content.packets) == \
            reference_blob(origin)
        # the origin never saw a second data egress for the region
        assert origin.sessions.total_created == warm_origin_sessions
        budget.assert_no_leaks()

        e1.shutdown()
        parents["r0"].shutdown()
        net.simulator.run(max_events=1_000_000)


class TestSlowSiblingFill:
    def test_a_train_longer_than_the_fill_timeout_is_kept(self):
        net, origin, directory, parents, leaves = make_tree()
        e0, e1 = leaves
        e0.prefetch("lecture")
        reset_counters("edge_cache")

        # the sibling's whole-file train needs ~44 s of serialization,
        # past FILL_TIMEOUT: a train on the wire gets its own wire time
        # (plus one NAK interval) to land, so the attempt is not cut
        # at the deadline and the run is not re-filled from the parent
        net.link("e0", "e1").set_bandwidth(50_000)
        began = net.simulator.now
        e1.prefetch("lecture")
        elapsed = net.simulator.now - began
        assert elapsed > e1.FILL_TIMEOUT

        counters = get_counters("edge_cache")
        assert counters["sibling_fills"] == 1
        assert counters["parent_fills"] == 0
        assert blob_of(e1.points["lecture"].content.packets) == \
            reference_blob(origin)

        for relay in (e0, e1, parents["r0"]):
            relay.shutdown()
        net.simulator.run(max_events=1_000_000)


class TestStaleSiblingRejected:
    def test_republished_run_rejects_stale_holders_before_media_moves(self):
        tracer = Tracer("stale-tree")
        net, origin, directory, parents, leaves = make_tree(tracer=tracer)
        e0, e1 = leaves
        e0.prefetch("lecture")

        # the lecture is re-cut at the origin: every replica below —
        # e0's *and* the parent's — is now stale
        origin.unpublish("lecture")
        origin.publish("lecture", make_asf(file_id="lec-v2", duration=12.0))

        e1.prefetch("lecture")
        counters = get_counters("edge_cache")
        # both the sibling and the warm parent were rejected up front by
        # the authoritative cache key; no stale byte crossed a tree link
        assert counters["stale_source_rejected"] >= 2
        assert blob_of(e1.points["lecture"].content.packets) == \
            reference_blob(origin)
        stale_refusals = [
            r for r in tracer.records
            if r["name"] == "edge.fill_refused"
            and r["attrs"].get("reason") == "stale"
        ]
        assert len(stale_refusals) >= 2

        for leaf in leaves:
            leaf.shutdown()
        parents["r0"].shutdown()
        net.simulator.run(max_events=1_000_000)


class TestConcurrentMissesCoalesce:
    def test_simultaneous_sibling_misses_cost_one_origin_egress(self):
        budget = BackboneBudget()
        net, origin, directory, parents, leaves = make_tree(budget=budget)
        e0, e1 = leaves
        net.simulator.schedule(0.001, lambda: e0.prefetch("lecture"))
        net.simulator.schedule(0.001, lambda: e1.prefetch("lecture"))
        net.simulator.run(max_events=5_000_000)

        # the pending-holder registry advertised e0's in-flight fill, so
        # e1 rode it as a sibling instead of racing a second chain to
        # the origin: one data egress for the whole region
        assert origin.sessions.total_created == 1
        counters = get_counters("edge_cache")
        assert counters["origin_fills"] == 1
        assert counters["fills"] == 3
        reference = reference_blob(origin)
        for leaf in leaves:
            assert "lecture" in leaf.points
            assert blob_of(leaf.points["lecture"].content.packets) == reference
        budget.assert_no_leaks()

        for leaf in leaves:
            leaf.shutdown()
        parents["r0"].shutdown()
        net.simulator.run(max_events=1_000_000)
        assert len(origin.sessions) == 0


class TestLiveFlashCrowdAtScale:
    def test_100k_live_flash_crowd_passes_full_tree_audit(self):
        tracer = Tracer("tree-scale")
        budget = BackboneBudget(tracer=tracer)
        result = run_workload(
            WorkloadSpec(
                viewers=VIEWERS,
                lectures=lecture_catalog(1, 12.0, live_fraction=1.0),
                seed=CHAOS_SEED,
                flash_fraction=1.0,
                flash_width=2.0,
            ),
            mode="cohort",
            config=LoadConfig(
                edges=8,
                regions=2,
                live_capture=True,
                backbone_budget=budget,
                tracer=tracer,
                teardown=True,
            ),
        )
        assert result.viewers == VIEWERS
        assert result.cohorts < max(result.viewers / 10, 100)
        # the origin carried one live session per region — the whole
        # flash crowd multiplied through the tree, not the backbone
        assert result.control["origin"]["sessions_created"] == 2
        budget.assert_no_leaks()
        checker = TraceChecker(tracer.records).assert_ok()
        # every relay (2 parents + 8 leaves) ran exactly one feed
        assert checker.live_feeds_seen == 10
        assert checker.backbone_reservations == checker.backbone_releases > 0
        assert checker.sessions_opened == checker.sessions_closed
