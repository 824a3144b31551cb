"""Hierarchical relay trees: sibling/parent fills, live fan-out, budget.

The tentpole contracts of the multi-level relay topology:

* **fill cascade** — a cold leaf fills sibling → regional parent →
  origin, so a cold wave across a region costs the origin one data
  egress per *region*, not one per edge; the ``edge_cache`` counters
  attribute every fill to its source tier;
* **loop protection** — :class:`FillToken` path membership plus the hop
  limit make A→B→A impossible; leaves refuse to fill *on behalf of*
  other relays (cascades stay finite), parents refuse exhausted tokens;
* **live multicast** — a broadcast enters each region exactly once at
  the parent and fans out parent → leaves → viewers; late joiners get a
  bounded catch-up train from the parent's live history, and the full
  :class:`TraceChecker` one-feed-per-region invariant holds;
* **backbone budget** — every tree link a fill or feed crosses is
  charged before media moves and released after the burst (fills) or at
  feed end (live); refusal is honest admission, not silent best-effort;
* the new :class:`TraceChecker` tree invariants actually *catch*
  violating traces (synthetic-negative tests).
"""

import pytest

from repro.asf import ASFEncoder, EncoderConfig, slide_commands
from repro.lod import LiveCaptureSession
from repro.media import AudioObject, ImageObject, VideoObject, get_profile
from repro.metrics.counters import get_counters, reset_counters
from repro.obs import TraceChecker, Tracer
from repro.streaming import (
    BackboneBudget,
    BudgetError,
    FillToken,
    MediaServer,
    PublishError,
    build_relay_tree,
)
from repro.web import VirtualNetwork

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


def make_tree(*, regions=2, per_region=2, asf=None, budget=None,
              tracer=None, origin_qos=False, **tree_kwargs):
    """Origin + one parent per region + leaves, viewers wired to leaves."""
    reset_counters("edge_cache")
    net = VirtualNetwork()
    if tracer is not None:
        tracer.bind_clock(net.simulator)
        net.simulator.tracer = tracer
    origin = MediaServer(
        net, "origin", port=8080, pacing_quantum=0.5,
        trace_label="origin", tracer=tracer, qos_enabled=origin_qos,
    )
    if asf is not None:
        origin.publish("lecture", asf)
    region_map = {
        f"r{r}": [f"e{r}{i}" for i in range(per_region)]
        for r in range(regions)
    }
    directory, parents, leaves = build_relay_tree(
        net, origin, region_map,
        pacing_quantum=0.5, backbone_budget=budget, tracer=tracer,
        **tree_kwargs,
    )
    for leaf in leaves:
        net.connect(leaf.host, "viewer", bandwidth=2_000_000, delay=0.02)
    return net, origin, directory, parents, leaves


def blob_of(packets):
    return b"".join(p.pack() for p in packets)


def teardown_tree(origin, parents, leaves, budget=None):
    """Leaves before parents: a leaf's unpublish closes its parent
    replica, the parent's closes the origin's."""
    for leaf in leaves:
        if not leaf.crashed and not leaf.draining:
            leaf.shutdown()
    for parent in parents.values():
        if not parent.crashed:
            parent.shutdown()
    assert len(origin.sessions) == 0
    if budget is not None:
        budget.assert_no_leaks()


class TestFillCascade:
    def test_cold_wave_fills_sibling_parent_origin(self):
        tracer = Tracer("tree")
        budget = BackboneBudget(tracer=tracer)
        net, origin, directory, parents, leaves = make_tree(
            asf=make_asf(), budget=budget, tracer=tracer,
        )
        # cold wave, one leaf at a time: the first leaf of each region
        # warms the parent (parent pulls the origin), the second finds
        # its sibling already holding the run
        for leaf in leaves:
            leaf.prefetch("lecture")
        counters = get_counters("edge_cache")
        assert counters["origin_fills"] == 2      # one per regional parent
        # ...one run each, where a flat tier pays one per edge: origin
        # egress falls by edges / regions (16.0x at 64 edges / 4 regions
        # in the retired relay-tree bench, PR 8)
        run = origin.points["lecture"].content.packed_packets()
        assert origin.bytes_served == len(parents) * sum(map(len, run))
        assert counters["parent_fills"] == 2      # first leaf per region
        assert counters["sibling_fills"] == 2     # second leaf per region
        assert counters["fills"] == 6
        # the origin's data-plane egress: one replica session per region
        assert origin.sessions.total_created == 2

        # byte parity end to end through two relay hops
        reference = blob_of(origin.points["lecture"].content.packets)
        sinks = []
        for leaf in leaves:
            sink = []
            session = leaf.open_session("lecture", "viewer", sink.extend)
            leaf.play(session.session_id, burst_factor=8.0)
            sinks.append(sink)
        net.simulator.run(max_events=5_000_000)
        for sink in sinks:
            assert blob_of(sink) == reference

        teardown_tree(origin, parents, leaves, budget)
        checker = TraceChecker(tracer.records).assert_ok()
        assert checker.fill_requests_seen == 6
        assert checker.backbone_reservations == checker.backbone_releases > 0

    def test_fill_reservations_release_after_burst(self):
        budget = BackboneBudget()
        net, origin, directory, parents, leaves = make_tree(
            asf=make_asf(), budget=budget,
        )
        leaves[0].prefetch("lecture")
        # the burst is over: fills hold no backbone bandwidth at rest,
        # even though the replica control sessions stay open
        budget.assert_no_leaks()
        assert budget.counters["reservations"] == budget.counters["releases"] == 2
        teardown_tree(origin, parents, leaves, budget)

    def test_budget_refusal_fails_fill_without_leaks(self):
        # backbone far too small for the content bitrate: every source
        # in the plan is refused at admission, no media ever moves
        budget = BackboneBudget(default_capacity=1_000.0)
        net, origin, directory, parents, leaves = make_tree(
            asf=make_asf(), budget=budget,
        )
        with pytest.raises(PublishError):
            leaves[0].prefetch("lecture")
        counters = get_counters("edge_cache")
        assert counters["fill_budget_refused"] >= 1
        assert budget.rejected >= 1
        budget.assert_no_leaks()
        assert origin.bytes_served == 0
        teardown_tree(origin, parents, leaves, budget)

    def test_undescribable_source_is_skipped_for_the_next(self):
        # the parent's link to the origin is budgeted below the content
        # bitrate: its own fill is refused, so it answers the leaf's
        # describe with an error and the leaf moves on to the origin
        budget = BackboneBudget(capacities={("r0-parent", "origin"): 1_000.0})
        net, origin, directory, parents, leaves = make_tree(
            regions=1, asf=make_asf(), budget=budget,
        )
        leaves[0].prefetch("lecture")
        counters = get_counters("edge_cache")
        assert counters["fill_source_unreachable"] == 1
        assert counters["fill_budget_refused"] == 1  # the parent's own try
        assert counters["origin_fills"] == 1
        assert "lecture" in leaves[0].points
        assert "lecture" not in parents["r0"].points
        budget.assert_no_leaks()
        teardown_tree(origin, parents, leaves, budget)

    def test_refused_open_releases_its_reservation(self):
        # the origin answers the describe, but its QoS admission refuses
        # a replica session on a link narrower than the content bitrate
        budget = BackboneBudget()
        net, origin, directory, parents, leaves = make_tree(
            regions=1, asf=make_asf(), budget=budget, origin_qos=True,
        )
        parent = parents["r0"]
        net.connect(origin.host, parent.host, bandwidth=100_000, delay=0.005)
        with pytest.raises(PublishError):
            parent.prefetch("lecture")
        assert get_counters("edge_cache")["fill_source_refused"] == 1
        # charged before the open, given back when it was refused
        assert budget.counters["reservations"] == 1
        assert budget.counters["releases"] == 1
        budget.assert_no_leaks()
        assert len(origin.sessions) == 0
        assert origin.bytes_served == 0
        teardown_tree(origin, parents, leaves, budget)


class TestLoopProtection:
    def test_fill_token_wire_roundtrip(self):
        token = FillToken(("a", "b"), 2)
        assert FillToken.from_wire(token.wire()).path == ("a", "b")
        assert FillToken.from_wire(token.wire()).hops == 2
        child = token.descend("c")
        assert child.path == ("a", "b", "c") and child.hops == 1
        assert FillToken.from_wire({}) is None
        assert FillToken.from_wire({"fill_path": ""}) is None
        assert "fill_path=a,b" in token.query()

    def test_relay_refuses_token_carrying_its_own_name(self):
        net, origin, directory, parents, leaves = make_tree(asf=make_asf())
        target = leaves[0]
        response = leaves[1].http_client.get(
            f"http://{target.host}:{target.port}/lod/lecture"
            f"?replica=1&fill_path={target.name}&fill_hops=2"
        )
        assert response.status == 502
        assert get_counters("edge_cache")["fill_refused_loop"] == 1
        teardown_tree(origin, parents, leaves)

    def test_leaf_refuses_fill_on_behalf_of_another_relay(self):
        net, origin, directory, parents, leaves = make_tree(asf=make_asf())
        # a tokened describe at a cold *leaf*: it may answer from local
        # state only, never cascade a fill of its own for someone else
        target = leaves[1]
        response = leaves[0].http_client.get(
            f"http://{target.host}:{target.port}/lod/lecture"
            f"?replica=1&fill_path={leaves[0].name}&fill_hops=2"
        )
        assert response.status == 502
        assert get_counters("edge_cache")["fill_refused_cascade"] == 1
        assert origin.sessions.total_created == 0
        teardown_tree(origin, parents, leaves)

    def test_parent_refuses_exhausted_hop_budget(self):
        net, origin, directory, parents, leaves = make_tree(asf=make_asf())
        parent = parents["r0"]
        response = leaves[0].http_client.get(
            f"http://{parent.host}:{parent.port}/lod/lecture"
            f"?replica=1&fill_path={leaves[0].name}&fill_hops=0"
        )
        assert response.status == 502
        assert get_counters("edge_cache")["fill_refused_hops"] == 1
        assert origin.sessions.total_created == 0
        teardown_tree(origin, parents, leaves)


class TestLiveMulticast:
    def test_one_feed_per_region_with_late_joiner_catchup(self):
        tracer = Tracer("live-tree")
        budget = BackboneBudget(tracer=tracer)
        net, origin, directory, parents, leaves = make_tree(
            budget=budget, tracer=tracer,
        )
        capture = LiveCaptureSession(
            net.simulator, get_profile("isdn-dual"), chunk=0.5
        )
        origin.publish("live", capture.stream)

        sinks = {}
        sessions = {}
        for leaf in leaves[:3]:
            sink = []
            sessions[leaf.name] = leaf.open_session("live", "viewer", sink.extend)
            leaf.play(sessions[leaf.name].session_id)
            sinks[leaf.name] = sink
        net.simulator.run_until(4.0)

        # a late joiner on the last leaf: its region's feed is already
        # up at the parent, whose live history backfills the first 4s
        late = leaves[3]
        sink = []
        sessions[late.name] = late.open_session("live", "viewer", sink.extend)
        late.play(sessions[late.name].session_id)
        sinks[late.name] = sink
        net.simulator.run_until(6.0)
        capture.finish()
        net.simulator.run(max_events=5_000_000)

        # one upstream live session per region, regardless of leaf count
        assert origin.sessions.total_created == 2
        sent = {p.sequence for p in capture.stream.packets}
        for name, got_packets in sinks.items():
            got = [p.sequence for p in got_packets]
            assert len(got) == len(set(got)), f"{name} saw duplicates"
            assert set(got) == sent, f"{name} missed live packets"
        counters = get_counters("edge_cache")
        assert counters["live_catchup_trains"] >= 1
        assert counters["live_catchup_packets"] > 0

        for leaf in leaves:
            leaf.close_session(sessions[leaf.name].session_id)
        net.simulator.run(max_events=1_000_000)
        teardown_tree(origin, parents, leaves, budget)
        checker = TraceChecker(tracer.records).assert_ok()
        # every relay in the tree ran exactly one feed, all ended
        assert checker.live_feeds_seen == len(leaves) + len(parents)

    def test_refused_first_play_leaves_no_dead_point(self):
        budget = BackboneBudget()
        net, origin, directory, parents, leaves = make_tree(
            regions=1, budget=budget,
        )
        capture = LiveCaptureSession(
            net.simulator, get_profile("isdn-dual"), chunk=0.5
        )
        origin.publish("live", capture.stream)
        leaf, parent = leaves[0], parents["r0"]
        # the parent refuses the leaf's first replica play, once
        real_play, refusals = parent.play, []

        def play(session_id, **kwargs):
            if parent.sessions.get(session_id).replica and not refusals:
                refusals.append(session_id)
                raise PublishError("replica play refused")
            return real_play(session_id, **kwargs)

        parent.play = play
        with pytest.raises(PublishError):
            leaf.open_session("live", "viewer", lambda p: None)
        assert refusals
        # the half-attached point is gone, and with it the leg: the
        # parent's replica session is closed and every charge returned
        assert "live" not in leaf.points
        assert len(parent.sessions) == 0
        budget.assert_no_leaks()

        # the next viewer re-attaches instead of joining a silent point
        sink = []
        session = leaf.open_session("live", "viewer", sink.extend)
        leaf.play(session.session_id)
        net.simulator.run_until(net.simulator.now + 3.0)
        assert sink
        leaf.close_session(session.session_id)
        capture.finish()
        net.simulator.run(max_events=1_000_000)
        teardown_tree(origin, parents, leaves, budget)

    def test_budget_refusal_blocks_live_attach(self):
        budget = BackboneBudget(default_capacity=1_000.0)
        net, origin, directory, parents, leaves = make_tree(budget=budget)
        capture = LiveCaptureSession(
            net.simulator, get_profile("isdn-dual"), chunk=0.5
        )
        origin.publish("live", capture.stream)
        with pytest.raises(BudgetError):
            leaves[0].open_session("live", "viewer", lambda p: None)
        assert budget.rejected >= 1
        budget.assert_no_leaks()
        capture.finish()
        teardown_tree(origin, parents, leaves, budget)


class TestCheckerTreeInvariants:
    """The new invariants must fail on violating traces, not just pass
    on healthy ones."""

    def _violations(self, build):
        tracer = Tracer("synthetic")
        build(tracer)
        return TraceChecker(tracer.records).check()

    def test_looping_fill_path_is_flagged(self):
        violations = self._violations(lambda t: t.event(
            "edge.fill_request", edge="A", point="p", source="sibling",
            upstream="B", path=["A", "B", "A"], hops=1,
        ))
        assert any("looping path" in v for v in violations)

    def test_negative_hop_budget_is_flagged(self):
        violations = self._violations(lambda t: t.event(
            "edge.fill_request", edge="A", point="p", source="origin",
            upstream="origin", path=["A"], hops=-1,
        ))
        assert any("negative hop budget" in v for v in violations)

    def test_backbone_over_reservation_is_flagged(self):
        def build(t):
            t.event("backbone.reserve", rid="bb#1", link="a<->b",
                    bandwidth=30.0, reserved=30.0, capacity=50.0, owner="x")
            t.event("backbone.reserve", rid="bb#2", link="a<->b",
                    bandwidth=30.0, reserved=60.0, capacity=50.0, owner="y")
            t.event("backbone.release", rid="bb#1", link="a<->b",
                    bandwidth=30.0, owner="x")
            t.event("backbone.release", rid="bb#2", link="a<->b",
                    bandwidth=30.0, owner="y")
        violations = self._violations(build)
        assert any("over-reserved" in v for v in violations)

    def test_leaked_backbone_reservation_is_flagged(self):
        violations = self._violations(lambda t: t.event(
            "backbone.reserve", rid="bb#1", link="a<->b",
            bandwidth=10.0, reserved=10.0, capacity=50.0, owner="x",
        ))
        assert any("never released" in v for v in violations)

    def test_second_region_entry_is_flagged(self):
        def build(t):
            t.event("live.feed", feed="p1:live#1", edge="p1", region="r0",
                    point="live", upstream="origin", enters_region=True)
            t.event("live.feed", feed="p2:live#1", edge="p2", region="r0",
                    point="live", upstream="origin", enters_region=True)
            t.event("live.feed_end", feed="p1:live#1", edge="p1",
                    region="r0", point="live")
            t.event("live.feed_end", feed="p2:live#1", edge="p2",
                    region="r0", point="live")
        violations = self._violations(build)
        assert any("second upstream live feed" in v for v in violations)

    def test_unended_feed_is_flagged(self):
        violations = self._violations(lambda t: t.event(
            "live.feed", feed="p1:live#1", edge="p1", region="r0",
            point="live", upstream="origin", enters_region=True,
        ))
        assert any("never ended" in v for v in violations)
