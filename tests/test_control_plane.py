"""The supervision plane: heartbeat detection.

The contract under test is *organic* failure handling: nothing here ever
calls ``EdgeDirectory.mark_down``/``mark_up`` — edges are marked down
because their heartbeats stopped arriving at the controller host over
the simulated network, and marked up because they beat again.

* fault-free runs must produce **zero** suspicions (seeds 0–2);
* a crashed edge is suspected within a bounded latency and the directory
  stops placing clients on it;
* a *partitioned* (alive) edge is suspected, then rejoins cleanly when
  the partition heals — no state was torn down meanwhile;
* a lossy beacon path teaches the monitor a wider expected interval
  instead of a false suspicion (the adaptive half of the detector);
* an edge crashing mid-backbone-fill leaves an orphaned replica session
  on the origin; the monitor settles it at suspicion time — no restart
  or shutdown required (the suspicion/fill interaction fix).

Capacity is not elastic: edges are added and drained by hand (the
drain-then-remove path lives in ``test_edge_drain.py``).
"""

import os

import pytest

from repro.asf import ASFEncoder, EncoderConfig, slide_commands
from repro.control import HeartbeatMonitor
from repro.media import AudioObject, ImageObject, VideoObject, get_profile
from repro.metrics.counters import reset_counters
from repro.net import FaultInjector, FaultPlan
from repro.streaming import (
    MediaPlayer,
    MediaServer,
    PlayerState,
    RecoveryConfig,
    build_edge_tier,
)
from repro.web import VirtualNetwork

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))
PROFILE = get_profile("dsl-256k")
DURATION = 20.0
SLIDES = 4

INTERVAL = 0.5
MISS = 3


def make_asf():
    per_slide = DURATION / SLIDES
    return ASFEncoder(EncoderConfig(profile=PROFILE)).encode_file(
        file_id="lec",
        video=VideoObject("talk", DURATION, width=320, height=240, fps=10),
        audio=AudioObject("voice", DURATION),
        images=[
            (ImageObject(f"s{i}", per_slide, width=320, height=240),
             i * per_slide)
            for i in range(SLIDES)
        ],
        commands=slide_commands(
            [(f"s{i}", i * per_slide) for i in range(SLIDES)]
        ),
    )


def make_tier(*, edges=2, tracer=None, seed=0):
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
    directory, relays = build_edge_tier(
        net, origin, [f"edge{i}" for i in range(edges)],
        pacing_quantum=0.5, seed=seed, tracer=tracer,
    )
    for relay in relays:
        net.connect(relay.host, "student", bandwidth=2_000_000, delay=0.02)
        net.link(relay.host, "student").rng.seed(1000 + CHAOS_SEED)
    return net, origin, directory, relays


def make_monitor(net, directory, **kwargs):
    kwargs.setdefault("interval", INTERVAL)
    kwargs.setdefault("miss_threshold", MISS)
    monitor = HeartbeatMonitor(net, directory, **kwargs)
    monitor.watch_directory()
    monitor.start()
    return monitor


class TestHeartbeatDetection:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fault_free_run_has_zero_false_suspicions(self, seed):
        net, origin, directory, relays = make_tier(seed=seed)
        monitor = make_monitor(net, directory, seed=seed)

        player = MediaPlayer(net, "student", directory=directory,
                             recovery=RecoveryConfig())
        player.connect(directory.url_for("student", "lecture"))
        player.play()
        net.simulator.run_until(DURATION + 10.0)
        if player.state is not PlayerState.FINISHED:
            player.stop()

        assert monitor.counters.get("suspicions", 0) == 0
        assert monitor.counters["beats"] > len(relays) * DURATION / INTERVAL / 2
        assert all(not monitor.is_suspected(r.name) for r in relays)
        monitor.stop()
        for relay in relays:
            relay.shutdown()
        net.simulator.run()
        assert len(origin.sessions) == 0

    def test_crash_is_suspected_within_bounded_latency(self):
        net, origin, directory, relays = make_tier()
        monitor = make_monitor(net, directory)
        crash_at = 2.0
        injector = FaultInjector(net)
        injector.register_directory(directory)
        injector.apply(FaultPlan("kill").edge_crash("edge0", at=crash_at))

        net.simulator.run_until(crash_at + 5.0)

        assert monitor.is_suspected("edge0")
        assert not monitor.is_suspected("edge1")
        assert [s["edge"] for s in monitor.suspicions] == ["edge0"]
        # last beat ≤ one interval before the crash; suspicion lands on
        # the first sweep past the silence threshold
        detection = monitor.suspicions[0]["time"] - crash_at
        assert detection <= MISS * INTERVAL + 2 * INTERVAL + 0.01
        # the directory reflects the suspicion organically
        assert not directory.is_available("edge0")
        assert directory.place("anything") == "edge1"
        monitor.stop()

    def test_partitioned_edge_rejoins_on_heal(self):
        net, origin, directory, relays = make_tier()
        monitor = make_monitor(net, directory)
        # sever only the beacon path: the edge itself stays healthy
        FaultInjector(net).apply(
            FaultPlan("partition").link_down(
                "edge0", monitor.host, at=2.0, until=6.0
            )
        )
        net.simulator.run_until(5.5)
        assert monitor.is_suspected("edge0")
        assert not relays[0].crashed
        assert not directory.is_available("edge0")

        net.simulator.run_until(8.0)
        assert not monitor.is_suspected("edge0")
        assert monitor.counters["rejoins"] == 1
        assert directory.is_available("edge0")
        # the outage gap never fed the learner: detection is not deafened
        assert monitor.expected_interval("edge0") <= 2 * INTERVAL
        monitor.stop()

    def test_lossy_beacon_path_widens_tolerance_not_suspicion(self):
        net, origin, directory, relays = make_tier()
        monitor = make_monitor(net, directory)
        # a one-interval outage window eats exactly one beat: the
        # resulting ~2x gap is benign evidence (well under the miss
        # threshold) and must widen the expected interval
        FaultInjector(net).apply(
            FaultPlan("thin").link_down(
                "edge0", monitor.host, at=2.0, until=2.0 + INTERVAL
            )
        )
        net.simulator.run_until(10.0)
        assert monitor.counters.get("suspicions", 0) == 0
        assert monitor.expected_interval("edge0") > 1.5 * INTERVAL
        assert monitor.expected_interval("edge1") == pytest.approx(
            INTERVAL, abs=1e-6
        )
        monitor.stop()


class TestSuspicionSettlesOrphanedFills:
    def test_crash_mid_fill_settles_origin_replica_via_monitor(self):
        # a 1 Mb/s backbone keeps the whole-file train on the wire for
        # seconds, so a scheduled crash reliably lands mid-fill
        net, origin, directory, (edge0, edge1) = make_tier()
        net.link("origin", "edge0").set_bandwidth(1_000_000)
        monitor = make_monitor(net, directory)
        mid_fill = []

        def crash():
            fill = edge0._fills.get("lecture")
            mid_fill.append(fill is not None and not fill.done)
            edge0.crash()

        net.simulator.schedule_at(0.2, crash)
        from repro.streaming import PublishError

        with pytest.raises(PublishError):
            edge0.prefetch("lecture")
        assert mid_fill == [True]
        # the fill aborted; the origin-side replica session is orphaned
        assert len(origin.sessions) == 1

        # no restart, no shutdown: detection alone must settle the leak
        net.simulator.run_until(net.simulator.now + 5.0)
        assert monitor.is_suspected("edge0")
        assert monitor.counters["orphans_settled"] >= 1
        assert len(origin.sessions) == 0
        origin.assert_no_qos_leaks()
        monitor.stop()
