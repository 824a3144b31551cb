"""Workload generator, cohort planner, and load-harness smoke tests."""

import resource
import sys
from types import SimpleNamespace

import pytest

from repro.load import (
    CohortViewer,
    LectureSpec,
    LoadConfig,
    WorkloadError,
    WorkloadSpec,
    generate,
    peak_rss_bytes,
    plan_cohorts,
    run_workload,
)
from repro.obs import Tracer
from repro.streaming import BackboneBudget
from tests.helpers import lecture_catalog


def catalog(**kwargs):
    return lecture_catalog(4, 20.0, stagger=30.0, **kwargs)


def by_lecture(script):
    """``{lecture: [arrival, ...]}`` of a generated arrival script."""
    out = {}
    for arrival in script.arrivals:
        out.setdefault(arrival.lecture, []).append(arrival)
    return out

class TestSpecValidation:
    def test_rejects_empty_catalog(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(viewers=10, lectures=())

    def test_rejects_bad_rates(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(viewers=10, lectures=catalog(), churn_rate=1.5)
        with pytest.raises(WorkloadError):
            WorkloadSpec(viewers=10, lectures=catalog(), flash_fraction=-0.1)

    def test_rejects_nonpositive_lecture_duration(self):
        with pytest.raises(WorkloadError):
            LectureSpec("x", duration=0.0)


class TestGenerator:
    def spec(self, **kwargs):
        defaults = dict(
            viewers=500, lectures=catalog(), seed=42, zipf_s=1.2,
            flash_fraction=0.5, flash_width=2.0,
            churn_rate=0.2, seek_rate=0.2,
        )
        defaults.update(kwargs)
        return WorkloadSpec(**defaults)

    def test_deterministic_for_a_seed(self):
        a = generate(self.spec())
        b = generate(self.spec())
        assert a.arrivals == b.arrivals
        c = generate(self.spec(seed=43))
        assert c.arrivals != a.arrivals

    def test_arrivals_sorted_and_complete(self):
        script = generate(self.spec())
        assert len(script) == 500
        joins = [a.join_time for a in script.arrivals]
        assert joins == sorted(joins)
        assert len({a.viewer for a in script.arrivals}) == 500

    def test_zipf_skew_orders_the_catalog(self):
        script = generate(self.spec(viewers=4000, zipf_s=1.3))
        counts = [len(v) for v in (
            by_lecture(script).get(lec.name, [])
            for lec in self.spec().lectures
        )]
        # rank-1 strictly dominates rank-4, and the head holds a plural
        assert counts[0] > counts[-1] * 2
        assert counts[0] > 4000 * 0.35

    def test_uniform_when_zipf_is_zero(self):
        script = generate(self.spec(viewers=4000, zipf_s=0.0))
        counts = [len(v) for v in by_lecture(script).values()]
        assert max(counts) < min(counts) * 1.5

    def test_flash_crowd_lands_inside_the_width(self):
        spec = self.spec(flash_fraction=1.0, flash_width=2.0,
                         churn_rate=0.0, seek_rate=0.0)
        by_name = {lec.name: lec for lec in spec.lectures}
        for arrival in generate(spec).arrivals:
            start = by_name[arrival.lecture].start_time
            assert start <= arrival.join_time <= start + 2.0

    def test_churn_and_seek_rates_apply(self):
        script = generate(self.spec(viewers=2000))
        leavers = sum(1 for a in script.arrivals if a.leave_time is not None)
        seekers = sum(1 for a in script.arrivals if a.seek is not None)
        assert 0.1 < leavers / 2000 < 0.3
        assert seekers > 0
        for a in script.arrivals:
            # mutually exclusive individuation paths
            assert not (a.seek is not None and a.leave_time is not None)
            if a.leave_time is not None:
                assert a.leave_time > a.join_time

    def test_live_viewers_join_at_the_broadcast_position(self):
        spec = self.spec(lectures=lecture_catalog(
            2, 20.0, stagger=40.0, live_fraction=1.0))
        by_name = {lec.name: lec for lec in spec.lectures}
        script = generate(spec)
        assert script.arrivals
        for a in script.arrivals:
            assert a.live
            lec = by_name[a.lecture]
            assert a.start_position == pytest.approx(
                min(max(0.0, a.join_time - lec.start_time), lec.duration)
            )

    def test_horizon_covers_every_watch(self):
        script = generate(self.spec())
        by_name = {lec.name: lec for lec in script.spec.lectures}
        horizon = script.horizon
        for a in script.arrivals:
            lec = by_name[a.lecture]
            end = a.join_time + (lec.duration - a.start_position)
            if a.leave_time is not None:
                end = min(end, a.leave_time)
            assert end <= horizon + 1e-9


class TestCohortPlanning:
    def test_same_bucket_same_edge_collapses(self):
        spec = WorkloadSpec(
            viewers=100, lectures=catalog(), seed=1,
            flash_fraction=1.0, flash_width=0.0, join_quantum=0.5,
        )
        script = generate(spec)
        plans = plan_cohorts(script, lambda a: "edge0")
        # every lecture's flash crowd lands at its exact start time ->
        # one cohort per lecture with an audience
        assert len(plans) == len(by_lecture(script))
        assert sum(p.multiplicity for p in plans) == 100

    def test_members_split_across_edges_and_buckets(self):
        spec = WorkloadSpec(
            viewers=200, lectures=catalog(), seed=3,
            flash_fraction=0.5, flash_width=3.0, join_quantum=0.5,
        )
        script = generate(spec)
        plans = plan_cohorts(
            script, lambda a: f"edge{hash(a.viewer) % 3}"
        )
        assert sum(p.multiplicity for p in plans) == 200
        for plan in plans:
            quantum = 0.5
            bucket = round(plan.join_time / quantum)
            assert plan.join_time == pytest.approx(bucket * quantum)
            for member in plan.members:
                assert member.lecture == plan.lecture
                assert abs(member.join_time - plan.join_time) < quantum

    def test_individuating_members_listed(self):
        spec = WorkloadSpec(
            viewers=300, lectures=catalog(), seed=5,
            churn_rate=0.3, seek_rate=0.3,
        )
        script = generate(spec)
        plans = plan_cohorts(script, lambda a: "edge0")
        individuating = sum(
            len(p.individuating_members()) for p in plans
        )
        expected = sum(1 for a in script.arrivals if a.individuates)
        assert individuating == expected > 0

    def test_plans_ordered_by_join_time(self):
        script = generate(WorkloadSpec(
            viewers=100, lectures=catalog(), seed=7, flash_width=4.0))
        plans = plan_cohorts(script, lambda a: "edge0")
        times = [p.join_time for p in plans]
        assert times == sorted(times)


class TestHarness:
    """End-to-end smoke: small audiences through both execution modes."""

    SPEC = dict(
        viewers=30,
        seed=11, zipf_s=1.0, flash_fraction=0.6, flash_width=1.5,
        churn_rate=0.2, seek_rate=0.2, join_quantum=0.5,
    )

    def spec(self):
        return WorkloadSpec(
            lectures=lecture_catalog(2, 8.0, stagger=1.0), **self.SPEC
        )

    def test_cohort_mode_collapses_sessions(self):
        result = run_workload(
            self.spec(), mode="cohort",
            config=LoadConfig(edges=2, heartbeat_interval=1.0),
        )
        assert result.viewers == 30
        assert result.cohorts < 30          # aggregation actually happened
        assert result.sessions == result.cohorts + result.splits
        assert result.qoe["viewers"] == 30  # every modeled viewer counted
        assert result.events_leapt > 0      # beacon windows were leapt
        assert result.beacons > 0           # including leapt beacons
        assert result.events_per_sec > 0
        assert result.peak_rss > 0

    def test_real_mode_drives_every_viewer(self):
        result = run_workload(
            self.spec(), mode="real", config=LoadConfig(edges=2),
        )
        assert result.viewers == result.sessions == 30
        assert result.cohorts == 0
        assert result.qoe["viewers"] == 30

    def test_modes_agree_on_audience_accounting(self):
        cfg = LoadConfig(edges=2)
        cohort = run_workload(self.spec(), mode="cohort", config=cfg)
        real = run_workload(self.spec(), mode="real", config=cfg)
        assert cohort.viewers == real.viewers
        assert cohort.qoe["viewers"] == real.qoe["viewers"]
        # aggregation must make the run cheaper, not just equal
        assert cohort.events_processed < real.events_processed

    def test_ten_times_the_audience_costs_under_twice_the_events(self):
        """Cost tracks distinct behaviours, not audience size (the retired
        load-scale bench at PR 6: 10k -> 41 245 events, 100k and 1M ->
        45 655 each)."""
        def run(viewers):
            return run_workload(
                WorkloadSpec(
                    viewers=viewers, seed=0, zipf_s=1.1, flash_fraction=0.9,
                    flash_width=2.0, join_quantum=0.5,
                    lectures=lecture_catalog(2, 8.0, stagger=2.0),
                ),
                mode="cohort",
                config=LoadConfig(edges=2, heartbeat_interval=1.0),
            )

        small, large = run(2_000), run(20_000)
        assert large.viewers == large.qoe["viewers"] == 20_000
        assert large.events_processed < 2 * small.events_processed
        for row in (small, large):
            # sessions are a tiny fraction of the audience, and the
            # beacon-quiet windows were leapt, not ticked through
            assert row.sessions * 20 <= row.viewers
            assert row.events_leapt > 0

    def test_flat_tier_charges_the_backbone_budget(self):
        tracer = Tracer("flat-budget")
        budget = BackboneBudget(tracer=tracer)
        run_workload(
            self.spec(), mode="cohort",
            config=LoadConfig(
                edges=2, backbone_budget=budget, tracer=tracer,
                teardown=True,
            ),
        )
        # every prefetch fill reserved its origin->edge link, and the
        # reservation was given back
        links = {r["attrs"]["link"] for r in tracer.events("backbone.reserve")}
        assert links == {"edge0<->origin", "edge1<->origin"}
        assert budget.counters["reservations"] == budget.counters["releases"]
        budget.assert_no_leaks()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_workload(self.spec(), mode="hybrid")

    @pytest.mark.parametrize(
        "platform, expected", [("linux", 2048 * 1024), ("darwin", 2048)]
    )
    def test_peak_rss_is_bytes_on_every_platform(
        self, monkeypatch, platform, expected
    ):
        # ru_maxrss is KiB on Linux, already bytes on macOS
        monkeypatch.setattr(sys, "platform", platform)
        monkeypatch.setattr(
            resource, "getrusage", lambda who: SimpleNamespace(ru_maxrss=2048)
        )
        assert peak_rss_bytes() == expected


class TestCohortViewerLifecycle:
    def test_depart_snapshots_and_shrinks(self):
        from repro.streaming import MediaServer
        from repro.web import VirtualNetwork
        from repro.load.harness import encode_lecture

        net = VirtualNetwork()
        net.connect("server", "c", bandwidth=2_000_000, delay=0.02)
        server = MediaServer(net, "server", port=8080)
        server.publish("lec", encode_lecture("lec", 6.0))
        cohort = CohortViewer(
            net, "c", server.url_of("lec"), size=5, heartbeat_interval=0.5
        )
        cohort.start()
        net.simulator.run_until(3.0)
        qoe = cohort.depart(user="leaver")
        assert qoe is not None and qoe.multiplicity == 1
        assert cohort.multiplicity == 4
        net.simulator.run_until(20.0)
        cohort.stop_heartbeat()
        net.simulator.run(max_events=1_000_000)
        qoes = cohort.qoes()
        # 1 delegate measurement (weight 4) + 1 departure snapshot
        assert len(qoes) == 2
        assert sum(q.multiplicity for q in qoes) == 5
        assert cohort.beacons > 0


class TestPlannerPrefetch:
    """``LoadConfig.prefetch`` is a bool: ``False`` is a cold start."""

    def spec(self):
        return WorkloadSpec(
            viewers=40, seed=3, zipf_s=1.0, flash_fraction=0.6,
            flash_width=1.5, join_quantum=0.5,
            lectures=lecture_catalog(3, 8.0, stagger=4.0),
        )

    def test_prefetch_false_still_means_cold_start(self):
        result = run_workload(
            self.spec(), mode="cohort",
            config=LoadConfig(edges=2, prefetch=False),
        )
        assert "prefetch" not in result.control
        # the edge fills land inside the viewers' startup, not in setup
        warm = run_workload(
            self.spec(), mode="cohort", config=LoadConfig(edges=2),
        )
        startup = "startup_delay"
        assert result.qoe[startup]["mean"] > warm.qoe[startup]["mean"]
