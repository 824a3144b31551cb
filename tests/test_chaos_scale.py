"""Chaos at scale: a flash crowd of 100 000 viewers loses an edge.

The headline resilience scenario from the roadmap, driven end to end
through the load harness's supervision wiring:

* a 100k-viewer flash crowd (cohort mode) floods a 4-edge tier;
* one edge is crashed *mid-wave* by a scripted :class:`FaultPlan` —
  nothing tells the directory; the heartbeat monitor must notice;
* detection is organic (missed beacons at the controller) and bounded;
  the only suspicion in the whole run is the crashed edge — zero false
  positives under full load;
* arrivals that land on the dead edge during the detection window are
  deferred and re-resolved through the directory once suspicion lands;
* the entire run's trace passes the full :class:`TraceChecker` audit —
  session balance, QoS hygiene, no traffic after close, render
  monotonicity — crash, reconnects and all.

``CHAOS_SCALE_VIEWERS`` shrinks the audience for smoke runs (CI uses
2 000); the default is the full 100 000.
"""

import os

from repro.load import LoadConfig, WorkloadSpec, run_workload
from repro.net import FaultPlan
from repro.obs import TraceChecker, Tracer
from repro.streaming import RecoveryConfig
from tests.helpers import lecture_catalog

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))
VIEWERS = int(os.environ.get("CHAOS_SCALE_VIEWERS", "100000"))

EDGES = 4
CRASH_AT = 1.0          # mid-wave: the flash window spans [0, 2]
MONITOR_INTERVAL = 0.5
MISS = 3


def flash_spec():
    return WorkloadSpec(
        viewers=VIEWERS,
        lectures=lecture_catalog(2, 20.0, stagger=5.0),
        seed=CHAOS_SEED,
        zipf_s=1.1,
        flash_fraction=0.9,
        flash_width=2.0,
        churn_rate=0.0,
        seek_rate=0.0,
        join_quantum=0.5,
    )


class TestFlashCrowdSurvivesEdgeCrash:
    def test_100k_flash_crowd_with_midwave_crash_passes_full_audit(self):
        plan = FaultPlan("midwave-kill").edge_crash("edge0", at=CRASH_AT)
        tracer = Tracer("chaos-scale")
        result = run_workload(
            flash_spec(),
            mode="cohort",
            config=LoadConfig(
                edges=EDGES,
                recovery=RecoveryConfig(),
                heartbeat_monitor=True,
                monitor_interval=MONITOR_INTERVAL,
                monitor_miss_threshold=MISS,
                fault_plan=plan,
                tracer=tracer,
                teardown=True,
            ),
        )

        context = f"\n{plan.describe()}\n{result.control}"

        # the whole audience was modeled and measured
        assert result.viewers == VIEWERS
        assert result.qoe["viewers"] == VIEWERS
        assert result.cohorts < result.viewers / 10  # aggregation held

        # detection: exactly the crashed edge, nothing else, and fast.
        # Zero false suspicions under a 100k-viewer load is the point —
        # load must not read as silence. Plan times are rebased past the
        # prefetch window, so the crash instant is offset + CRASH_AT.
        crashed_at = result.control["fault_offset"] + CRASH_AT
        suspicions = result.control["suspicions"]
        assert [s["edge"] for s in suspicions] == ["edge0"], context
        detection = suspicions[0]["time"] - crashed_at
        assert 0.0 < detection <= (MISS + 2) * MONITOR_INTERVAL + 0.01, context
        assert result.control["monitor"]["suspicions"] == 1, context

        # the fault script actually ran, and only the scripted kill
        assert [
            (f["kind"], f["target"]) for f in result.control["faults_applied"]
        ] == [("server_crash", "edge0")], context
        applied_at = result.control["faults_applied"][0]["time"]
        assert abs(applied_at - crashed_at) < 1e-9, context

        # viewers stranded by the crash actually felt it (stall-and-
        # reconnect rebuffers, or joins deferred past the dead edge) —
        # proof the kill landed on a loaded edge, not an idle one
        stranded = result.qoe.get("total_rebuffers", 0)
        deferred = result.control.get("joins_deferred", 0)
        assert stranded + deferred >= 1, context

        # the full cross-layer audit holds over the entire chaotic run
        checker = TraceChecker(tracer.records).assert_ok()
        assert checker.sessions_opened == checker.sessions_closed
        assert checker.renders_seen > 0

    def test_fault_free_run_at_scale_has_no_suspicions(self):
        result = run_workload(
            flash_spec(),
            mode="cohort",
            config=LoadConfig(
                edges=EDGES,
                heartbeat_monitor=True,
                monitor_interval=MONITOR_INTERVAL,
                monitor_miss_threshold=MISS,
                teardown=True,
            ),
        )
        assert result.viewers == VIEWERS
        assert result.control["suspicions"] == []
        assert result.control["monitor"].get("suspicions", 0) == 0
        assert result.control["monitor"]["beats"] > 0
