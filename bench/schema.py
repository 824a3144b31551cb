"""Names, units, directions and bounds of everything the benchmark reports.

``BENCHMARK.json`` at the repository root is generated from this module
(``python bench/run.py --manifest``); the runner refuses to start when the
two disagree. Nothing here imports the program under test.

``kind`` says how a metric is estimated from the repeats of a run:

* ``time`` — host time: each repeat's value is scaled by the calibration
  measured around that repeat (a fixed pure-Python loop, see ``run.py``),
  so that a machine that is slow for a minute does not read as a slow
  program, and the run reports the median over its repeats;
* ``noisy`` — memory, or a ratio of host times: the median over the repeats;
* ``sim``  — simulated time of the deterministic DES: must repeat exactly
  across the repeats of a run (the determinism guard);
* ``count`` — a count or a ratio of counts: must repeat exactly too.
"""

from __future__ import annotations

from typing import List, NamedTuple


class Workload(NamedTuple):
    name: str
    why: str


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may worsen
    bound: float
    kind: str
    what: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    kind: str
    #: the end-to-end metric (and workload) this layer metric should move
    moves: str


STARTUP_LIMIT_S = 5.0

WORKLOADS: List[Workload] = [
    Workload(
        "flash_vod_warm",
        "50k cohort viewers, warm caches: audience-size work (generate, plan, "
        "place) sets setup_s; edge fill and origin idle while driven",
    ),
    Workload(
        "campus_real_seek",
        "100 real players at lan-1m with 10% seeks and early leaves: the "
        "per-packet path (push_packet, link, pacing) with no cohort aggregation",
    ),
    Workload(
        "cold_tree_fill",
        "flash crowd on a cold 16-edge, 4-region tree: the sibling/parent/origin "
        "fill cascade decides origin egress and the startup tail",
    ),
    Workload(
        "edge_crash_recovery",
        "an edge dies mid-run under 20k viewers: heartbeat detection, reconnects "
        "and deferred joins; the only workload with rebuffering",
    ),
    Workload(
        "publish_grid",
        "the write path: levels x renditions publish, clean and edited "
        "republish, pack, then one replay; no network in the publish passes",
    ),
]

END_TO_END: List[EndToEnd] = [
    EndToEnd("cpu_s", "s", "lower", 0.25, "time",
             "user+sys CPU of one whole workload process"),
    EndToEnd("drive_s", "s", "lower", 0.25, "time",
             "wall time of the driven region (LoadResult.wall_s; publish "
             "passes + pack + replay on publish_grid)"),
    EndToEnd("setup_s", "s", "lower", 0.25, "time",
             "wall time from process spawn to result, minus drive_s"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10, "noisy",
             "ru_maxrss of the workload process"),
    EndToEnd("startup_p50_s", "s", "lower", 0.05, "sim",
             "viewer-weighted median startup delay"),
    EndToEnd("startup_tail_s", "s", "lower", 0.05, "sim",
             "mean startup delay of the slowest 1 % of viewers (slowest 10 % "
             "where fewer than 1000 viewers)"),
    EndToEnd("startup_within_5s_share", "ratio", "higher", 0.01, "count",
             "scripted viewers that started within 5 s; failed ones miss"),
    EndToEnd("playing_time_share", "ratio", "higher", 0.01, "sim",
             "watched time over watched + rebuffering time, all viewers"),
    EndToEnd("origin_egress_mb", "MB", "lower", 0.02, "count",
             "bytes the origin served during the run, warming included"),
    EndToEnd("slide_sync_err_s", "s", "lower", 0.20, "sim",
             "viewer-weighted mean, over viewers that never seek, of the "
             "session's mean slide-command sync error"),
]


def _layer(prefix: str, moves: str, rows: List[tuple]) -> List[PerLayer]:
    return [
        PerLayer(f"{prefix}.{name}", unit, better, kind, moves)
        for name, unit, better, kind in rows
    ]


PER_LAYER: List[PerLayer] = [
    *_layer("load.workload", "setup_s, cpu_s (flash_vod_warm)", [
        ("generate_s", "s", "lower", "time"),
        ("plan_cohorts_s", "s", "lower", "time"),
    ]),
    *_layer("load.cohort", "cpu_s, drive_s (flash_vod_warm, edge_crash_recovery)", [
        ("sessions", "count", "lower", "count"),
        ("viewers_per_session", "ratio", "higher", "count"),
        ("splits", "count", "lower", "count"),
        ("departures", "count", "lower", "count"),
    ]),
    *_layer("load.harness", "startup from the scripted instant (all streaming)", [
        ("self_s", "s", "lower", "time"),
        ("joins_deferred", "count", "lower", "count"),
        ("join_lag_sim_p50_s", "s", "lower", "sim"),
        ("join_lag_sim_max_s", "s", "lower", "sim"),
    ]),
    *_layer("net.engine", "cpu_s, drive_s (all four streaming workloads)", [
        ("events", "count", "lower", "count"),
        ("events_leapt", "count", "higher", "count"),
        ("cancelled_drained", "count", "lower", "count"),
        ("self_s", "s", "lower", "time"),
        ("step_calls", "count", "lower", "count"),
        ("step_max_depth", "count", "lower", "count"),
        ("us_per_event", "us", "lower", "time"),
        ("events_per_viewer_s", "1/s", "lower", "count"),
    ]),
    *_layer("net.link", "cpu_s, drive_s (campus_real_seek)", [
        ("transmits", "count", "lower", "count"),
        ("bytes_delivered", "count", "lower", "count"),
        ("dropped", "count", "lower", "count"),
        ("self_s", "s", "lower", "time"),
    ]),
    *_layer("net.transport", "cpu_s, drive_s (campus_real_seek)", [
        ("sends", "count", "lower", "count"),
        ("self_s", "s", "lower", "time"),
    ]),
    *_layer("web.http", "cpu_s (cold_tree_fill, flash_vod_warm); startup_p50_s (all)", [
        ("fetches", "count", "lower", "count"),
        ("fetches_per_session", "ratio", "lower", "count"),
        ("fetch_incl_s", "s", "lower", "time"),
        ("fetch_sim_p50_s", "s", "lower", "sim"),
        ("self_s", "s", "lower", "time"),
        ("errors", "count", "lower", "count"),
    ]),
    *_layer("streaming.server", "cpu_s (campus_real_seek); origin_egress_mb (cold_tree_fill)", [
        ("sessions_opened", "count", "lower", "count"),
        ("plays", "count", "lower", "count"),
        ("seeks", "count", "lower", "count"),
        ("closes", "count", "lower", "count"),
        ("self_s", "s", "lower", "time"),
        ("origin_sessions", "count", "lower", "count"),
    ]),
    *_layer("streaming.edge", "origin_egress_mb, startup_tail_s (cold_tree_fill); "
            "setup_s via place_s (flash_vod_warm); flat on campus_real_seek", [
        ("place_calls", "count", "lower", "count"),
        ("place_s", "s", "lower", "time"),
        ("prefetch_s", "s", "lower", "time"),
        ("cache_hits", "count", "higher", "count"),
        ("cache_misses", "count", "lower", "count"),
        ("cache_hit_ratio", "ratio", "higher", "count"),
        ("fills", "count", "lower", "count"),
        ("demand_fills", "count", "lower", "count"),
        ("origin_fills", "count", "lower", "count"),
        ("parent_fills", "count", "lower", "count"),
        ("sibling_fills", "count", "higher", "count"),
        ("fill_wait_sim_p50_s", "s", "lower", "sim"),
        ("self_s", "s", "lower", "time"),
    ]),
    *_layer("asf.packets", "cpu_s (campus_real_seek via push; publish_grid via packetize)", [
        ("self_s", "s", "lower", "time"),
        ("push_calls", "count", "lower", "count"),
        ("push_self_s", "s", "lower", "time"),
        ("units_out", "count", "lower", "count"),
        ("packetize_s", "s", "lower", "time"),
        ("packets_built", "count", "lower", "count"),
    ]),
    *_layer("streaming.client", "cpu_s (flash_vod_warm, edge_crash_recovery: tick cost "
            "is per session-second); startup_p50_s (all); peak_rss_mb (campus_real_seek)", [
        ("render_ticks", "count", "lower", "count"),
        ("render_self_s", "s", "lower", "time"),
        ("self_s", "s", "lower", "time"),
        ("connect_sim_p50_s", "s", "lower", "sim"),
        ("play_sim_p50_s", "s", "lower", "sim"),
        ("preroll_sim_p50_s", "s", "lower", "sim"),
        ("seeks", "count", "lower", "count"),
        ("stops", "count", "lower", "count"),
    ]),
    *_layer("control.heartbeat", "playing_time_share, startup_within_5s_share, "
            "startup_tail_s (edge_crash_recovery only; 0 elsewhere)", [
        ("beats", "count", "lower", "count"),
        ("sweeps", "count", "lower", "count"),
        ("suspicions", "count", "lower", "count"),
        ("detection_sim_s", "s", "lower", "sim"),
    ]),
    *_layer("streaming.recovery", "playing_time_share (edge_crash_recovery only)", [
        ("rebuffers", "count", "lower", "count"),
        ("naks_sent", "count", "lower", "count"),
        ("repairs_received", "count", "lower", "count"),
    ]),
    *_layer("lod.publisher", "cpu_s, drive_s, peak_rss_mb (publish_grid only)", [
        ("first_publish_s", "s", "lower", "time"),
        ("republish_s", "s", "lower", "time"),
        ("edit_republish_s", "s", "lower", "time"),
        ("self_s", "s", "lower", "time"),
    ]),
    *_layer("asf.farm", "cpu_s, drive_s (publish_grid only)", [
        ("jobs_submitted", "count", "lower", "count"),
        ("dedup_hits", "count", "higher", "count"),
        ("self_s", "s", "lower", "time"),
    ]),
    *_layer("asf.encoder", "cpu_s (publish_grid); setup_s only on the streaming four", [
        ("encodes", "count", "lower", "count"),
        ("segment_hit_ratio", "ratio", "higher", "count"),
        ("self_s", "s", "lower", "time"),
    ]),
    *_layer("media.codecs", "cpu_s (publish_grid); setup_s only on the streaming four", [
        ("self_s", "s", "lower", "time"),
    ]),
    *_layer("contenttree.abstractor", "cpu_s (publish_grid only)", [
        ("self_s", "s", "lower", "time"),
    ]),
    *_layer("asf.stream", "cpu_s, peak_rss_mb (publish_grid only)", [
        ("self_s", "s", "lower", "time"),
        ("pack_s", "s", "lower", "time"),
        ("packed_mb", "MB", "lower", "count"),
    ]),
    *_layer("obs.checker", "none: guards the measurement itself", [
        ("records", "count", "lower", "count"),
        ("violations", "count", "lower", "count"),
        ("check_s", "s", "lower", "time"),
    ]),
    *_layer("trace", "none: guards the measurement itself", [
        ("spans", "count", "lower", "count"),
        ("other_layers_share", "ratio", "lower", "noisy"),
        ("unattributed_share", "ratio", "lower", "noisy"),
        ("overhead_ratio", "ratio", "lower", "noisy"),
    ]),
]

WORKLOAD_NAMES = [w.name for w in WORKLOADS]

#: how long one driver run measures (``--seconds``), also in the manifest
RUN_SECONDS = 20


def manifest() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
