"""Per-layer metrics of one traced child, from its spans and from the
program's public counters (imported by the child only).

Every name in ``schema.PER_LAYER`` gets a value on every workload; a layer
that did nothing reads 0.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.metrics.counters import counters_snapshot

from .schema import PER_LAYER
from .spans import LAYER, NAME, SESSION, SIM0, SIM1, T0, T1, VALUE, Recorder, median

#: layers whose self time is a metric of its own; the rest of ``repro.*``
#: is summed into trace.other_layers_share
SELF_TIME_LAYERS = [
    m.name[: -len(".self_s")] for m in PER_LAYER if m.name.endswith(".self_s")
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _incl(rec: Recorder, layer: str, name: str) -> float:
    """Host time inside (layer, name) spans, outermost ones only."""
    depth = rec.depth_inside(layer, name)
    return sum(s[T1] - s[T0] for i, s in rec.select(layer, name) if depth[i] == 1)


def _count(rec: Recorder, layer: str, name: str) -> int:
    return sum(1 for _ in rec.select(layer, name))


def _sim_durations(rec: Recorder, layer: str, name: str) -> List[float]:
    return [s[SIM1] - s[SIM0] for _, s in rec.select(layer, name)]


def layer_metrics(
    rec: Recorder,
    *,
    child_wall_s: float,
    viewer_seconds: float = 0.0,
    result: Any = None,
    startup_by_client: Optional[Dict[str, float]] = None,
    scripted_join: Optional[Dict[str, float]] = None,
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """``extra`` carries what the child timed itself (generate_s, the
    publish passes, the trace audit); ``result`` is the ``LoadResult`` of a
    streaming workload; ``scripted_join`` maps a session (player user or
    cohort host) to the instant its script wanted it to join."""
    out: Dict[str, float] = {m.name: 0.0 for m in PER_LAYER}
    out.update(extra or {})
    own = rec.self_times()
    by_layer = rec.self_by_layer()
    counters = counters_snapshot()

    def self_of(layer: str, name: str) -> float:
        return sum(own[i] for i, _ in rec.select(layer, name))

    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = by_layer.get(layer, 0.0)
    # load.harness also owns the script generation and cohort bookkeeping
    out["load.harness.self_s"] = sum(
        by_layer.get(layer, 0.0)
        for layer in ("load.harness", "load.workload", "load.cohort")
    )
    attributed = sum(by_layer.values())
    named = sum(out[f"{layer}.self_s"] for layer in SELF_TIME_LAYERS)
    out["trace.spans"] = len(rec.spans)
    out["trace.other_layers_share"] = _ratio(attributed - named, child_wall_s)
    out["trace.unattributed_share"] = _ratio(child_wall_s - attributed, child_wall_s)

    # -- net.engine ------------------------------------------------------
    sim = rec.sim
    events = sim.events_processed if sim is not None else 0
    out["net.engine.events"] = events
    out["net.engine.events_leapt"] = sim.events_leapt if sim is not None else 0
    out["net.engine.cancelled_drained"] = (
        sim.cancelled_drained if sim is not None else 0
    )
    out["net.engine.step_calls"] = _count(rec, "net.engine", "step")
    out["net.engine.step_max_depth"] = max(
        rec.depth_inside("net.engine", "step"), default=0
    )
    out["net.engine.us_per_event"] = _ratio(
        out["net.engine.self_s"] * 1e6, events
    )
    out["net.engine.events_per_viewer_s"] = _ratio(events, viewer_seconds)

    # -- net.link / net.transport ---------------------------------------
    stats = [link.stats for link in rec.links.values()]
    out["net.link.transmits"] = sum(s.sent for s in stats)
    out["net.link.bytes_delivered"] = sum(s.bytes_delivered for s in stats)
    out["net.link.dropped"] = sum(
        s.dropped_loss + s.dropped_queue + s.dropped_down for s in stats
    )
    out["net.transport.sends"] = _count(rec, "net.transport", "send")

    # -- web.http ---------------------------------------------------------
    fetches = _count(rec, "web.http", "fetch")
    out["web.http.fetches"] = fetches
    out["web.http.fetch_incl_s"] = _incl(rec, "web.http", "fetch")
    out["web.http.fetch_sim_p50_s"] = median(_sim_durations(rec, "web.http", "fetch"))
    # a fetch that raised (timeout, refused) left no response to handle
    out["web.http.errors"] = fetches - sum(
        1 for i, s in rec.select("web.http", "fetch") if s[VALUE] == 1
    )

    # -- streaming.server -------------------------------------------------
    out["streaming.server.sessions_opened"] = _count(
        rec, "streaming.server", "open_session")
    out["streaming.server.plays"] = _count(rec, "streaming.server", "play")
    out["streaming.server.seeks"] = _count(rec, "streaming.server", "seek")
    out["streaming.server.closes"] = _count(
        rec, "streaming.server", "close_session")

    # -- streaming.edge ---------------------------------------------------
    cache = counters.get("edge_cache", {})
    out["streaming.edge.place_calls"] = _count(rec, "streaming.edge", "place")
    out["streaming.edge.place_s"] = _incl(rec, "streaming.edge", "place")
    out["streaming.edge.prefetch_s"] = _incl(rec, "streaming.edge", "prefetch")
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    out["streaming.edge.cache_hits"] = hits
    out["streaming.edge.cache_misses"] = misses
    out["streaming.edge.cache_hit_ratio"] = _ratio(hits, hits + misses)
    for kind in ("fills", "origin_fills", "parent_fills", "sibling_fills"):
        out[f"streaming.edge.{kind}"] = cache.get(kind, 0)
    in_prefetch = rec.depth_inside("streaming.edge", "prefetch")
    out["streaming.edge.demand_fills"] = sum(
        1 for i, s in rec.select("streaming.edge", "lookup")
        if s[VALUE] == 0 and in_prefetch[i] == 0
    )
    out["streaming.edge.fill_wait_sim_p50_s"] = median(_fill_waits(rec))

    # -- asf.packets / asf.stream ----------------------------------------
    out["asf.packets.push_calls"] = _count(rec, "asf.packets", "push_packet")
    out["asf.packets.push_self_s"] = self_of("asf.packets", "push_packet")
    out["asf.packets.units_out"] = sum(
        s[VALUE] or 0 for _, s in rec.select("asf.packets", "push_packet"))
    out["asf.packets.packetize_s"] = _incl(rec, "asf.packets", "packetize")
    out["asf.packets.packets_built"] = sum(
        s[VALUE] or 0 for _, s in rec.select("asf.packets", "packetize"))
    out["asf.stream.pack_s"] = _incl(rec, "asf.stream", "pack")
    out["asf.stream.packed_mb"] = sum(
        s[VALUE] or 0 for _, s in rec.select("asf.stream", "pack")) / 1e6

    # -- streaming.client -------------------------------------------------
    out["streaming.client.render_ticks"] = _count(
        rec, "streaming.client", "_render_tick")
    out["streaming.client.render_self_s"] = self_of(
        "streaming.client", "_render_tick")
    connects = {s[SESSION]: s for _, s in rec.select("streaming.client", "connect")}
    plays = {s[SESSION]: s for _, s in rec.select("streaming.client", "play")}
    out["streaming.client.connect_sim_p50_s"] = median(
        _sim_durations(rec, "streaming.client", "connect"))
    out["streaming.client.play_sim_p50_s"] = median(
        _sim_durations(rec, "streaming.client", "play"))
    out["streaming.client.preroll_sim_p50_s"] = median([
        startup - (c[SIM1] - c[SIM0]) - (plays[who][SIM1] - plays[who][SIM0])
        for who, c in connects.items()
        if who in plays
        for startup in [(startup_by_client or {}).get(who)]
        if startup is not None and startup != float("inf")
    ])
    out["streaming.client.seeks"] = _count(rec, "streaming.client", "seek")
    out["streaming.client.stops"] = _count(rec, "streaming.client", "stop")
    out["web.http.fetches_per_session"] = _ratio(fetches, len(connects))

    # -- load.harness: how late the scripted joins ran --------------------
    first_connect: Dict[str, float] = {}
    for _, s in rec.select("streaming.client", "connect"):
        first_connect.setdefault(s[SESSION], s[SIM0])
    lags = [
        first_connect[who] - due
        for who, due in (scripted_join or {}).items() if who in first_connect
    ]
    out["load.harness.join_lag_sim_p50_s"] = median(lags)
    out["load.harness.join_lag_sim_max_s"] = max(lags, default=0.0)

    # -- publish side counters -------------------------------------------
    farm = counters.get("encode_farm", {})
    enc = counters.get("encode_cache", {})
    out["asf.farm.jobs_submitted"] = farm.get("jobs", 0)
    out["asf.farm.dedup_hits"] = farm.get("dedup_hits", 0)
    out["asf.encoder.encodes"] = farm.get("encodes", 0)
    seg_hits = enc.get("segment_hits", 0)
    out["asf.encoder.segment_hit_ratio"] = _ratio(
        seg_hits, seg_hits + enc.get("segment_misses", 0))

    if result is not None:
        _from_load_result(out, result)
    return out


def _fill_waits(rec: Recorder) -> List[float]:
    """Simulated time from a run-cache miss to the store that fills it,
    per (cache, key): how long a fill kept its requester waiting."""
    missed: Dict[Any, float] = {}
    waits: List[float] = []
    for span in rec.spans:
        if span[LAYER] != "streaming.edge":
            continue
        if span[NAME] == "lookup" and span[VALUE] == 0:
            missed.setdefault(span[SESSION], span[SIM0])
        elif span[NAME] == "store" and span[SESSION] in missed:
            waits.append(span[SIM1] - missed.pop(span[SESSION]))
    return waits


def _from_load_result(out: Dict[str, float], result: Any) -> None:
    control = result.control
    out["load.cohort.sessions"] = result.sessions
    out["load.cohort.viewers_per_session"] = _ratio(result.viewers, result.sessions)
    out["load.cohort.splits"] = result.splits
    out["load.cohort.departures"] = result.departures
    out["load.harness.joins_deferred"] = control.get("joins_deferred", 0)
    out["streaming.server.origin_sessions"] = control["origin"]["sessions_created"]
    monitor = control.get("monitor", {})
    for key in ("beats", "sweeps", "suspicions"):
        out[f"control.heartbeat.{key}"] = monitor.get(key, 0)
    suspicions = control.get("suspicions", [])
    crashes = [f for f in control.get("faults_applied", []) if "crash" in f["kind"]]
    if suspicions and crashes:
        out["control.heartbeat.detection_sim_s"] = (
            suspicions[0]["time"] - crashes[0]["time"]
        )
    qoe = result.qoe
    out["streaming.recovery.rebuffers"] = qoe.get("total_rebuffers", 0)
    out["streaming.recovery.naks_sent"] = qoe.get("total_naks_sent", 0)
    out["streaming.recovery.repairs_received"] = qoe.get("total_repairs_received", 0)
