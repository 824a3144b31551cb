"""One repeat of one workload, in a fresh process.

``python -m bench.child --workload NAME --seed N --t0 SPAWN_TIME`` builds the
workload's inputs from the seed, runs it once against the program under
test, checks the outputs and prints one JSON object on its last line of
standard output. The parent (``bench/run.py``) spawns it with
``PYTHONHASHSEED=0`` and never runs two at once.

``--trace 1`` installs the layer spans of ``bench/spans.py`` and a
``repro.obs.Tracer`` first and adds the per-layer metrics; ``--profile``
runs the repeat under cProfile and folds ``tottime`` by ``repro.*`` module.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def _viewer_seconds(script: Any) -> float:
    """Scripted watch time of the whole audience."""
    duration = {lec.name: lec.duration for lec in script.spec.lectures}
    total = 0.0
    for a in script.arrivals:
        end = a.join_time + duration[a.lecture] - a.start_position
        if a.seek is not None:
            end = max(end, a.seek[0] + duration[a.lecture] - a.seek[1])
        if a.leave_time is not None:
            end = min(end, a.leave_time)
        total += end - a.join_time
    return total


def run_stream(workload: Any, rec: Any, tracer: Any, observer: Any) -> Dict[str, Any]:
    from repro.load import generate, run_workload
    from repro.load import harness

    from . import check
    from .viewers import viewer_metrics

    plans: List[Any] = []
    if rec is not None:
        generate = rec.method(generate, "load.workload", "generate")
        run_workload = rec.method(run_workload, "load.harness", "run_workload")
        # the cohort plan, to compare scripted and actual join instants
        plan_cohorts = harness.plan_cohorts

        def keeping_plans(*args, **kwargs):
            planned = plan_cohorts(*args, **kwargs)
            plans.extend(planned)
            return planned

        harness.plan_cohorts = keeping_plans
        workload.config.tracer = tracer

    t = time.perf_counter()
    script = generate(workload.spec)
    generate_s = time.perf_counter() - t
    result = run_workload(script, mode=workload.mode, config=workload.config)

    seekers = {a.viewer for a in script.arrivals if a.seek is not None}
    viewers = viewer_metrics(observer, len(script), seekers)
    control = result.control
    out = {
        "drive_s": result.wall_s,
        "e2e": dict(
            viewers["e2e"],
            origin_egress_mb=control["origin"]["bytes_served"] / 1e6,
        ),
        "ops_total": viewers["ops_total"],
        "ops_failed": viewers["ops_failed"],
        "facts": dict(
            viewers["facts"],
            viewers=result.viewers,
            sessions=result.sessions,
            events=result.events_processed,
            origin_sessions=control["origin"]["sessions_created"],
            joins_deferred=control.get("joins_deferred", 0),
            suspicions=len(control.get("suspicions", [])),
            rebuffers=result.qoe.get("total_rebuffers", 0),
        ),
        "failures": viewers["failures"]
        + check.check_stream(workload, len(script), result, viewers["ops_total"]),
    }
    if rec is not None:
        if workload.mode == "real":
            scripted_join = {a.viewer: a.join_time for a in script.arrivals}
        else:
            prefix = workload.config.client_prefix
            scripted_join = {
                f"{prefix}cohort{i}": p.join_time for i, p in enumerate(plans)
            }
        out["layer_inputs"] = dict(
            viewer_seconds=_viewer_seconds(script),
            result=result,
            startup_by_client={r.client: r.startup_delay for r in observer.rows},
            scripted_join=scripted_join,
            extra={
                "load.workload.generate_s": generate_s,
                "load.workload.plan_cohorts_s": sum(
                    s[5] - s[4] for _, s in rec.select("load.workload", "plan_cohorts")
                ),
            },
        )
        out["traced_check"] = lambda layers: check.check_traced_stream(workload, layers)
    return out


def run_publish(workload: Any, rec: Any, tracer: Any, observer: Any) -> Dict[str, Any]:
    from repro.asf import ASFFile, EncodeCache
    from repro.lod import LODPublisher
    from repro.media import get_profile
    from repro.obs.qoe import QoEAggregator, SessionQoE
    from repro.streaming import MediaPlayer, MediaServer
    from repro.web import VirtualNetwork

    from . import check
    from .viewers import viewer_metrics
    from .workloads import REPLAY_PROFILE, edit_first_slide

    renditions = [get_profile(name) for name in workload.renditions]
    cache = EncodeCache()
    publisher = LODPublisher(renditions=renditions, cache=cache, tracer=tracer)
    failures: List[str] = []
    passes = {"first": 0.0, "again": 0.0, "edited": 0.0}
    built = bad = encodes = 0
    clock = time.perf_counter
    drive_start = clock()
    for k, lecture in enumerate(workload.lectures):
        results = {}
        for name, source in (
            ("first", lecture), ("again", lecture), ("edited", edit_first_slide(lecture)),
        ):
            t = clock()
            results[name] = publisher.publish(source, f"grid{k}")
            passes[name] += clock() - t
            encodes += results[name].encodes_performed
        failures += check.check_publish_pass(**results)
        # every variant is packed and compared byte for byte with its clean
        # republish; the smallest one also goes through unpack (parsing the
        # wire image costs more than building it, so one per lecture)
        smallest = min(results["first"].variants)
        for key, variant in results["first"].variants.items():
            packed = variant.asf.pack()
            ok = results["again"].variants[key].asf.pack() == packed
            if key == smallest:
                ok = ok and (
                    ASFFile.unpack(packed).fingerprint() == variant.asf.fingerprint()
                )
            built += 1
            bad += not ok
        for variant in results["edited"].variants.values():
            variant.asf.pack()

    # replay check: the only part of this workload that touches the network
    spans_before_replay = len(rec.spans) if rec is not None else 0
    bandwidth, delay = workload.replay_link
    network = VirtualNetwork()
    network.connect("server", "student", bandwidth=bandwidth, delay=delay)
    if tracer is not None:
        tracer.bind_clock(network.simulator)
    server = MediaServer(network, "server", port=8080, tracer=tracer)
    published = LODPublisher(
        server, renditions=renditions, cache=cache, tracer=tracer
    ).publish(workload.lectures[0], "replay")
    variant = published.variant(max(published.levels), REPLAY_PROFILE)
    report = MediaPlayer(network, "student", user="student", tracer=tracer).watch(
        variant.url
    )
    drive_s = clock() - drive_start
    failures += check.check_replay(variant, report)
    QoEAggregator().add(SessionQoE.from_report(report, client="student"))
    viewers = viewer_metrics(observer, 1, set())
    if bad:
        failures.append(f"{bad} of {built} variants failed the byte/round-trip check")

    out = {
        "drive_s": drive_s,
        "e2e": dict(viewers["e2e"], origin_egress_mb=server.bytes_served / 1e6),
        "ops_total": built + viewers["ops_total"],
        "ops_failed": bad + viewers["ops_failed"],
        "facts": {
            "variants": built,
            "encodes": encodes,
            "replay_events": network.simulator.events_processed,
            "replay_slides": len(report.slide_changes()),
        },
        "failures": failures + viewers["failures"],
    }
    if rec is not None:
        network_spans = sum(
            1 for s in rec.spans[:spans_before_replay]
            if s[0].split(".")[0] in ("net", "web", "streaming")
        )
        out["layer_inputs"] = dict(
            startup_by_client={"student": report.startup_latency},
            extra={
                "lod.publisher.first_publish_s": passes["first"],
                "lod.publisher.republish_s": passes["again"],
                "lod.publisher.edit_republish_s": passes["edited"],
            },
        )
        out["traced_check"] = lambda layers: check.check_traced_publish(
            layers, network_spans
        )
    return out


def _audit(tracer: Any) -> Dict[str, float]:
    """The program's own trace, audited by its own checker."""
    from repro.obs import TraceChecker

    t = time.perf_counter()
    summary = TraceChecker(tracer.records).summary()
    return {
        "obs.checker.records": summary["records"],
        "obs.checker.violations": summary["violations"],
        "obs.checker.check_s": time.perf_counter() - t,
    }


def _fold_profile(profile: Any) -> Dict[str, Dict[str, float]]:
    """cProfile ``tottime`` and primitive calls by ``repro.*`` module."""
    import pstats

    marker = os.sep + "repro" + os.sep
    folded: Dict[str, Dict[str, float]] = {}
    total = 0.0
    for (filename, _, _), (calls, _, tottime, _, _) in pstats.Stats(profile).stats.items():
        total += tottime
        if marker not in filename:
            continue
        module = filename.split(marker, 1)[1][: -len(".py")].replace(os.sep, ".")
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        row = folded.setdefault(module, {"tottime_s": 0.0, "calls": 0})
        row["tottime_s"] += tottime
        row["calls"] += calls
    for row in folded.values():
        row["share"] = row["tottime_s"] / total if total else 0.0
    return folded


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--t0", type=float, default=None,
                        help="time.time() at which the parent spawned this process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--spans-out", default="",
                        help="write the layer spans to this JSONL file")
    args = parser.parse_args(argv)
    spawned = args.t0 if args.t0 is not None else time.time()

    sys.path.insert(0, str(ROOT / "src"))
    from . import spans
    from .viewers import QoEObserver
    from .workloads import BUILDERS, PublishWorkload

    rec = tracer = None
    if args.trace:
        from repro.obs import Tracer

        rec = spans.install()
        tracer = Tracer(args.workload)
    observer = QoEObserver()
    observer.install()

    workload = BUILDERS[args.workload](args.seed, args.smoke)
    run = run_publish if isinstance(workload, PublishWorkload) else run_stream
    profile = None
    if args.profile:
        import cProfile

        profile = cProfile.Profile()
        out = profile.runcall(run, workload, rec, tracer, observer)
    else:
        out = run(workload, rec, tracer, observer)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    wall = time.time() - spawned
    out["e2e"].update(
        cpu_s=usage.ru_utime + usage.ru_stime,
        drive_s=out.pop("drive_s"),
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )
    out["e2e"]["setup_s"] = wall - out["e2e"]["drive_s"]

    if rec is not None:
        from .layers import layer_metrics

        inputs = out.pop("layer_inputs")
        inputs.setdefault("extra", {}).update(_audit(tracer))
        layers = layer_metrics(rec, child_wall_s=wall, **inputs)
        out["failures"] += out.pop("traced_check")(layers)
        out["layers"] = layers
        out["layer_self_s"] = rec.self_by_layer()
        if args.spans_out:
            os.makedirs(os.path.dirname(args.spans_out), exist_ok=True)
            rec.write_jsonl(args.spans_out)
    if profile is not None:
        out["profile"] = _fold_profile(profile)

    out.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print(json.dumps(out))
    return 1 if out["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
