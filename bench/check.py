"""Output checks, run by every child on every repeat (imported by the
child only). Each returns the list of failures; an empty list passes.
"""

from __future__ import annotations

from typing import Any, Dict, List

from .workloads import StreamWorkload

#: the render tick is 50 ms; a slide later than two ticks is out of sync
SYNC_LIMIT_S = 0.1


def check_stream(
    workload: StreamWorkload, scripted: int, result: Any, with_qoe_row: int
) -> List[str]:
    failures: List[str] = []
    control = result.control
    suspicions = control.get("suspicions", [])
    rebuffers = result.qoe.get("total_rebuffers", 0)

    if result.viewers != scripted or with_qoe_row != scripted:
        failures.append(
            f"{scripted} viewers scripted, {result.viewers} driven, "
            f"{with_qoe_row} with a QoE row"
        )
    if control["origin"]["bytes_served"] <= 0:
        failures.append("the origin served no bytes")

    if workload.crashed_edge:
        suspected = [s["edge"] for s in suspicions]
        if suspected != [workload.crashed_edge]:
            failures.append(
                f"expected one suspicion of {workload.crashed_edge}, got {suspected}"
            )
        if not control.get("joins_deferred", 0) and not rebuffers:
            failures.append("the crash deferred no join and stalled no viewer")
    else:
        if rebuffers:
            failures.append(f"{rebuffers} rebuffers on a fault-free workload")
        if suspicions:
            failures.append(f"suspicions on a fault-free workload: {suspicions}")
    return failures


def check_traced_stream(
    workload: StreamWorkload, layers: Dict[str, float]
) -> List[str]:
    """What only the traced child can see: the layer table matches the
    workload's design (warm ones never fill on demand, the cold one does)."""
    failures: List[str] = []
    demand = layers["streaming.edge.demand_fills"]
    cold = workload.config.prefetch is False
    if cold and demand <= 0:
        failures.append("cold workload made no demand fill")
    if not cold and demand != 0:
        failures.append(f"warm workload made {demand:g} demand fills")
    if layers["obs.checker.violations"]:
        failures.append(
            f"{layers['obs.checker.violations']:g} trace invariant violations"
        )
    expected = 1 if workload.crashed_edge else 0
    if layers["control.heartbeat.suspicions"] != expected:
        failures.append(
            f"{layers['control.heartbeat.suspicions']:g} suspicions, "
            f"expected {expected}"
        )
    return failures


def check_publish_pass(first: Any, again: Any, edited: Any) -> List[str]:
    """A clean republish encodes nothing; replacing slide 0's image costs
    exactly one encode: the image job is shared by every level and
    rendition, and every video and audio cut is reused."""
    failures: List[str] = []
    if again.encodes_performed != 0:
        failures.append(f"clean republish performed {again.encodes_performed} encodes")
    if edited.encodes_performed != 1:
        failures.append(
            f"edit republish performed {edited.encodes_performed} encodes, expected 1"
        )
    if set(edited.variants) != set(first.variants):
        failures.append("edit republish built a different grid")
    return failures


def check_replay(variant: Any, report: Any) -> List[str]:
    failures: List[str] = []
    fired = [c.command.parameter for c in report.slide_changes()]
    if fired != list(variant.segments):
        failures.append(f"replay fired {fired}, published {list(variant.segments)}")
    if abs(report.duration_watched - variant.duration) > 0.1:
        failures.append(
            f"replay watched {report.duration_watched:.2f}s of {variant.duration:.2f}s"
        )
    if report.rebuffer_count:
        failures.append(f"replay rebuffered {report.rebuffer_count} times")
    if report.max_command_sync_error > SYNC_LIMIT_S:
        failures.append(
            f"slide sync error {report.max_command_sync_error:.3f}s > {SYNC_LIMIT_S}s"
        )
    return failures


def check_traced_publish(
    layers: Dict[str, float], network_spans_before_replay: int
) -> List[str]:
    failures: List[str] = []
    if network_spans_before_replay:
        failures.append(
            f"{network_spans_before_replay} net.*/streaming.* spans before the replay check"
        )
    if layers["obs.checker.violations"]:
        failures.append(
            f"{layers['obs.checker.violations']:g} trace invariant violations"
        )
    return failures
