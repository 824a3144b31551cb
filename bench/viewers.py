"""Per-session QoE rows, observed from outside, and the viewer metrics
computed from them (imported by the child only).

``run_workload`` returns only histogram summaries; shares, the failed count
and the slide sync error need the rows. Two one-call-per-session wrappers
on public functions collect them in every child: ``QoEAggregator.add``
(the rows that count) and ``SessionQoE.from_report`` (the playback report
behind a row, for its slide-command sync errors).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.obs.qoe import QoEAggregator, SessionQoE

from .schema import STARTUP_LIMIT_S


class QoEObserver:
    def __init__(self) -> None:
        self.rows: List[SessionQoE] = []
        #: id(row) -> mean slide-command sync error of its report, or None
        #: when the session fired no command
        self.sync_error: Dict[int, Optional[float]] = {}
        #: rows built from reports are kept alive so ids stay unique
        self._built: List[SessionQoE] = []

    def install(self) -> None:
        observer = self
        add = QoEAggregator.add

        def observed_add(self, qoe, **kwargs):
            observer.rows.append(qoe)
            return add(self, qoe, **kwargs)

        QoEAggregator.add = observed_add

        from_report = SessionQoE.from_report.__func__

        def observed_from_report(cls, report, **kwargs):
            row = from_report(cls, report, **kwargs)
            observer.note_report(row, report)
            return row

        SessionQoE.from_report = classmethod(observed_from_report)

    def note_report(self, row: SessionQoE, report: Any) -> None:
        self._built.append(row)
        self.sync_error[id(row)] = (
            report.mean_command_sync_error if report.commands else None
        )


def weighted_quantile(samples: List[Tuple[float, int]], q: float) -> float:
    """Smallest value whose cumulative weight reaches ``q`` of the total."""
    total = sum(w for _, w in samples)
    reached = 0
    for value, weight in sorted(samples):
        reached += weight
        if reached >= q * total:
            return value
    raise ValueError("no samples")


def tail_mean(samples: List[Tuple[float, int]], share: float) -> Tuple[float, int]:
    """Weighted mean of the slowest ``share`` of the samples (at least one),
    and how many samples that is."""
    total = sum(w for _, w in samples)
    wanted = max(1, math.ceil(total * share))
    left, acc = wanted, 0.0
    for value, weight in sorted(samples, reverse=True):
        take = min(weight, left)
        acc += value * take
        left -= take
        if not left:
            break
    return acc / wanted, wanted


def viewer_metrics(
    observer: QoEObserver, scripted: int, seekers: Set[str]
) -> Dict[str, Any]:
    """The simulated-time end-to-end metrics of one run, with the counts
    behind them: ``{"e2e", "facts", "ops_total", "ops_failed", "failures"}``.

    A scripted viewer without a row, or whose row watched nothing, failed:
    it counts as an infinite startup (so it misses the 5 s limit and sits
    in the tail) and in ``ops_failed``.
    """
    rows = observer.rows
    startups = [
        (r.startup_delay if r.duration_watched > 0 else math.inf, r.multiplicity)
        for r in rows
    ]
    seen = sum(r.multiplicity for r in rows)
    if seen < scripted:
        startups.append((math.inf, scripted - seen))
    failed = sum(w for s, w in startups if math.isinf(s))
    total = sum(w for _, w in startups)

    # cohorts make startup a step function: a plain p99 lands on the same
    # step on every seed, the mean beyond it moves with the audience
    tail_share = 0.01 if total >= 1000 else 0.10
    tail, tail_samples = tail_mean(startups, tail_share)
    watched = sum(r.duration_watched * r.multiplicity for r in rows)
    stalled = sum(r.rebuffer_time * r.multiplicity for r in rows)

    synced = [
        (observer.sync_error.get(id(r)), r.multiplicity)
        for r in rows if r.client not in seekers
    ]
    synced = [(e, w) for e, w in synced if e is not None]
    sync_weight = sum(w for _, w in synced)

    e2e = {
        "startup_p50_s": weighted_quantile(startups, 0.50),
        "startup_tail_s": tail,
        "startup_within_5s_share":
            sum(w for s, w in startups if s <= STARTUP_LIMIT_S) / total,
        "playing_time_share":
            watched / (watched + stalled) if watched + stalled > 0 else 0.0,
        "slide_sync_err_s":
            sum(e * w for e, w in synced) / sync_weight if sync_weight else 0.0,
    }
    failures = []
    for name, value in e2e.items():
        if math.isinf(value):  # JSON has no infinity, and the run has failed
            failures.append(f"{name} is infinite: too many viewers failed")
            e2e[name] = 1e9
    return {
        "e2e": e2e,
        "facts": {"tail_share": tail_share, "tail_samples": tail_samples},
        "ops_total": total,
        "ops_failed": failed,
        "failures": failures,
    }
