"""Catalog-driven workload generation for the load harness.

The paper's system served campus lectures; the workloads that stress a
distributed serving tier have well-known shape (Kannan & Andres; the
VCoIP e-learning measurements): **Zipf-skewed** popularity across the
lecture catalog, **flash crowds** at scheduled start times, background
arrivals spread over each lecture's window, and early-leave **churn**.
:func:`generate` turns a :class:`WorkloadSpec` into a deterministic
:class:`ArrivalScript` — the same seed always yields the same viewers,
lectures, join/leave/seek times — consumable by both the real-client
path and the cohort-scaled path of :mod:`repro.load.harness`.

:func:`plan_cohorts` is the aggregation step: viewers landing on the same
edge, same lecture, inside the same ``join_quantum`` bucket form one
:class:`CohortPlan` served by a single delegate session. Members whose
script individuates them later (a seek, an early leave) stay listed on
the plan so the harness can split or depart them at the right instant.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple


class WorkloadError(Exception):
    """Spec misuse (no lectures, bad rates...)."""


@dataclass(frozen=True)
class LectureSpec:
    """One catalog entry.

    ``start_time`` anchors the flash crowd (the scheduled lecture slot);
    ``live`` marks a simulcast — its viewers join mid-stream at the
    current broadcast position instead of playing from zero.
    """

    name: str
    duration: float
    start_time: float = 0.0
    live: bool = False

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise WorkloadError(f"lecture {self.name!r} needs duration > 0")
        if self.start_time < 0:
            raise WorkloadError(f"lecture {self.name!r} starts before t=0")

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration


class ViewerArrival(NamedTuple):
    """One viewer's scripted behaviour (tuple-backed: a million of these
    must stay cheap)."""

    viewer: str
    lecture: str
    join_time: float
    #: play offset into the content at join (0 for on-demand; the current
    #: broadcast position for live mid-joins)
    start_position: float
    #: absolute time the viewer leaves early, or None (watch to the end)
    leave_time: Optional[float]
    #: (absolute_time, target_position) of a mid-watch seek, or None
    seek: Optional[Tuple[float, float]]
    live: bool

    @property
    def individuates(self) -> bool:
        """True when this member diverges from a cohort mid-run."""
        return self.seek is not None or self.leave_time is not None


@dataclass(frozen=True)
class WorkloadSpec:
    """Knobs of the generated audience."""

    viewers: int
    lectures: Tuple[LectureSpec, ...]
    seed: int = 0
    #: Zipf exponent over catalog rank (order given): weight 1/rank^s.
    #: 0 = uniform; ~1 = classic web popularity skew
    zipf_s: float = 1.1
    #: fraction of each lecture's audience arriving in the scheduled burst
    flash_fraction: float = 0.7
    #: burst spread: flash arrivals land within this many seconds after
    #: the lecture's start_time (truncated-exponential, front-loaded)
    flash_width: float = 2.0
    #: fraction of viewers that leave before the end
    churn_rate: float = 0.0
    #: fraction of (on-demand, staying) viewers that seek once mid-watch
    seek_rate: float = 0.0
    #: arrival quantization for cohort planning (see plan_cohorts)
    join_quantum: float = 0.5

    def __post_init__(self) -> None:
        if self.viewers < 1:
            raise WorkloadError("need at least one viewer")
        if not self.lectures:
            raise WorkloadError("need at least one lecture")
        for name, rate in (
            ("flash_fraction", self.flash_fraction),
            ("churn_rate", self.churn_rate),
            ("seek_rate", self.seek_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise WorkloadError(f"{name} must be in [0, 1]")
        if self.zipf_s < 0:
            raise WorkloadError("zipf_s must be >= 0")
        if self.flash_width < 0:
            raise WorkloadError("flash_width must be >= 0")
        if self.join_quantum <= 0:
            raise WorkloadError("join_quantum must be > 0")


@dataclass
class ArrivalScript:
    """A deterministic, time-ordered audience script."""

    spec: WorkloadSpec
    arrivals: List[ViewerArrival] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.arrivals)

    @property
    def horizon(self) -> float:
        """Latest instant any scripted playback can still be running."""
        latest = 0.0
        durations = {lec.name: lec.duration for lec in self.spec.lectures}
        for _, lecture, join, start, leave_time, seek, _ in self.arrivals:
            duration = durations[lecture]
            end = join + (duration - start)
            if seek is not None:
                # seeking backwards can extend the watch past the natural end
                seek_at, seek_to = seek
                end = max(end, seek_at + (duration - seek_to))
            if leave_time is not None:
                end = min(end, leave_time)
            if end > latest:
                latest = end
        return latest

    def by_lecture(self) -> Dict[str, List[ViewerArrival]]:
        out: Dict[str, List[ViewerArrival]] = {}
        for arrival in self.arrivals:
            out.setdefault(arrival.lecture, []).append(arrival)
        return out


def _zipf_cumulative(n: int, s: float) -> List[float]:
    weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)
    cumulative[-1] = 1.0  # guard float undershoot for bisect
    return cumulative


def generate(spec: WorkloadSpec) -> ArrivalScript:
    """Deterministically expand a spec into per-viewer arrivals."""
    rng = random.Random(spec.seed)
    # the loop runs once per viewer: it reads spec fields, RNG methods and
    # lectures (one tuple each) from locals, in the same draw order
    draw = rng.random
    uniform = rng.uniform
    flash_fraction = spec.flash_fraction
    flash_width = spec.flash_width
    churn_rate = spec.churn_rate
    seek_rate = spec.seek_rate
    cumulative = _zipf_cumulative(len(spec.lectures), spec.zipf_s)
    catalog = [
        (lec.name, lec.duration, lec.start_time, lec.end_time, lec.live)
        for lec in spec.lectures
    ]
    pick = bisect.bisect_left
    arrivals: List[ViewerArrival] = []
    for i in range(spec.viewers):
        name, duration, start, end, live = catalog[pick(cumulative, draw())]
        if draw() >= flash_fraction:
            # background arrivals over the lecture's window. Live
            # simulcasts have no on-demand tail — stragglers still join
            # during the broadcast window
            join = uniform(start, end)
        elif flash_width > 0:
            # the scheduled burst: front-loaded within flash_width
            join = start + min(rng.expovariate(3.0 / flash_width), flash_width)
        else:
            join = start
        start_position = min(max(0.0, join - start), duration) if live else 0.0
        remaining = duration - start_position
        leave_time: Optional[float] = None
        seek: Optional[Tuple[float, float]] = None
        if draw() < churn_rate:
            leave_time = join + uniform(0.25, 0.9) * remaining
        elif not live and seek_rate > 0 and draw() < seek_rate:
            seek_at = join + uniform(0.3, 0.6) * remaining
            seek = (seek_at, uniform(0.5, 0.95) * duration)
        arrivals.append(ViewerArrival(
            f"v{i}", name, join, start_position, leave_time, seek, live
        ))
    # by (join_time, viewer)
    arrivals.sort(key=itemgetter(2, 0))
    return ArrivalScript(spec=spec, arrivals=arrivals)


@dataclass
class CohortPlan:
    """Viewers collapsed onto one delegate session.

    ``join_time`` is the floor of the ``join_quantum`` bucket, where the
    delegate starts. Real members arriving later in the bucket would join
    their edge's pacing group in progress — caught up at once on what it
    already sent — which starts them no slower, so the delegate's QoE
    bounds its members' from the pessimistic side.
    """

    edge: str
    lecture: str
    join_time: float
    start_position: float
    live: bool
    members: List[ViewerArrival] = field(default_factory=list)

    @property
    def multiplicity(self) -> int:
        return len(self.members)

    def individuating_members(self) -> List[ViewerArrival]:
        return [m for m in self.members if m.individuates]


def plan_cohorts(
    script: ArrivalScript,
    place: Callable[[ViewerArrival], str],
    *,
    join_quantum: Optional[float] = None,
) -> List[CohortPlan]:
    """Group a script into per-edge cohorts.

    ``place`` maps each arrival to an edge name (typically the consistent-
    hash directory). Viewers of one lecture landing on one edge within one
    ``join_quantum`` bucket become a single :class:`CohortPlan`; live
    mid-joins additionally bucket by quantized start position, since
    members attaching at different broadcast offsets never shared a
    delivery. Plans come back ordered by ``join_time``.
    """
    quantum = join_quantum if join_quantum is not None else script.spec.join_quantum
    if quantum <= 0:
        raise WorkloadError("join_quantum must be > 0")
    plans: Dict[tuple, CohortPlan] = {}
    find = plans.get
    floor = math.floor
    for arrival in script.arrivals:
        _, lecture, join_time, start_position, _, _, live = arrival
        edge = place(arrival)
        bucket = floor(join_time / quantum + 1e-9)
        position_bucket = floor(start_position / quantum + 1e-9) if live else 0
        key = (edge, lecture, bucket, position_bucket)
        plan = find(key)
        if plan is None:
            plan = CohortPlan(
                edge=edge,
                lecture=lecture,
                join_time=bucket * quantum,
                start_position=position_bucket * quantum,
                live=live,
            )
            plans[key] = plan
        plan.members.append(arrival)
    ordered = sorted(
        plans.values(), key=lambda p: (p.join_time, p.edge, p.lecture)
    )
    return ordered
