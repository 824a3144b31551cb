"""The five workloads, built from ``--seed`` (imported by the child only).

Every streaming workload is a scripted schedule in simulated time
(``WorkloadSpec`` -> ``generate`` -> ``ArrivalScript``) handed to
``run_workload`` together with a ``LoadConfig``. The seed feeds the
audience script and, so that no simulated time reads the same on every
seed, the access-link delay (a campus LAN: 5 ms +-20 %). Every tier is
torn down at the end of its run (``teardown=True``): a warmed relay that no
viewer visited would otherwise leave its replica session open at the
origin, which the trace audit rightly reports.

Sizes are a fifth to a tenth of the shapes sketched in the issue so one
fresh-process repeat takes about two seconds and a 20 s run holds about
eight of them; lecture slots start after cache warming has ended, so that
scripted instants are not squashed into the warm-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.load import LoadConfig, WorkloadSpec
from repro.load.workload import LectureSpec
from repro.lod import Lecture
from repro.lod.lecture import LectureSegment
from repro.media.objects import ImageObject
from repro.net.faults import FaultPlan
from repro.streaming.recovery import RecoveryConfig

CRASHED_EDGE = "edge0"
#: seconds after the tier is ready (cache warming done)
CRASH_AT = 10.0

#: the player's render tick (MediaPlayer.RENDER_TICK)
TICK = 0.05

RENDITIONS = ("modem-56k", "dsl-256k", "lan-1m")
REPLAY_PROFILE = "dsl-256k"


@dataclass
class StreamWorkload:
    spec: WorkloadSpec
    mode: str
    config: LoadConfig
    #: scripted fault, for the checks: "" or the crashed edge's name
    crashed_edge: str = ""


@dataclass
class PublishWorkload:
    lectures: List[Lecture]
    #: (bandwidth bits/s, delay s) of the replay check's access link
    replay_link: Tuple[float, float] = (2_000_000.0, 0.02)
    renditions: Tuple[str, ...] = RENDITIONS


def _rng(name: str, seed: int) -> random.Random:
    # str seeds hash through sha512: the same on every interpreter run
    return random.Random(f"{name}:{seed}")


def _catalog(count: int, duration: float, stagger: float, first: float):
    return tuple(
        LectureSpec(f"lec{i}", duration, first + i * stagger) for i in range(count)
    )


def _access_delay(name: str, seed: int, base: float = 0.005) -> float:
    return base * _rng(name, seed).uniform(0.8, 1.2)


def flash_vod_warm(seed: int, smoke: bool) -> StreamWorkload:
    return StreamWorkload(
        WorkloadSpec(
            viewers=500 if smoke else 50_000,
            lectures=_catalog(2, 20.0, 2.0, first=5.0),
            seed=seed, zipf_s=1.1, join_quantum=0.5,
            flash_fraction=0.9, flash_width=2.0,
            churn_rate=0.02 if smoke else 0.0005,
            seek_rate=0.02 if smoke else 0.0005,
        ),
        "cohort",
        LoadConfig(
            edges=2, heartbeat_interval=1.0, teardown=True,
            client_delay=_access_delay("flash_vod_warm", seed),
        ),
    )


def campus_real_seek(seed: int, smoke: bool) -> StreamWorkload:
    return StreamWorkload(
        WorkloadSpec(
            viewers=12 if smoke else 100,
            lectures=_catalog(4, 20.0, 2.0, first=15.0),
            seed=seed, zipf_s=1.1, join_quantum=0.5,
            flash_fraction=0.5, flash_width=2.0,
            churn_rate=0.25 if smoke else 0.1,
            seek_rate=0.25 if smoke else 0.1,
        ),
        "real",
        LoadConfig(
            edges=4, profile="lan-1m", client_bandwidth=4_000_000.0,
            teardown=True,
            client_delay=_access_delay("campus_real_seek", seed),
        ),
    )


def cold_tree_fill(seed: int, smoke: bool) -> StreamWorkload:
    return StreamWorkload(
        WorkloadSpec(
            viewers=200 if smoke else 2_000,
            lectures=_catalog(2 if smoke else 4, 10.0, 1.0, first=1.0),
            seed=seed, zipf_s=1.1, join_quantum=0.5,
            flash_fraction=1.0, flash_width=2.0,
        ),
        "cohort",
        LoadConfig(
            edges=8 if smoke else 16, regions=4, prefetch=False,
            teardown=True,
            client_delay=_access_delay("cold_tree_fill", seed),
        ),
    )


def edge_crash_recovery(seed: int, smoke: bool) -> StreamWorkload:
    return StreamWorkload(
        WorkloadSpec(
            viewers=400 if smoke else 20_000,
            lectures=_catalog(2, 14.0, 2.0, first=5.0),
            seed=seed, zipf_s=1.1, join_quantum=0.5,
            flash_fraction=0.7, flash_width=2.0,
        ),
        "cohort",
        LoadConfig(
            edges=4,
            recovery=RecoveryConfig(),
            heartbeat_monitor=True, monitor_interval=0.5,
            monitor_miss_threshold=3,
            fault_plan=FaultPlan("midrun-kill").edge_crash(CRASHED_EDGE, at=CRASH_AT),
            teardown=True,
            client_delay=_access_delay("edge_crash_recovery", seed),
        ),
        crashed_edge=CRASHED_EDGE,
    )


def publish_grid(seed: int, smoke: bool) -> PublishWorkload:
    """One lecture of eight slides on four importance levels.

    The seed moves seconds between the two slides of each importance
    class, so every level of the content tree keeps its total duration:
    the work is the same on every seed, the bytes are not. Slide changes
    stay on the 50 ms render grid but for one sub-tick offset drawn from
    the seed: the replay's slide sync error then moves a little with the
    seed instead of jumping by a tick per slide.
    """
    rng = _rng("publish_grid", seed)
    base = [2.0, 1.0, 1.5, 0.5] if smoke else [10.0, 5.0, 8.0, 3.0]
    shift = [round(rng.uniform(-0.2, 0.2) * d / TICK) * TICK for d in base]
    durations = [d + s for d, s in zip(base, shift)] + [
        d - s for d, s in zip(base, shift)
    ]
    offset = round(rng.uniform(0.008, 0.012), 4)
    durations[0] += offset
    durations[-1] -= offset
    lecture = Lecture.from_slide_durations(
        f"Lecture {seed}", "Prof", durations,
        importances=[0, 1, 2, 3] * 2, slide_width=320, slide_height=240,
    )
    return PublishWorkload(
        [lecture],
        replay_link=(
            2_000_000.0, 0.02 * _rng("publish_grid.link", seed).uniform(0.9, 1.1)
        ),
    )


def edit_first_slide(lecture: Lecture) -> Lecture:
    """The republish-after-editing input: slide 0's image replaced."""
    segments = []
    for i, s in enumerate(lecture.segments):
        slide = s.slide
        if i == 0:
            slide = ImageObject(
                "slide0-fixed", s.duration, width=slide.width, height=slide.height
            )
        segments.append(
            LectureSegment(s.name, slide, s.start, s.duration, s.importance)
        )
    return Lecture(
        title=lecture.title, author=lecture.author, video=lecture.video,
        audio=lecture.audio, segments=segments,
    )


BUILDERS = {
    "flash_vod_warm": flash_vod_warm,
    "campus_real_seek": campus_real_seek,
    "cold_tree_fill": cold_tree_fill,
    "edge_crash_recovery": edge_crash_recovery,
    "publish_grid": publish_grid,
}
