"""The per-viewer setup of a modeled audience is pinned.

``generate`` expands a spec into arrivals, ``plan_cohorts`` places every
arrival on an edge and groups it into a cohort. Both run once per viewer,
so both are kept lean; these digests, taken from the straightforward
implementation, make sure leaner code computes the very same audience:
each arrival (every field, floats by ``repr``), the script's horizon, and
each plan's edge, lecture, join instant and members, in order.

The placement check compares :meth:`EdgeDirectory.place` with its
definition: the first available entry of ``spill_order(key)``.
"""

import hashlib

import pytest

from repro.load import LectureSpec, WorkloadSpec, generate, plan_cohorts
from repro.streaming.edge import EdgeDirectory, PlacementError


def catalog(count, duration, stagger, first, live=()):
    return tuple(
        LectureSpec(f"lec{i}", duration, first + i * stagger, live=i in live)
        for i in range(count)
    )


#: the shapes of the benchmark's cohort workloads, at a tenth of their
#: audience, plus live lectures for the other branches
SPECS = {
    "flash_vod_warm": dict(
        viewers=5_000, lectures=catalog(2, 20.0, 2.0, 5.0), zipf_s=1.1,
        join_quantum=0.5, flash_fraction=0.9, flash_width=2.0,
        churn_rate=0.02, seek_rate=0.02,
    ),
    "edge_crash_recovery": dict(
        viewers=2_000, lectures=catalog(2, 14.0, 2.0, 5.0), zipf_s=1.1,
        join_quantum=0.5, flash_fraction=0.7, flash_width=2.0,
    ),
    "live": dict(
        viewers=1_000, lectures=catalog(3, 30.0, 10.0, 1.0, live=(1,)),
        zipf_s=0.8, join_quantum=0.25, flash_fraction=0.4, flash_width=0.0,
        churn_rate=0.1, seek_rate=0.3,
    ),
}

#: sha1 of the audience per (shape, seed)
DIGESTS = {
    ("flash_vod_warm", 0): "edbd189ebd9f6089a001eb76f8979f89246f50e2",
    ("flash_vod_warm", 1): "3eea819c3224c406130d74914d3e8ef8ecbe02c0",
    ("flash_vod_warm", 2): "511f5587f9fb2fbc932ef00596e725e1ceb0ca6a",
    ("edge_crash_recovery", 0): "ab3db09598e9b546e6c69f021366d0b76eee207c",
    ("edge_crash_recovery", 1): "40c370c98b8ad141f2f1fae144c7b68a1206ee5d",
    ("edge_crash_recovery", 2): "ba9a8475887c7a0551ed177e40c6ad889a528a1f",
    ("live", 0): "3ce422bbea689773e8f072a6a1673b01f1cc44d7",
    ("live", 1): "0599ed10b79e1915f2da326ddca987aee5964453",
    ("live", 2): "6eb263e1db08dff76ece0dc61a6ba4aa8d0699b8",
}

EDGES = {"flash_vod_warm": 2, "edge_crash_recovery": 4, "live": 3}


def directory(edges, seed=0):
    d = EdgeDirectory(seed=seed)
    for i in range(edges):
        d.add_edge(f"edge{i}", url=f"http://edge{i}:554")
    return d


def audience_digest(shape, seed):
    script = generate(WorkloadSpec(seed=seed, **SPECS[shape]))
    ring = directory(EDGES[shape])
    plans = plan_cohorts(
        script, lambda a: ring.place(f"{a.viewer}|{a.lecture}")
    )
    h = hashlib.sha1(repr(script.horizon).encode())
    for arrival in script.arrivals:
        h.update(repr(tuple(arrival)).encode())
    for plan in plans:
        members = ",".join(m.viewer for m in plan.members)
        h.update(
            f"{plan.edge}|{plan.lecture}|{plan.join_time!r}|{members}".encode()
        )
    return h.hexdigest()


@pytest.mark.parametrize("shape, seed", sorted(DIGESTS))
def test_audience_is_pinned(shape, seed):
    assert audience_digest(shape, seed) == DIGESTS[(shape, seed)]


def first_available(d, key):
    for name in d.spill_order(key):
        if d.is_available(name):
            return name
    raise PlacementError(key)


class _Relay:
    """Just the flags and session table availability reads."""

    def __init__(self, sessions=0, crashed=False, draining=False):
        self.sessions = [None] * sessions
        self.crashed = crashed
        self.draining = draining


def test_place_is_first_available_in_spill_order():
    d = EdgeDirectory(seed=3)
    relays = {
        "full": _Relay(sessions=2),
        "crashed": _Relay(crashed=True),
        "draining": _Relay(draining=True),
        "busy": _Relay(sessions=1),
    }
    for name, relay in relays.items():
        d.add_edge(name, relay=relay, url=f"http://{name}:554", capacity=2)
    d.add_edge("down", url="http://down:554")
    d.mark_down("down")
    d.add_edge("manual", relay=_Relay(sessions=1), url="http://manual:554", capacity=1)
    d.add_edge("open", url="http://open:554")
    keys = [f"v{i}|lec{i % 3}" for i in range(400)]
    placed = [d.place(k) for k in keys]
    assert placed == [first_available(d, k) for k in keys]
    assert set(placed) == {"busy", "open"}
    # only refusing edges: every key raises
    d.mark_down("open")
    relays["busy"].sessions.append(None)
    for key in keys[:20]:
        with pytest.raises(PlacementError):
            d.place(key)
    # every edge admits: the primary ring entry wins
    everyone = directory(5, seed=9)
    for key in keys:
        assert everyone.place(key) == everyone.spill_order(key)[0]
