"""``python -m repro nets check``: the paper's analysis on the system's own nets.

A fixed table of the nets the system fires or compiles — the player's
control subnet, the floor-control net for 2–4 users, the demo lecture's
OCPN and XOCPN — each with the dead markings it may end in and the
P-invariants it must keep. One :func:`reachability_graph` per net gives
every verdict. One JSON object per net goes to stdout; a failure names
the net and the property on stderr and makes the exit status 1.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Callable, List, Mapping, Sequence, Tuple

from ..lod.lecture import demo_lecture
from .analysis import StateSpaceLimitExceeded, is_p_invariant, reachability_graph
from .extended import build_control_net, build_floor_net
from .ocpn import sequence, spec_intervals
from .petri import Marking, PetriNet
from .xocpn import Channel, QoSRequirement, compile_xocpn

@dataclass(frozen=True)
class NetRow:
    """One net of the table, built on demand; a declared invariant is the
    place weights and their weighted token total."""

    name: str
    build: Callable[[], PetriNet]
    dead: Sequence[Mapping[str, int]] = ()
    invariants: Sequence[Tuple[Mapping[str, int], int]] = ()


def floor_row(users: Sequence[str]) -> NetRow:
    """Mutual exclusion (``floor + Σ holding_u = 1``) and one state per user."""
    return NetRow(
        f"floor-{len(users)}",
        lambda: build_floor_net(users),
        invariants=[({"floor": 1, **{f"holding_{u}": 1 for u in users}}, 1)] + [
            ({f"idle_{u}": 1, f"waiting_{u}": 1, f"holding_{u}": 1}, 1) for u in users
        ],
    )


def xocpn_net(strategy: str, slides: int) -> PetriNet:
    """The demo lecture's first ``slides`` segments over one channel that
    carries every leaf (sizes and bandwidth do not change the untimed net)."""
    segments = demo_lecture().to_presentation().segments[:slides]
    spec = sequence(*(s.spec for s in segments))
    fetches = {leaf: QoSRequirement(1.0, "net") for leaf in spec_intervals(spec)}
    channels = {"net": Channel("net", 1.0)}
    return compile_xocpn(spec, channels, fetches, strategy=strategy).timed_net.net


TABLE: Tuple[NetRow, ...] = (
    NetRow("control", build_control_net, dead=[{"stopped": 1}],
           invariants=[({"idle": 1, "playing": 1, "paused": 1, "stopped": 1}, 1)]),
    floor_row(["u0", "u1"]),
    floor_row(["u0", "u1", "u2"]),
    floor_row(["u0", "u1", "u2", "u3"]),
    NetRow("lecture-ocpn",
           lambda: demo_lecture().to_presentation().compiled.timed_net.net,
           dead=[{"P_done": 1}]),
    NetRow("lecture-xocpn-lazy", lambda: xocpn_net("lazy", 4),
           dead=[{"P_done": 1, "CH_net": 1}]),
    # Two slides only: the prefetch net's untimed interleavings grow fast —
    # three slides give 31 399 states, four more than the 100 000-state cap.
    NetRow("lecture-xocpn-prefetch", lambda: xocpn_net("prefetch", 2),
           dead=[{"P_done": 1, "CH_net": 1}]),
)


def check(row: NetRow) -> Tuple[dict, List[str]]:
    """The JSON record of ``row`` and its failed properties: undeclared
    dead markings, a place over one token, transitions that never fire,
    and declared invariants that are not P-invariants (``yᵀC = 0``) or
    that the initial marking breaks."""
    net = row.build()
    try:
        graph = reachability_graph(net)
    except StateSpaceLimitExceeded as exc:
        return {"net": row.name, "ok": False}, [f"state space: {exc}"]
    allowed = {Marking(m) for m in row.dead}
    dead = sorted((dict(sorted(m.items())) for m in graph.dead_markings()), key=str)
    failures = [f"undeclared dead marking {m}" for m in dead if Marking(m) not in allowed]
    bound = graph.bound()
    if bound > 1:
        failures.append(f"unsafe: a place holds {bound} tokens")
    never = sorted({t.name for t in net.transitions} - graph.transitions_fired())
    if never:
        failures.append(f"dead transitions {never}")
    invariants = []
    for weights, total in row.invariants:
        label = "+".join(p if w == 1 else f"{w}*{p}" for p, w in weights.items())
        label += f"={total}"
        invariants.append(label)
        if not is_p_invariant(net, weights):
            failures.append(f"not a P-invariant: {label}")
        elif sum(w * net.initial_marking[p] for p, w in weights.items()) != total:
            failures.append(f"initial marking breaks {label}")
    record = {
        "net": row.name, "states": len(graph), "edges": len(graph.edges),
        "bound": bound, "dead": dead, "invariants": invariants,
        "ok": not failures,
    }
    return record, failures


def run(table: Sequence[NetRow] = TABLE) -> int:
    """Check every row; 0 when all pass, 1 otherwise."""
    status = 0
    for row in table:
        record, failures = check(row)
        print(json.dumps(record, sort_keys=True))
        for failure in failures:
            print(f"nets check: {row.name}: {failure}", file=sys.stderr)
            status = 1
    return status
