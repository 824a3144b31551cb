"""Extended Object Composition Petri Nets (XOCPN) — Woo, Qazi & Ghafoor.

XOCPN extends OCPN with an explicit *communication subnet*: before a media
object can play, its data must be transferred over a network channel with a
given bandwidth, and channels are set up "according to the required QoS of
the data" (paper §1). This module models that with, per media leaf ``x``:

* a **request place** ``REQ_x`` — the transfer has been ordered;
* a **channel place** ``C_x`` with duration ``size / bandwidth`` — the
  transfer in flight;
* a **data-ready place** ``D_x`` — the object is buffered at the client;
* a **channel token place** ``CH_<k>`` per channel — channel capacity, so
  objects assigned to the same channel transfer one at a time.

Two strategies are compiled:

* ``prefetch`` (the XOCPN idea): all transfers are requested at presentation
  start, in parallel with playout; a leaf's playout transition additionally
  waits on ``D_x``, so a late transfer *stalls* playout measurably.
* ``lazy`` (the strawman OCPN behaviour): the transfer is requested only
  when the schedule reaches the leaf, so every transfer time lands on the
  critical path.

:func:`measure_stalls` quantifies the difference — reproduced as ablation
bench A2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from .intervals import Interval
from .ocpn import (
    CompiledOCPN,
    MediaLeaf,
    OCPNCompiler,
    Spec,
    SpecError,
    spec_intervals,
)


@dataclass(frozen=True)
class Channel:
    """A network channel with a fixed bandwidth (bytes/second)."""

    name: str
    bandwidth: float

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"channel {self.name!r}: bandwidth must be positive")

    def transfer_time(self, size: float) -> float:
        return size / self.bandwidth


@dataclass
class QoSRequirement:
    """Per-object resource requirement: bytes to move before playout."""

    size: float
    channel: str

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("size must be >= 0")


@dataclass
class CompiledXOCPN(CompiledOCPN):
    """A compiled XOCPN; adds the data-ready place map for inspection."""

    data_places: Dict[str, str] = field(default_factory=dict)
    channel_places: Dict[str, str] = field(default_factory=dict)
    strategy: str = "prefetch"


class XOCPNCompiler(OCPNCompiler):
    """OCPN compiler that threads channel/QoS places through every leaf.

    Parameters
    ----------
    channels:
        Available channels.
    requirements:
        Map leaf name -> :class:`QoSRequirement`. Leaves without an entry
        need no transfer (e.g. locally generated text).
    strategy:
        ``"prefetch"`` or ``"lazy"`` (see module docstring).
    """

    def __init__(
        self,
        channels: Mapping[str, Channel],
        requirements: Mapping[str, QoSRequirement],
        *,
        strategy: str = "prefetch",
        name: str = "xocpn",
    ) -> None:
        super().__init__(name)
        if strategy not in ("prefetch", "lazy"):
            raise SpecError(f"unknown strategy {strategy!r}")
        self.strategy = strategy
        self.channels = dict(channels)
        self.requirements = dict(requirements)
        for leaf, req in self.requirements.items():
            if req.channel not in self.channels:
                raise SpecError(
                    f"leaf {leaf!r} assigned to unknown channel {req.channel!r}"
                )
        self._channel_places: Dict[str, str] = {}
        self._data_places: Dict[str, str] = {}
        self._prefetch_requests: List[str] = []  # REQ places to fill at start

    def _channel_place(self, channel: str) -> str:
        """The capacity-token place for ``channel`` (created on demand)."""
        if channel not in self._channel_places:
            place = f"CH_{channel}"
            self._net.add_place(place, label=f"channel {channel}")
            self._extra_marking[place] = 1
            self._channel_places[channel] = place
        return self._channel_places[channel]

    def _compile_fetch(self, leaf: MediaLeaf, req: QoSRequirement) -> Tuple[str, str]:
        """Build REQ -> (channel held) C -> D pipeline; return (REQ, D)."""
        channel = self.channels[req.channel]
        ch_place = self._channel_place(req.channel)
        req_place = f"REQ_{leaf.name}"
        data_place = f"D_{leaf.name}"
        self._net.add_place(req_place, label=f"request {leaf.name}")
        self._net.add_place(data_place, label=f"data ready {leaf.name}")
        c_place = f"C_{leaf.name}"
        self._net.add_place(c_place, label=f"transfer {leaf.name}")
        self._durations[c_place] = channel.transfer_time(req.size)
        t_fs = self._transition(f"t_fetch_{leaf.name}")
        t_fe = self._transition(f"t_ready_{leaf.name}")
        self._net.add_arc(req_place, t_fs)
        self._net.add_arc(ch_place, t_fs)
        self._net.add_arc(t_fs, c_place)
        self._net.add_arc(c_place, t_fe)
        self._net.add_arc(t_fe, data_place)
        self._net.add_arc(t_fe, ch_place)
        self._data_places[leaf.name] = data_place
        return req_place, data_place

    def _compile_leaf(self, spec: MediaLeaf) -> Tuple[str, str]:
        req = self.requirements.get(spec.name)
        if req is None or req.size == 0:
            return super()._compile_leaf(spec)

        req_place, data_place = self._compile_fetch(spec, req)
        if self.strategy == "prefetch":
            # playout entry additionally waits on the data token
            t_in, t_out = super()._compile_leaf(spec)
            self._net.add_arc(data_place, t_in)
            self._prefetch_requests.append(req_place)
            return t_in, t_out
        # lazy: entry orders the fetch; playout starts once data arrives
        t_in = self._transition("t_in")
        self._net.add_arc(t_in, req_place)
        t_play, t_out = super()._compile_leaf(spec)
        self._net.add_arc(data_place, t_play)
        # t_play must not fire before t_in scheduled it: chain them
        self._link(t_in, t_play)
        return t_in, t_out

    def _after_start(self, t_begin: str) -> None:
        for req_place in self._prefetch_requests:
            self._net.add_arc(t_begin, req_place)

    def compile(self, spec: Spec) -> CompiledXOCPN:
        base = super().compile(spec)
        return CompiledXOCPN(
            timed_net=base.timed_net,
            media_places=base.media_places,
            start_place=base.start_place,
            done_place=base.done_place,
            spec=base.spec,
            data_places=dict(self._data_places),
            channel_places=dict(self._channel_places),
            strategy=self.strategy,
        )


def compile_xocpn(
    spec: Spec,
    channels: Mapping[str, Channel],
    requirements: Mapping[str, QoSRequirement],
    *,
    strategy: str = "prefetch",
    name: str = "xocpn",
) -> CompiledXOCPN:
    return XOCPNCompiler(channels, requirements, strategy=strategy, name=name).compile(spec)


@dataclass
class StallReport:
    """Playout delay versus the ideal (infinite-bandwidth) schedule."""

    per_leaf: Dict[str, float]
    makespan: float
    ideal_makespan: float

    @property
    def total_stall(self) -> float:
        return sum(self.per_leaf.values())

    @property
    def max_stall(self) -> float:
        return max(self.per_leaf.values(), default=0.0)

    @property
    def stalled_leaves(self) -> List[str]:
        """Leaves delayed by more than a perceptual threshold (1 ms)."""
        return [name for name, s in self.per_leaf.items() if s > 1e-3]


def measure_stalls(compiled: CompiledXOCPN, *, tol: float = 1e-9) -> StallReport:
    """Execute and report per-leaf start delay vs the QoS-free schedule."""
    reference = spec_intervals(compiled.spec)
    execution = compiled.execute()
    per_leaf: Dict[str, float] = {}
    for leaf, place in compiled.media_places.items():
        intervals = execution.playout_intervals(place)
        if not intervals:
            raise SpecError(f"leaf {leaf!r} never played")
        measured_start = intervals[0][0]
        per_leaf[leaf] = max(0.0, measured_start - reference[leaf].start)
    ideal = max(i.end for i in reference.values())
    return StallReport(
        per_leaf=per_leaf, makespan=execution.makespan(), ideal_makespan=ideal
    )
