"""Object Composition Petri Nets (OCPN) — Little & Ghafoor's model.

An OCPN specifies the timing relations among multimedia data: leaves are
media-object playouts with durations, internal nodes combine two
sub-presentations with one of Allen's temporal relations. This module
compiles such a specification tree into a
:class:`~repro.core.timed.TimedPetriNet` using the canonical constructions
(sync transitions at interval endpoints, delay places for the parameterized
relations), and verifies that executing the net reproduces exactly the
intervals :func:`~repro.core.intervals.schedule_pair` prescribes.

Specification AST
-----------------
* :class:`MediaLeaf` — one media object with a fixed playout duration.
* :class:`Composite` — ``relation(left, right, delay)``.
* :func:`sequence` / :func:`parallel` — n-ary sugar for MEETS / EQUALS-like
  chains (parallel tolerates different durations by synchronizing at the
  latest end — "last finisher" semantics, the usual practical choice).

Compilation produces a net with one source place ``P_start`` (initially
marked) and one sink place ``P_done``; media leaf ``x`` becomes place
``P_x`` whose playout intervals can be read off the execution trace.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from .intervals import Interval, TemporalRelation, schedule_pair
from .petri import PetriNet, PetriNetError
from .timed import TimedExecution, TimedPetriNet


class SpecError(PetriNetError):
    """The presentation specification is inconsistent."""


@dataclass(frozen=True)
class MediaLeaf:
    """A single media-object playout.

    ``name`` must be unique across the whole specification; it becomes the
    Petri-net place name ``P_<name>``.
    """

    name: str
    duration: float

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("media leaf needs a name")
        if self.duration <= 0:
            raise SpecError(f"leaf {self.name!r}: duration must be positive")


@dataclass(frozen=True)
class Composite:
    """Two sub-presentations combined by a temporal relation."""

    relation: TemporalRelation
    left: "Spec"
    right: "Spec"
    delay: float = 0.0


Spec = Union[MediaLeaf, Composite]


def sequence(*specs: Spec) -> Spec:
    """Chain sub-presentations with MEETS (right-associated)."""
    if not specs:
        raise SpecError("sequence() needs at least one spec")
    result = specs[-1]
    for spec in reversed(specs[:-1]):
        result = Composite(TemporalRelation.MEETS, spec, result)
    return result


def parallel(*specs: Spec) -> Spec:
    """Start sub-presentations together; synchronize at the latest end.

    Uses STARTS/STARTED_BY/EQUALS depending on relative durations, so the
    construction stays within the canonical relation set.
    """
    if not specs:
        raise SpecError("parallel() needs at least one spec")
    result = specs[-1]
    for spec in reversed(specs[:-1]):
        da, db = spec_duration(spec), spec_duration(result)
        if abs(da - db) < 1e-9:
            rel = TemporalRelation.EQUALS
        elif da < db:
            rel = TemporalRelation.STARTS
        else:
            rel = TemporalRelation.STARTED_BY
        result = Composite(rel, spec, result)
    return result


def spec_duration(spec: Spec) -> float:
    """Total duration of a specification (validates delay consistency)."""
    if isinstance(spec, MediaLeaf):
        return spec.duration
    da, db = spec_duration(spec.left), spec_duration(spec.right)
    a, b = schedule_pair(spec.relation, da, db, delay=spec.delay)
    return max(a.end, b.end) - min(a.start, b.start)


def spec_intervals(spec: Spec, *, origin: float = 0.0) -> Dict[str, Interval]:
    """Ideal playout interval per leaf, per the interval algebra.

    This is the *reference schedule*; the compiled net must reproduce it
    (see :func:`verify_schedule`).
    """
    if isinstance(spec, MediaLeaf):
        return {spec.name: Interval(origin, origin + spec.duration)}
    da, db = spec_duration(spec.left), spec_duration(spec.right)
    a, b = schedule_pair(spec.relation, da, db, delay=spec.delay, origin=origin)
    start = min(a.start, b.start)
    shift = origin - start
    left = spec_intervals(spec.left, origin=a.start + shift)
    right = spec_intervals(spec.right, origin=b.start + shift)
    clash = set(left) & set(right)
    if clash:
        raise SpecError(f"duplicate leaf names: {sorted(clash)}")
    left.update(right)
    return left


@dataclass
class CompiledOCPN:
    """Result of compiling a specification.

    Attributes
    ----------
    timed_net:
        The executable timed Petri net.
    media_places:
        Map leaf name -> place name (``P_<leaf>``).
    start_place / done_place:
        Source and sink places.
    spec:
        The original specification.
    """

    timed_net: TimedPetriNet
    media_places: Dict[str, str]
    start_place: str
    done_place: str
    spec: Spec

    def execute(self, **kwargs) -> TimedExecution:
        self.timed_net.net.reset()
        return self.timed_net.execute(**kwargs)

    def measured_intervals(self, execution: Optional[TimedExecution] = None) -> Dict[str, Interval]:
        """Playout interval of every media leaf in an executed run."""
        run = execution or self.execute()
        result: Dict[str, Interval] = {}
        for leaf, place in self.media_places.items():
            intervals = run.playout_intervals(place)
            if len(intervals) != 1:
                raise SpecError(
                    f"leaf {leaf!r} played {len(intervals)} times, expected once"
                )
            start, end = intervals[0]
            result[leaf] = Interval(start, end)
        return result


class OCPNCompiler:
    """Compiles a :data:`Spec` tree into a safe timed Petri net.

    Every fragment is bounded by an entry transition and an exit transition;
    relations wire fragments together through zero-duration link places and
    positive-duration delay places. The result is safe (1-bounded) and
    deadlock-free by construction — property tests in
    ``tests/property/test_ocpn_properties.py`` check this on random specs.
    """

    def __init__(self, name: str = "ocpn") -> None:
        self.name = name
        self._net = PetriNet(name)
        self._fresh = itertools.count()
        self._media_places: Dict[str, str] = {}
        self._durations: Dict[str, float] = {}
        self._extra_marking: Dict[str, int] = {}

    # -- helpers -------------------------------------------------------

    def _place(self, prefix: str, duration: float = 0.0) -> str:
        name = f"{prefix}_{next(self._fresh)}"
        self._net.add_place(name)
        if duration:
            self._durations[name] = duration
        return name

    def _transition(self, prefix: str = "t") -> str:
        name = f"{prefix}_{next(self._fresh)}"
        self._net.add_transition(name)
        return name

    def _link(self, t_from: str, t_to: str, duration: float = 0.0, label: str = "link") -> str:
        """Connect two transitions through a place of given duration."""
        place = self._place(label, duration)
        self._net.add_arc(t_from, place)
        self._net.add_arc(place, t_to)
        return place

    # -- fragment compilation -----------------------------------------

    def _compile_leaf(self, spec: MediaLeaf) -> Tuple[str, str]:
        """Compile a media playout; overridden by XOCPN to add channels."""
        if spec.name in self._media_places:
            raise SpecError(f"duplicate leaf name {spec.name!r}")
        t_in = self._transition("t_in")
        t_out = self._transition("t_out")
        place = f"P_{spec.name}"
        self._net.add_place(place, label=spec.name)
        self._durations[place] = spec.duration
        self._net.add_arc(t_in, place)
        self._net.add_arc(place, t_out)
        self._media_places[spec.name] = place
        return t_in, t_out

    def _compile(self, spec: Spec) -> Tuple[str, str]:
        """Compile ``spec``; return (entry transition, exit transition)."""
        if isinstance(spec, MediaLeaf):
            return self._compile_leaf(spec)

        rel, swapped = spec.relation.canonicalize()
        left, right = (spec.right, spec.left) if swapped else (spec.left, spec.right)
        da, db = spec_duration(left), spec_duration(right)
        # validate the parameters once, via the interval algebra
        schedule_pair(rel, da, db, delay=spec.delay)

        a_in, a_out = self._compile(left)
        b_in, b_out = self._compile(right)

        if rel is TemporalRelation.MEETS:
            self._link(a_out, b_in)
            return a_in, b_out

        if rel is TemporalRelation.BEFORE:
            self._link(a_out, b_in, duration=spec.delay, label="delay")
            return a_in, b_out

        t_in = self._transition("t_in")
        t_out = self._transition("t_out")

        if rel in (TemporalRelation.EQUALS, TemporalRelation.STARTS):
            # both start together; exit waits for both ends
            self._link(t_in, a_in)
            self._link(t_in, b_in)
        elif rel is TemporalRelation.FINISHES:
            # b starts first; a starts after (db - da) so both finish together
            self._link(t_in, b_in)
            t_mid = self._transition("t_mid")
            self._link(t_in, t_mid, duration=db - da, label="delay")
            self._link(t_mid, a_in)
        elif rel is TemporalRelation.OVERLAPS:
            # a starts first; b starts after delay
            self._link(t_in, a_in)
            t_mid = self._transition("t_mid")
            self._link(t_in, t_mid, duration=spec.delay, label="delay")
            self._link(t_mid, b_in)
        elif rel is TemporalRelation.DURING:
            # b starts first; a starts after delay, ends inside b
            self._link(t_in, b_in)
            t_mid = self._transition("t_mid")
            self._link(t_in, t_mid, duration=spec.delay, label="delay")
            self._link(t_mid, a_in)
        else:  # pragma: no cover - canonicalize() precludes this
            raise SpecError(f"cannot compile relation {rel}")

        self._link(a_out, t_out)
        self._link(b_out, t_out)
        return t_in, t_out

    def _after_start(self, t_begin: str) -> None:
        """Hook: extra arcs out of the global start transition (XOCPN)."""

    def compile(self, spec: Spec) -> CompiledOCPN:
        entry, exit_ = self._compile(spec)
        start = "P_start"
        done = "P_done"
        self._net.add_place(start, label="start")
        self._net.add_place(done, label="done")
        t_begin = self._transition("t_begin")
        self._net.add_arc(start, t_begin)
        self._link(t_begin, entry)
        self._after_start(t_begin)
        self._net.add_arc(exit_, done)
        self._net.set_marking({start: 1, **self._extra_marking})
        self._net.validate()
        timed = TimedPetriNet(self._net, self._durations)
        return CompiledOCPN(
            timed_net=timed,
            media_places=dict(self._media_places),
            start_place=start,
            done_place=done,
            spec=spec,
        )


def compile_spec(spec: Spec, *, name: str = "ocpn") -> CompiledOCPN:
    """Convenience wrapper around :class:`OCPNCompiler`."""
    return OCPNCompiler(name).compile(spec)


#: the most a leaf's played interval may differ from its specified one, s
SCHEDULE_TOL = 1e-6


def verify_schedule(compiled: CompiledOCPN) -> Dict[str, float]:
    """Execute the net and compare against the interval-algebra schedule.

    Returns per-leaf absolute start-time error; raises :class:`SpecError`
    if any error exceeds :data:`SCHEDULE_TOL`. This is the "theory matches practice"
    check the paper attributes to the Petri-net approach.
    """
    reference = spec_intervals(compiled.spec)
    measured = compiled.measured_intervals()
    errors: Dict[str, float] = {}
    for leaf, ref in reference.items():
        got = measured[leaf]
        err = max(abs(got.start - ref.start), abs(got.end - ref.end))
        errors[leaf] = err
        if err > SCHEDULE_TOL:
            raise SpecError(
                f"leaf {leaf!r}: net plays {got}, spec requires {ref} (err={err})"
            )
    return errors
