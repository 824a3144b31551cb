"""Allen's interval algebra — the temporal vocabulary of OCPN.

Little & Ghafoor's OCPN construction (reference [4] of the paper) encodes
the thirteen possible temporal relationships between two media intervals.
This module provides:

* :class:`TemporalRelation` — the seven forward relations plus ``equals``
  (the six inverses are expressed with :meth:`TemporalRelation.inverse`).
* :class:`Interval` — a concrete ``(start, end)`` pair.
* :func:`relation_between` — classify two concrete intervals.
* :func:`schedule_pair` — given a relation, durations, and an optional delay,
  compute concrete start times for the two objects — the arithmetic that
  the OCPN compiler mirrors structurally.

All times are floats in seconds on the presentation timeline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple


class TemporalRelation(enum.Enum):
    """The thirteen Allen relations, collapsed to 7 canonical + inverses.

    ``a BEFORE b`` means a ends strictly before b starts (gap > 0);
    ``MEETS`` is the gap == 0 case, and so on, exactly following
    Allen (1983) and the OCPN paper's figure of pairwise relations.
    """

    BEFORE = "before"
    MEETS = "meets"
    OVERLAPS = "overlaps"
    DURING = "during"
    STARTS = "starts"
    FINISHES = "finishes"
    EQUALS = "equals"
    # inverses
    AFTER = "after"
    MET_BY = "met-by"
    OVERLAPPED_BY = "overlapped-by"
    CONTAINS = "contains"
    STARTED_BY = "started-by"
    FINISHED_BY = "finished-by"

    def inverse(self) -> "TemporalRelation":
        pairs = {
            TemporalRelation.BEFORE: TemporalRelation.AFTER,
            TemporalRelation.MEETS: TemporalRelation.MET_BY,
            TemporalRelation.OVERLAPS: TemporalRelation.OVERLAPPED_BY,
            TemporalRelation.DURING: TemporalRelation.CONTAINS,
            TemporalRelation.STARTS: TemporalRelation.STARTED_BY,
            TemporalRelation.FINISHES: TemporalRelation.FINISHED_BY,
            TemporalRelation.EQUALS: TemporalRelation.EQUALS,
        }
        inverse_pairs = {v: k for k, v in pairs.items()}
        return pairs.get(self) or inverse_pairs[self]

    def is_canonical(self) -> bool:
        """True for the 7 relations OCPN compiles directly."""
        return self in _CANONICAL

    def canonicalize(self) -> Tuple["TemporalRelation", bool]:
        """Return (canonical relation, swapped) — swapped means the operand
        order must be exchanged to use the canonical construction."""
        if self.is_canonical():
            return self, False
        return self.inverse(), True


_CANONICAL = {
    TemporalRelation.BEFORE,
    TemporalRelation.MEETS,
    TemporalRelation.OVERLAPS,
    TemporalRelation.DURING,
    TemporalRelation.STARTS,
    TemporalRelation.FINISHES,
    TemporalRelation.EQUALS,
}


@dataclass(frozen=True)
class Interval:
    """A half-open time interval ``[start, end)`` with ``end > start``."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if not self.end > self.start:
            raise ValueError(f"interval must have end > start, got {self}")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def shifted(self, delta: float) -> "Interval":
        return Interval(self.start + delta, self.end + delta)


def relation_between(a: Interval, b: Interval, *, tol: float = 1e-9) -> TemporalRelation:
    """Classify the temporal relation of ``a`` with respect to ``b``."""

    def eq(x: float, y: float) -> bool:
        return abs(x - y) <= tol

    if eq(a.start, b.start) and eq(a.end, b.end):
        return TemporalRelation.EQUALS
    if eq(a.start, b.start):
        return TemporalRelation.STARTS if a.end < b.end else TemporalRelation.STARTED_BY
    if eq(a.end, b.end):
        return (
            TemporalRelation.FINISHES if a.start > b.start else TemporalRelation.FINISHED_BY
        )
    if eq(a.end, b.start):
        return TemporalRelation.MEETS
    if eq(b.end, a.start):
        return TemporalRelation.MET_BY
    if a.end < b.start:
        return TemporalRelation.BEFORE
    if b.end < a.start:
        return TemporalRelation.AFTER
    if a.start > b.start and a.end < b.end:
        return TemporalRelation.DURING
    if b.start > a.start and b.end < a.end:
        return TemporalRelation.CONTAINS
    if a.start < b.start:
        return TemporalRelation.OVERLAPS
    return TemporalRelation.OVERLAPPED_BY


def schedule_pair(
    relation: TemporalRelation,
    duration_a: float,
    duration_b: float,
    *,
    delay: float = 0.0,
    origin: float = 0.0,
) -> Tuple[Interval, Interval]:
    """Concrete intervals for two objects under ``relation``.

    ``delay`` parameterizes the relations that need one:

    * ``BEFORE``: gap between a's end and b's start (must be > 0).
    * ``OVERLAPS``: how long a plays before b starts (0 < delay, and the
      overlap must be positive).
    * ``DURING``: how long b plays before a starts (0 < delay and
      delay + duration_a < duration_b).

    Raises :class:`ValueError` when durations are inconsistent with the
    relation (e.g. ``EQUALS`` with different durations), mirroring the
    validation the OCPN compiler performs.
    """
    if duration_a <= 0 or duration_b <= 0:
        raise ValueError("durations must be positive")
    rel, swapped = relation.canonicalize()
    if swapped:
        b_int, a_int = schedule_pair(
            rel, duration_b, duration_a, delay=delay, origin=origin
        )
        return a_int, b_int

    a = Interval(origin, origin + duration_a)
    if rel is TemporalRelation.EQUALS:
        if abs(duration_a - duration_b) > 1e-9:
            raise ValueError("EQUALS requires identical durations")
        return a, Interval(origin, origin + duration_b)
    if rel is TemporalRelation.STARTS:
        if duration_a >= duration_b:
            raise ValueError("STARTS requires duration_a < duration_b")
        return a, Interval(origin, origin + duration_b)
    if rel is TemporalRelation.FINISHES:
        if duration_a >= duration_b:
            raise ValueError("FINISHES requires duration_a < duration_b")
        b = Interval(origin, origin + duration_b)
        return a.shifted(duration_b - duration_a), b
    if rel is TemporalRelation.MEETS:
        return a, Interval(a.end, a.end + duration_b)
    if rel is TemporalRelation.BEFORE:
        if delay <= 0:
            raise ValueError("BEFORE requires a positive delay")
        return a, Interval(a.end + delay, a.end + delay + duration_b)
    if rel is TemporalRelation.OVERLAPS:
        if not 0 < delay < duration_a:
            raise ValueError("OVERLAPS requires 0 < delay < duration_a")
        if origin + delay + duration_b <= a.end:
            raise ValueError("OVERLAPS requires b to end after a")
        return a, Interval(origin + delay, origin + delay + duration_b)
    if rel is TemporalRelation.DURING:
        if delay <= 0 or delay + duration_a >= duration_b:
            raise ValueError("DURING requires 0 < delay and delay+dur_a < dur_b")
        b = Interval(origin, origin + duration_b)
        return a.shifted(delay), b
    raise ValueError(f"unsupported relation {relation}")  # pragma: no cover
