"""Lightweight named counters for recovery/fault bookkeeping.

The :class:`~repro.metrics.collector.MetricsCollector` records timestamped
series; fault-injection runs mostly want plain tallies (NAKs sent, repairs
received, reconnects, downshifts) that tests and benches can read off at
the end. :class:`Counters` is that: a defaulting integer map with a name
for report labeling.

:func:`get_counters` adds a process-global registry of named bags so that
long-lived subsystems (the encode cache, the encode farm) can publish
observability tallies without threading a collector through every call
site; benches snapshot the registry with :func:`counters_snapshot` and
tests isolate themselves with :func:`reset_counters`.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional


class Counters:
    """A named bag of monotonically increasing integer counters."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._counts: Dict[str, int] = {}

    def inc(self, key: str, amount: int = 1) -> int:
        value = self._counts.get(key, 0) + amount
        self._counts[key] = value
        return value

    def get(self, key: str, default: int = 0) -> int:
        return self._counts.get(key, default)

    def __getitem__(self, key: str) -> int:
        return self._counts.get(key, 0)

    def __contains__(self, key: str) -> bool:
        return key in self._counts

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._counts))

    def __len__(self) -> int:
        return len(self._counts)

    def as_dict(self) -> Dict[str, int]:
        return dict(sorted(self._counts.items()))

    def clear(self) -> None:
        self._counts.clear()

    def merge(self, other: "Counters") -> "Counters":
        for key, value in other._counts.items():
            self.inc(key, value)
        return self

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._counts.items()))
        label = f" {self.name}" if self.name else ""
        return f"<Counters{label} {inner}>"


# ----------------------------------------------------------------------
# process-global registry
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, Counters] = {}


def get_counters(name: str) -> Counters:
    """The process-global :class:`Counters` bag called ``name``.

    Created on first use; every later call returns the same object, so
    independent components (an :class:`~repro.asf.encoder.EncodeCache`
    here, a bench reporter there) observe one shared tally.
    """
    if not name:
        raise ValueError("registry counters need a name")
    bag = _REGISTRY.get(name)
    if bag is None:
        bag = _REGISTRY[name] = Counters(name)
    return bag


def counters_snapshot() -> Dict[str, Dict[str, int]]:
    """``{bag name: {counter: value}}`` for every registered bag."""
    return {name: bag.as_dict() for name, bag in sorted(_REGISTRY.items())}


def reset_counters(name: Optional[str] = None) -> None:
    """Zero one registered bag, or all of them (test isolation)."""
    if name is None:
        for bag in _REGISTRY.values():
            bag.clear()
    elif name in _REGISTRY:
        _REGISTRY[name].clear()

