"""Structured tracing for the publish → serve → playback pipeline.

One :class:`Tracer` collects timestamped span/event records from every
layer that was handed it: the encode farm and publisher (job batches),
the media server (session lifecycle, packet trains, repairs), the QoS
manager (reservations), the fault injector (scripted faults), links
(drops), and the player (startup, renders, rebuffers, reconnects).

Records are plain JSON-serializable dicts, strictly ordered by a
monotonically increasing ``seq`` — the *execution* order, which on the
deterministic simulator is itself deterministic. ``t`` is the bound
clock's time (the simulator's, usually); components that run outside the
simulator (the encode farm during publish) record ``t=0.0`` and rely on
``seq`` ordering. :class:`~repro.obs.checker.TraceChecker` replays a
finished trace and asserts cross-layer invariants.

Every hook in the codebase is guarded by ``if tracer is not None`` — a
run without a tracer allocates nothing and branches once per would-be
record.
"""

from __future__ import annotations

import itertools
import json
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional


class TraceError(Exception):
    """Tracer misuse (unknown span, unbound clock expectations...)."""


class Tracer:
    """An append-only stream of span/event records with one clock.

    Records are stamped ``t=0.0`` (ordering still comes from ``seq``)
    until :meth:`bind_clock` attaches a clock once the network exists —
    records made before binding keep their original timestamps.
    """

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self.records: List[Dict[str, Any]] = []
        self._span_ids = itertools.count(1)
        self._seq = itertools.count(1)
        self._open_spans: Dict[int, str] = {}
        self.bind_clock(None)

    # ------------------------------------------------------------------

    def bind_clock(self, clock: Any) -> None:
        """Attach the time source for subsequent records: anything
        exposing a float ``now`` attribute (a
        :class:`~repro.net.engine.Simulator`), a zero-argument callable
        returning seconds, or ``None`` for ``t=0.0``."""
        if clock is None:
            self._now: Callable[[], float] = lambda: 0.0
        elif hasattr(clock, "now"):
            self._now = lambda: float(clock.now)
        elif callable(clock):
            self._now = lambda: float(clock())
        else:
            raise TraceError(
                f"clock must expose .now or be callable, got {clock!r}"
            )

    # ------------------------------------------------------------------

    def event(self, name: str, span: Optional[int] = None, **attrs: Any) -> None:
        """Record one point event."""
        self.records.append({
            "seq": next(self._seq),
            "t": self._now(),
            "kind": "event",
            "name": name,
            "span": span,
            "attrs": attrs,
        })

    def begin(self, name: str, parent: Optional[int] = None, **attrs: Any) -> int:
        """Open a span; returns its id (pass to :meth:`end`)."""
        span_id = next(self._span_ids)
        self._open_spans[span_id] = name
        self.records.append({
            "seq": next(self._seq),
            "t": self._now(),
            "kind": "begin",
            "name": name,
            "span": span_id,
            "parent": parent,
            "attrs": attrs,
        })
        return span_id

    def end(self, span_id: int, **attrs: Any) -> None:
        name = self._open_spans.pop(span_id, None)
        if name is None:
            raise TraceError(f"end of unknown/closed span {span_id}")
        self.records.append({
            "seq": next(self._seq),
            "t": self._now(),
            "kind": "end",
            "name": name,
            "span": span_id,
            "attrs": attrs,
        })

    @contextmanager
    def span(
        self, name: str, parent: Optional[int] = None, **attrs: Any
    ) -> Iterator[int]:
        span_id = self.begin(name, parent=parent, **attrs)
        try:
            yield span_id
        finally:
            self.end(span_id)

    # ------------------------------------------------------------------
    # reading & serialization
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def events(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """All records, or just those with the given ``name``."""
        if name is None:
            return list(self.records)
        return [r for r in self.records if r["name"] == name]

    def open_spans(self) -> Dict[int, str]:
        """Spans begun but not yet ended (should be empty at run end)."""
        return dict(self._open_spans)

    def to_jsonl(self) -> str:
        """One JSON object per line, in ``seq`` order."""
        return "\n".join(
            json.dumps(record, sort_keys=True, default=_json_fallback)
            for record in self.records
        )

    def write_jsonl(self, path: str) -> int:
        """Write the trace to ``path``; returns the record count."""
        text = self.to_jsonl()
        with open(path, "w") as fh:
            if text:
                fh.write(text + "\n")
        return len(self.records)

    def clear(self) -> None:
        self.records.clear()
        self._open_spans.clear()

    def __repr__(self) -> str:
        return f"<Tracer {self.name!r} records={len(self.records)}>"


def _json_fallback(value: Any) -> str:
    # attrs are expected to be JSON primitives; anything exotic (a
    # frozenset of stream numbers, say) degrades to its repr rather than
    # poisoning the whole trace file
    return repr(value)


def load_jsonl(text: str) -> List[Dict[str, Any]]:
    """Parse a JSONL trace back into records (for offline checking)."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]
