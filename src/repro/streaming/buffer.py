"""Client-side jitter buffer.

Received media units wait here until the render clock reaches their
timestamp. The buffer answers the two questions the player's control loop
asks every tick: *what is due now* (:meth:`JitterBuffer.pop_due_ms`) and
*how much runway is left* (:meth:`JitterBuffer.runway_ms`) — runway
depleting to zero while the stream is still open is a rebuffer event.

Both work in integer media milliseconds: the player rounds its playhead
once per tick with :func:`~repro.media.clock.media_ms` and asks both
questions with the same number, so a unit counted as runway is exactly one
not yet due. :meth:`pop_due` and :meth:`depth` are the same questions in
float seconds.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence

from ..asf.packets import MediaUnit
from ..media.clock import media_ms


class JitterBuffer:
    """Timestamp-ordered buffer of media units across streams.

    The units wait in one sorted run: ``_times[i]`` is the timestamp of
    ``_units[i]``, and everything before ``_head`` was popped. Units arrive
    nearly in timestamp order, so one is appended unless it is late, and a
    late one is inserted after every buffered unit of its timestamp: equal
    timestamps pop in arrival order. A pop is one bisect and one slice;
    the popped prefix is cut off once it passes half the run.
    """

    def __init__(self) -> None:
        self._times: List[int] = []
        self._units: List[MediaUnit] = []
        self._head = 0
        #: highest buffered-or-consumed timestamp per stream (ms)
        self.horizon_ms: Dict[int, int] = {}
        self.pushed = 0
        self.popped = 0

    def push(self, unit: MediaUnit) -> None:
        self.extend((unit,))

    def extend(self, units: Sequence[MediaUnit]) -> None:
        """Buffer ``units``, in arrival order."""
        times, held = self._times, self._units
        horizons = self.horizon_ms
        for unit in units:
            timestamp = unit.timestamp_ms
            if not times or timestamp >= times[-1]:
                times.append(timestamp)
                held.append(unit)
            else:
                # the live run is sorted from _head on: a unit later than
                # every live one lands at the end, past the popped prefix
                i = bisect_right(times, timestamp, self._head)
                times.insert(i, timestamp)
                held.insert(i, unit)
            stream = unit.stream_number
            if timestamp > horizons.get(stream, -1):
                horizons[stream] = timestamp
        self.pushed += len(units)

    def __len__(self) -> int:
        return len(self._times) - self._head

    def peek_timestamp(self) -> Optional[float]:
        times, head = self._times, self._head
        return times[head] / 1000.0 if head < len(times) else None

    def pop_due_ms(self, due_ms: int) -> List[MediaUnit]:
        """All units stamped ≤ ``due_ms``, in timestamp order."""
        times, head = self._times, self._head
        if head == len(times) or times[head] > due_ms:
            return []
        end = bisect_right(times, due_ms, head)
        out = self._units[head:end]
        if end > len(times) >> 1:
            del times[:end], self._units[:end]
            end = 0
        self._head = end
        self.popped += len(out)
        return out

    def runway_ms(self, pos_ms: int, streams: Iterable[int]) -> Optional[int]:
        """Milliseconds from ``pos_ms`` to the lowest horizon of ``streams``
        (negative once the playhead passed it); ``None`` when ``streams``
        is empty or one of them has not been seen yet."""
        horizons = self.horizon_ms
        lowest = None
        for stream in streams:
            horizon = horizons.get(stream)
            if horizon is None:
                return None
            if lowest is None or horizon < lowest:
                lowest = horizon
        return None if lowest is None else lowest - pos_ms

    def pop_due(self, position: float) -> List[MediaUnit]:
        """All units with timestamp ≤ ``position`` seconds, in order."""
        return self.pop_due_ms(media_ms(position))

    def depth(self, position: float, streams: Optional[List[int]] = None) -> float:
        """Seconds of runway past ``position`` over ``streams`` (default:
        every stream seen); zero when one was never seen."""
        runway = self.runway_ms(
            media_ms(position), self.horizon_ms if streams is None else streams
        )
        return 0.0 if runway is None else max(0.0, runway / 1000.0)

    def clear(self) -> None:
        """Drop everything (seek discontinuity)."""
        self._times.clear()
        self._units.clear()
        self._head = 0
        self.horizon_ms.clear()
