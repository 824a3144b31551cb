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

import heapq
import itertools
from typing import Dict, Iterable, List, Optional, Tuple

from ..asf.packets import MediaUnit
from ..media.clock import media_ms


class JitterBuffer:
    """Timestamp-ordered buffer of media units across streams."""

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, MediaUnit]] = []
        self._seq = itertools.count()
        #: highest buffered-or-consumed timestamp per stream (ms)
        self.horizon_ms: Dict[int, int] = {}
        self.pushed = 0
        self.popped = 0

    def push(self, unit: MediaUnit) -> None:
        timestamp = unit.timestamp_ms
        heapq.heappush(self._heap, (timestamp, next(self._seq), unit))
        stream = unit.stream_number
        if timestamp > self.horizon_ms.get(stream, -1):
            self.horizon_ms[stream] = timestamp
        self.pushed += 1

    def __len__(self) -> int:
        return len(self._heap)

    def peek_timestamp(self) -> Optional[float]:
        return self._heap[0][0] / 1000.0 if self._heap else None

    def pop_due_ms(self, due_ms: int) -> List[MediaUnit]:
        """All units stamped ≤ ``due_ms``, in timestamp order."""
        heap = self._heap
        if not heap or heap[0][0] > due_ms:
            return []
        pop = heapq.heappop
        out = [pop(heap)[2]]
        while heap and heap[0][0] <= due_ms:
            out.append(pop(heap)[2])
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
        self._heap.clear()
        self.horizon_ms.clear()
