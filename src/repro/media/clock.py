"""Presentation clocks: mapping wall time to media time.

The renderer and the script-command dispatcher both need "what is the
presentation time now?" under pause/resume and speed changes:
:class:`PresentationClock` answers it, and :func:`media_ms` is the one
rounding of a float position to the integer milliseconds every media unit
and script command is stamped with.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple


class ClockError(Exception):
    """Clock misuse (e.g. pausing a paused clock)."""


def media_ms(seconds: float) -> int:
    """A float position in seconds as integer media milliseconds.

    Rounds half-up with a one-nanosecond tolerance so that positions that
    *mean* a .5 ms boundary land on it regardless of float representation.
    ``round()`` is wrong here twice over: banker's rounding makes ``.5``
    boundaries parity-dependent (``round(12.5) == 12`` but
    ``round(13.5) == 14``), and seek/replay rebasing can leave the product
    a few ulps *below* the boundary (``12.4999999999999998``), which any
    plain rounding would push to the previous millisecond — skipping a
    unit stamped exactly on the boundary. The jitter buffer, the render
    tick and the script-command dispatcher all round through here, so a
    unit and a command with one timestamp come due in the same tick.
    """
    return math.floor(seconds * 1000.0 + 0.5 + 1e-9)


class PresentationClock:
    """Piecewise-linear media clock driven by explicit wall time.

    All methods take the current wall time; the clock never reads a real
    OS clock, so simulations are deterministic. Supports pause/resume and
    rate changes; :meth:`media_time` is the presentation position.
    """

    def __init__(self, *, rate: float = 1.0) -> None:
        if rate <= 0:
            raise ClockError("rate must be positive")
        self._rate = rate
        self._anchor_wall: Optional[float] = None  # None = not started
        self._anchor_media = 0.0
        self._paused = False

    @property
    def started(self) -> bool:
        return self._anchor_wall is not None

    @property
    def paused(self) -> bool:
        return self._paused

    @property
    def rate(self) -> float:
        return self._rate

    def start(self, wall_time: float, *, media_time: float = 0.0) -> None:
        if self.started:
            raise ClockError("clock already started")
        self._anchor_wall = wall_time
        self._anchor_media = media_time

    def media_time(self, wall_time: float) -> float:
        """Presentation position at ``wall_time``."""
        if not self.started:
            return self._anchor_media
        if self._paused:
            return self._anchor_media
        return self._anchor_media + (wall_time - self._anchor_wall) * self._rate

    def pause(self, wall_time: float) -> None:
        if not self.started or self._paused:
            raise ClockError("cannot pause: clock not running")
        self._anchor_media = self.media_time(wall_time)
        self._paused = True

    def resume(self, wall_time: float) -> None:
        if not self._paused:
            raise ClockError("cannot resume: clock not paused")
        self._anchor_wall = wall_time
        self._paused = False

    def set_rate(self, wall_time: float, rate: float) -> None:
        if rate <= 0:
            raise ClockError("rate must be positive")
        self._anchor_media = self.media_time(wall_time)
        self._anchor_wall = wall_time
        self._rate = rate

    def seek(self, wall_time: float, media_time: float) -> None:
        if media_time < 0:
            raise ClockError("media time must be >= 0")
        self._anchor_media = media_time
        self._anchor_wall = wall_time

    def wall_time_of(self, wall_now: float, media_time: float) -> float:
        """Wall time at which ``media_time`` will be reached (running clock)."""
        if not self.started or self._paused:
            raise ClockError("clock is not running")
        return wall_now + (media_time - self.media_time(wall_now)) / self._rate
