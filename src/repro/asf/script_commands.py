"""ASF script commands — the synchronization mechanism of the paper.

"Script commands instruct Microsoft Windows Media Player to perform
additional tasks … along with rendering the ASF stream" (§2.1). The
orchestrator (Fig. 5–7) makes "the video and presented slides synchronized
with the temporal script commands": each slide change or annotation is a
``(type, parameter, timestamp)`` triple multiplexed into the stream; the
player fires it when its clock passes the timestamp.

Command types used by this system:

* ``SLIDE``   — parameter is the slide identifier/path to display;
* ``CAPTION`` — parameter is caption text;
* ``ANNOTATION`` — parameter is a JSON-ish annotation payload;
* ``URL``, ``FILENAME`` — classic ASF types, kept for completeness;
* ``TREE_LEVEL`` — this reproduction's extension: switch content-tree level.

:class:`ScriptCommandDispatcher` is the client-side firing engine with
catch-up semantics after a seek (fire the latest state-bearing command at
or before the new position so the right slide shows immediately).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..media.clock import media_ms
from .constants import ASFError
from .wire import Reader, pack_str, pack_u32, pack_u64

#: Conventional command types (open set; any string is legal on the wire).
TYPE_SLIDE = "SLIDE"
TYPE_CAPTION = "CAPTION"
TYPE_ANNOTATION = "ANNOTATION"
TYPE_URL = "URL"
TYPE_FILENAME = "FILENAME"
TYPE_TREE_LEVEL = "TREE_LEVEL"

#: Types where only the most recent command matters after a seek.
STATEFUL_TYPES = {TYPE_SLIDE, TYPE_CAPTION, TYPE_TREE_LEVEL}


@dataclass(frozen=True, order=True)
class ScriptCommand:
    """One timed command: ordering is by timestamp (then type, parameter)."""

    timestamp_ms: int
    type: str
    parameter: str

    def __post_init__(self) -> None:
        if self.timestamp_ms < 0:
            raise ASFError("script command timestamp must be >= 0")
        if not self.type:
            raise ASFError("script command needs a type")

    @property
    def timestamp(self) -> float:
        return self.timestamp_ms / 1000.0


def pack_command(command: ScriptCommand) -> bytes:
    return (
        pack_u64(command.timestamp_ms)
        + pack_str(command.type)
        + pack_str(command.parameter)
    )


def unpack_command(reader: Reader) -> ScriptCommand:
    ts = reader.u64()
    ctype = reader.string()
    parameter = reader.string()
    return ScriptCommand(ts, ctype, parameter)


def pack_command_table(commands: Sequence[ScriptCommand]) -> bytes:
    ordered = sorted(commands)
    out = pack_u32(len(ordered))
    for command in ordered:
        out += pack_command(command)
    return out


def unpack_command_table(payload: bytes) -> List[ScriptCommand]:
    r = Reader(payload)
    count = r.u32()
    return [unpack_command(r) for _ in range(count)]


class ScriptCommandDispatcher:
    """Fires script commands as presentation time advances.

    ``advance_to(t)`` fires, in order, every unfired command with
    timestamp ≤ t. ``seek(t)`` re-synchronizes: for each *stateful* type
    the latest command at or before ``t`` fires once (so the current slide
    appears), earlier ones are skipped, and later ones are re-armed.
    """

    def __init__(
        self,
        commands: Sequence[ScriptCommand],
        handler: Callable[[ScriptCommand], None],
    ) -> None:
        self.commands = sorted(commands)
        self.handler = handler
        self._cursor = 0
        self.fired: List[ScriptCommand] = []

    @property
    def pending(self) -> int:
        return len(self.commands) - self._cursor

    def advance_to(self, seconds: float) -> Sequence[ScriptCommand]:
        """Fire everything due by ``seconds``; returns what fired.

        ``seconds`` rounds to media milliseconds the way the jitter buffer
        rounds the playhead (:func:`~repro.media.clock.media_ms`), so a
        command fires in the tick that renders a unit with its timestamp.
        """
        return self.advance_to_ms(media_ms(seconds))

    def advance_to_ms(self, due_ms: int) -> Sequence[ScriptCommand]:
        """:meth:`advance_to` for a playhead already in media ms."""
        commands = self.commands
        cursor = self._cursor
        if cursor >= len(commands) or commands[cursor].timestamp_ms > due_ms:
            return ()
        fired_now: List[ScriptCommand] = []
        while cursor < len(commands) and commands[cursor].timestamp_ms <= due_ms:
            command = commands[cursor]
            self.handler(command)
            self.fired.append(command)
            fired_now.append(command)
            cursor += 1
            self._cursor = cursor
        return fired_now

    def seek(self, seconds: float) -> List[ScriptCommand]:
        """Jump the clock; replay the latest stateful command per type."""
        target_ms = media_ms(seconds)
        latest: Dict[str, ScriptCommand] = {}
        for command in self.commands:
            if command.timestamp_ms > target_ms:
                break
            if command.type in STATEFUL_TYPES:
                latest[command.type] = command
        fired_now = []
        for command in sorted(latest.values()):
            self.handler(command)
            self.fired.append(command)
            fired_now.append(command)
        # re-arm the cursor at the first command strictly after the target
        self._cursor = 0
        while (
            self._cursor < len(self.commands)
            and self.commands[self._cursor].timestamp_ms <= target_ms
        ):
            self._cursor += 1
        return fired_now


def slide_commands(
    slide_times: Sequence[Tuple[str, float]],
) -> List[ScriptCommand]:
    """Build SLIDE commands from ``(slide_id, start_seconds)`` pairs."""
    return [
        ScriptCommand(round(start * 1000), TYPE_SLIDE, slide)
        for slide, start in slide_times
    ]
