"""Scripted interaction workloads.

The benches compare synchronization models under *identical* user
behaviour, so user behaviour must be a value: an :class:`InteractionScript`
is a time-ordered list of actions that can be applied to the core
:class:`~repro.core.extended.InteractivePlayer` (model-level runs) or to a
streaming :class:`~repro.streaming.client.MediaPlayer` (full-stack runs).
:func:`random_script` generates seeded plausible-student behaviour.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..core.extended import ExtendedPresentation, InteractivePlayer
from ..core.petri import NotEnabledError
from ..streaming.client import MediaPlayer, PlayerError, PlayerState
from ..web.http import VirtualNetwork

#: actions a script may contain (param meaning in brackets)
ACTIONS = (
    "pause",  # [hold seconds]
    "resume",
    "skip_forward",
    "skip_backward",
    "speed",  # [rate]
    "seek",  # [target position]
)


@dataclass(frozen=True)
class ScriptedAction:
    """One action at one wall-clock time (seconds from playback start)."""

    at: float
    action: str
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("action time must be >= 0")
        if self.action not in ACTIONS:
            raise ValueError(f"unknown action {self.action!r}")


@dataclass
class InteractionScript:
    """A reproducible interactive workload."""

    actions: List[ScriptedAction] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.actions = sorted(self.actions, key=lambda a: a.at)

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def horizon(self) -> float:
        return self.actions[-1].at if self.actions else 0.0


def random_script(
    *,
    duration: float,
    seed: int = 0,
    pause_rate: float = 0.02,
    skip_rate: float = 0.01,
    mean_hold: float = 4.0,
) -> InteractionScript:
    """Seeded plausible-student behaviour over a lecture of ``duration``.

    Rates are per second of wall time; a pause is always paired with a
    resume after an exponential hold.
    """
    rng = random.Random(seed)
    actions: List[ScriptedAction] = []
    t = 0.0
    paused_until: Optional[float] = None
    while t < duration:
        t += rng.expovariate(max(pause_rate + skip_rate, 1e-9))
        if t >= duration:
            break
        if paused_until is not None and t < paused_until:
            t = paused_until
        if rng.random() < pause_rate / max(pause_rate + skip_rate, 1e-9):
            hold = rng.expovariate(1.0 / mean_hold)
            actions.append(ScriptedAction(round(t, 3), "pause"))
            actions.append(ScriptedAction(round(t + hold, 3), "resume"))
            paused_until = t + hold
        else:
            direction = "skip_forward" if rng.random() < 0.7 else "skip_backward"
            actions.append(ScriptedAction(round(t, 3), direction))
    return InteractionScript(actions)


# ----------------------------------------------------------------------
# applying scripts
# ----------------------------------------------------------------------


@dataclass
class ModelRunResult:
    """Result of applying a script to the core InteractivePlayer."""

    player: InteractivePlayer
    applied: int
    rejected: int  # actions illegal in the control net at that moment
    wall_duration: float

    @property
    def position(self) -> float:
        return self.player.position


def apply_to_model(
    presentation: ExtendedPresentation,
    script: InteractionScript,
    *,
    run_out: bool = True,
    step: float = 0.05,
) -> ModelRunResult:
    """Run the extended-net player through ``script``.

    Illegal actions (e.g. resume while playing) are counted as rejected —
    the control subnet's whole point is that they cannot corrupt state.
    """
    player = InteractivePlayer(presentation)
    player.play()
    applied = rejected = 0
    now = 0.0
    for action in script.actions:
        if action.at > now:
            player.advance(action.at - now)
            now = action.at
        try:
            if action.action == "pause":
                player.pause()
            elif action.action == "resume":
                player.resume()
            elif action.action == "skip_forward":
                player.skip_forward()
            elif action.action == "skip_backward":
                player.skip_backward()
            elif action.action == "speed":
                player.set_speed(action.param or 1.0)
            elif action.action == "seek":
                player.seek(action.param)
            applied += 1
        except NotEnabledError:
            rejected += 1
    if run_out:
        while not player.finished and player.state in ("playing", "paused"):
            if player.state == "paused":
                player.resume()
                applied += 1
            remaining = presentation.duration - player.position
            player.advance(remaining / player.rate + step)
            now += remaining / player.rate + step
    return ModelRunResult(player, applied, rejected, now)


@dataclass
class StreamRunResult:
    """Result of applying a script to a streaming MediaPlayer."""

    report: object  # PlaybackReport
    applied: int
    rejected: int


def apply_to_stream(
    network: VirtualNetwork,
    player: MediaPlayer,
    url: str,
    script: InteractionScript,
    *,
    timeout: float = 3_600.0,
) -> StreamRunResult:
    """Full-stack run: connect, play, fire script actions at wall times.

    Action times are relative to the first moment of actual playback.
    Skip actions are not meaningful on the raw stream player (no segment
    table) and raise :class:`ValueError` — use seek instead.
    """
    for action in script.actions:
        if action.action in ("skip_forward", "skip_backward"):
            raise ValueError(
                "stream runs take seek actions, not segment skips"
            )
    player.connect(url)
    player.play()
    simulator = network.simulator

    def finished() -> bool:
        return player.state is PlayerState.FINISHED

    # wait for playback to actually start
    if not simulator.wait(lambda: player.state is PlayerState.PLAYING):
        raise PlayerError("stream never started")
    origin = simulator.now
    applied = rejected = 0
    for action in script.actions:
        target = origin + action.at
        if not simulator.wait(
            lambda: simulator.now >= target or finished(), deadline=target
        ):
            simulator.run_until(target)  # quiet until the action is due
        if finished():
            break
        # a user acts when the UI is responsive: let transient buffering
        # (e.g. right after a seek) drain before applying the action
        simulator.wait(lambda: player.state is not PlayerState.BUFFERING)
        if finished():
            break
        try:
            if action.action == "pause":
                player.pause()
            elif action.action == "resume":
                player.resume()
            elif action.action == "speed":
                pass  # stream pacing is fixed; speed is a model-level op
            elif action.action == "seek":
                player.seek(action.param)
            applied += 1
        except PlayerError:
            rejected += 1
    deadline = simulator.now + timeout
    if player.state is PlayerState.PAUSED:
        player.resume()  # a script that ends paused would never finish
    if not simulator.wait(finished, deadline=deadline):
        raise PlayerError("stream run did not finish")
    return StreamRunResult(player.report(), applied, rejected)
