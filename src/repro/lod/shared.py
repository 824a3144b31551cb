"""Shared viewing sessions: floor control over *real* streams.

:class:`repro.lod.floor.Classroom` arbitrates the abstract presentation
model; :class:`SharedViewing` does the same over the actual streaming
stack: N students each hold a :class:`~repro.streaming.client.MediaPlayer`
session on the same publishing point, the floor token decides who may
steer, and the holder's pause/resume/seek commands are applied to every
member's stream. This is the paper's "floor control with multiple users"
carried all the way down to packets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.extended import FloorControl
from ..streaming.client import MediaPlayer, PlayerError, PlayerState
from ..web.http import VirtualNetwork
from .floor import FloorDenied


@dataclass
class SharedEvent:
    """Audit entry of the shared session."""

    time: float
    user: str
    action: str
    detail: str = ""


class SharedViewing:
    """N media players steered by one floor-held control channel."""

    def __init__(
        self,
        network: VirtualNetwork,
        url: str,
        users: Sequence[str],
        *,
        moderator: Optional[str] = None,
        license_server=None,
    ) -> None:
        if not users:
            raise ValueError("shared viewing needs at least one user")
        self.network = network
        self.url = url
        self.users = list(users)
        self.moderator = moderator or self.users[0]
        if self.moderator not in self.users:
            raise ValueError("moderator must be one of the users")
        self.floor = FloorControl(self.users)
        self.players: Dict[str, MediaPlayer] = {
            user: MediaPlayer(network, user, license_server=license_server)
            for user in self.users
        }
        self.events: List[SharedEvent] = []
        self.floor.request(self.moderator)
        self._log(self.moderator, "floor", "granted (moderator)")

    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.network.simulator.now

    def _log(self, user: str, action: str, detail: str = "") -> None:
        self.events.append(SharedEvent(self.now, user, action, detail))

    def start(self) -> None:
        """Connect and start every member's stream."""
        for user, player in self.players.items():
            player.connect(self.url)
            player.play()
        self._log(self.moderator, "start")

    def advance(self, dt: float) -> None:
        self.network.simulator.run_until(self.now + dt)
        self.floor.advance(dt)

    def wait_all_playing(self, *, timeout: float = 60.0) -> None:
        if not self.network.simulator.wait(
            lambda: all(
                p.state is PlayerState.PLAYING for p in self.players.values()
            ),
            deadline=self.now + timeout,
        ):
            raise PlayerError("not all members reached playing state")
        self.floor.advance(self.now - self.floor.now)

    # -- floor --------------------------------------------------------

    def request_floor(self, user: str) -> bool:
        granted = self.floor.request(user)
        self._log(user, "request_floor", "granted" if granted else "queued")
        return granted

    def release_floor(self, user: str) -> Optional[str]:
        nxt = self.floor.release(user)
        self._log(user, "release_floor", f"next={nxt}")
        return nxt

    # -- arbitrated control ---------------------------------------------

    def _check_floor(self, user: str, action: str) -> None:
        if self.floor.holder != user:
            self._log(user, "denied", action)
            raise FloorDenied(
                f"{user!r} does not hold the floor "
                f"(holder: {self.floor.holder!r})"
            )

    def pause(self, user: str) -> int:
        """Holder pauses everyone. Returns how many streams paused."""
        self._check_floor(user, "pause")
        count = 0
        for player in self.players.values():
            if player.state is PlayerState.PLAYING:
                player.pause()
                count += 1
        self._log(user, "pause", f"{count} streams")
        return count

    def resume(self, user: str) -> int:
        self._check_floor(user, "resume")
        count = 0
        for player in self.players.values():
            if player.state is PlayerState.PAUSED:
                player.resume()
                count += 1
        self._log(user, "resume", f"{count} streams")
        return count

    def seek(self, user: str, position: float) -> int:
        self._check_floor(user, "seek")
        count = 0
        for player in self.players.values():
            if player.state in (PlayerState.PLAYING, PlayerState.PAUSED):
                player.seek(position)
                count += 1
        self._log(user, "seek", f"{position}s on {count} streams")
        return count

    # -- reporting --------------------------------------------------------

    def positions(self) -> Dict[str, float]:
        return {user: p.position for user, p in self.players.items()}

    def spread(self) -> float:
        """Max position difference across members (group drift)."""
        positions = list(self.positions().values())
        return max(positions) - min(positions) if positions else 0.0

    def finish_all(self, *, timeout: float = 3_600.0) -> Dict[str, object]:
        """Run every stream to completion; returns per-user reports."""
        deadline = self.now + timeout
        # a member paused at end-of-session would never finish; nothing
        # pauses a player but a call through this object, so once is enough
        for player in self.players.values():
            if player.state is PlayerState.PAUSED:
                player.resume()
        if not self.network.simulator.wait(
            lambda: all(
                p.state is PlayerState.FINISHED for p in self.players.values()
            ),
            deadline=deadline,
        ):
            raise PlayerError("shared session did not finish")
        return {user: p.report() for user, p in self.players.items()}

    def denial_count(self) -> int:
        return sum(1 for e in self.events if e.action == "denied")
