"""Per-edge viewer cohorts — one real session standing for N viewers.

A :class:`CohortViewer` owns a single delegate
:class:`~repro.streaming.client.MediaPlayer` opened with
``multiplicity=N``: the server paces exactly one carrier stream, the
delegate renders it once, and every QoE measurement counts N times in the
rollups. This is the aggregation that takes the simulator from tens of
viewers to a million — the cost of a cohort is the cost of one client,
whatever its size.

De-aggregation is lazy: the moment a member individuates (a scripted
seek, a reconnect-style fault), :meth:`split` peels a real player out via
:meth:`MediaPlayer.split_member` — byte-identical, from that instant, to
a viewer that had been independent all along (see
``tests/test_cohort_equivalence.py``). Members that merely leave early
:meth:`depart` with an honest snapshot of the delegate's state at that
moment; no split is needed because a leaver's history never diverged.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..net.engine import PeriodicTask, Simulator
from ..obs.qoe import SessionQoE
from ..streaming.client import MediaPlayer, PlayerState
from ..web.http import VirtualNetwork


class CohortError(Exception):
    """Cohort lifecycle misuse."""


class CohortViewer:
    """N modeled viewers riding one delegate player.

    ``heartbeat_interval`` > 0 runs a *skippable* presence beacon — the
    kind of periodic per-viewer tick (liveness, telemetry) a real fleet
    would emit. It is scheduled with ``skippable_owner`` so
    :meth:`Simulator.fast_forward` can leap beacon-only windows after
    playback drains; leapt ticks still count via ``on_skip``.
    """

    def __init__(
        self,
        network: VirtualNetwork,
        host: str,
        url: str,
        *,
        size: int,
        tracer=None,
        render_ticker=None,
        recovery=None,
        directory=None,
        heartbeat_interval: float = 0.0,
    ) -> None:
        if size < 1:
            raise CohortError(f"cohort size must be >= 1, got {size}")
        self.network = network
        self.simulator: Simulator = network.simulator
        self.url = url
        self.size = size
        self.delegate = MediaPlayer(
            network,
            host,
            user=host,
            tracer=tracer,
            recovery=recovery,
            directory=directory,
            multiplicity=size,
            render_ticker=render_ticker,
        )
        self.splits: Dict[str, MediaPlayer] = {}
        self.departed: List[SessionQoE] = []
        #: beacon ticks x multiplicity accumulated (including leapt ones)
        self.beacons = 0
        self._heartbeat: Optional[PeriodicTask] = None
        self._heartbeat_interval = heartbeat_interval

    # ------------------------------------------------------------------

    @property
    def multiplicity(self) -> int:
        """Viewers still aggregated behind the delegate."""
        return self.delegate.multiplicity

    def start(self, *, start: float = 0.0) -> None:
        """Connect and play the delegate; arm the presence beacon."""
        self.delegate.connect(self.url)
        self.delegate.play(start=start)
        if self._heartbeat_interval > 0:
            self._heartbeat = PeriodicTask(
                self.simulator,
                self._heartbeat_interval,
                self._beat,
                skippable=True,
                on_skip=self._beats_skipped,
            )

    def _beat(self) -> None:
        self.beacons += self.delegate.multiplicity

    def _beats_skipped(self, ticks: int) -> None:
        # fast_forward leapt `ticks` beacon instants; account for them as
        # if each had fired against the current cohort size
        self.beacons += ticks * self.delegate.multiplicity

    # ------------------------------------------------------------------
    # de-aggregation
    # ------------------------------------------------------------------

    def split(
        self,
        member_host: str,
        *,
        user: str = "",
        seek_to: Optional[float] = None,
        render_ticker=None,
    ) -> MediaPlayer:
        """Peel one member out as a real, independent player."""
        twin = self.delegate.split_member(
            member_host, user=user, seek_to=seek_to,
            render_ticker=render_ticker,
        )
        self.splits[twin.user] = twin
        return twin

    def depart(self, *, user: str = "") -> Optional[SessionQoE]:
        """One member leaves early: snapshot its QoE, shrink the cohort.

        The leaver's experience up to this instant is exactly the
        delegate's, so the snapshot is honest without any divergent
        delivery. Departing the *last* member stops the delegate itself
        and returns None — the final member's QoE comes from
        :meth:`qoes` like every other delegate measurement.
        """
        if self.delegate.multiplicity <= 1:
            if self.delegate.state not in (
                PlayerState.FINISHED, PlayerState.IDLE
            ):
                self.delegate.stop()
            self.stop_heartbeat()
            return None
        report = self.delegate.report()
        qoe = SessionQoE.from_report(
            report,
            client=user or f"{self.delegate.user}#departed{len(self.departed)}",
            multiplicity=1,
        )
        self.departed.append(qoe)
        self.delegate.multiplicity -= 1
        return qoe

    # ------------------------------------------------------------------
    # teardown & reporting
    # ------------------------------------------------------------------

    def stop_heartbeat(self) -> None:
        if self._heartbeat is not None:
            self._heartbeat.stop()
            self._heartbeat = None

    def finished(self) -> bool:
        players = [self.delegate, *self.splits.values()]
        return all(p.state is PlayerState.FINISHED for p in players)

    def qoes(self, *, clean_media_bytes: int = 0) -> List[SessionQoE]:
        """Every modeled viewer's QoE: the delegate measurement weighted
        by the remaining cohort size, one entry per split twin, and the
        departure snapshots."""
        out: List[SessionQoE] = []
        if self.delegate.state is not PlayerState.IDLE:
            out.append(
                SessionQoE.from_report(
                    self.delegate.report(),
                    client=self.delegate.user,
                    clean_media_bytes=clean_media_bytes,
                    multiplicity=self.delegate.multiplicity,
                )
            )
        for name, twin in self.splits.items():
            out.append(
                SessionQoE.from_report(
                    twin.report(), client=name, multiplicity=1,
                )
            )
        out.extend(self.departed)
        return out
