"""A user control's client side checks what its round trip found.

``pause``, ``resume`` and ``seek`` wait for the server's reply, and the
event loop runs meanwhile: another control due at the same instant, a
rebuffer, a reconnect or the end of playback can come first. One user
control is in flight at a time (a second one raises ``PlayerError``), and
a control applies its client side only to the session it reached: one a
reconnect replaced is moot (``PlayerError``). Either way the server's
session and the client agree afterwards on whether delivery is paused.

The two reproductions play the lossy lecture of
``tests/property/test_sleeping_render_properties.py`` at loss seed 1000:
a seek due inside a pause's round trip, and a pause whose reply lands
after the stall watchdog reconnected.
"""

import itertools

import pytest

from repro.net import GilbertElliott
from repro.net.engine import SharedTicker
from repro.obs import Tracer
from repro.streaming import (
    MediaPlayer,
    MediaServer,
    PlayerError,
    PlayerState,
    RecoveryConfig,
    SessionState,
)
from repro.web import VirtualNetwork

from tests.property.test_sleeping_render_properties import lecture

LOSS_SEED = 1000


class World:
    """The property test's lossy world: one cohort delegate, its server."""

    def __init__(self, *, traced):
        self.net = VirtualNetwork()
        self.sim = self.net.simulator
        tracer = None
        if traced:
            tracer = Tracer("races")
            tracer.bind_clock(self.sim)
        for host in ("cohort", "m0"):
            self.net.connect("server", host, bandwidth=1_500_000, delay=0.2)
        link = self.net.link("server", "cohort")
        link.rng.seed(LOSS_SEED)
        link.set_loss(burst_loss=GilbertElliott.from_average(0.05, mean_burst=4.0))
        self.server = MediaServer(self.net, "server", port=8080)
        self.server.publish("lecture", lecture())
        self.player = MediaPlayer(
            self.net, "cohort", tracer=tracer, multiplicity=2,
            recovery=RecoveryConfig(), preroll_override=0.6,
            render_ticker=SharedTicker(self.sim, MediaPlayer.RENDER_TICK),
        )
        self.rejected = []
        self.player.connect(self.server.url_of("lecture"))
        self.player.play()

    def at(self, when, action, argument=None):
        """Run a control at ``when``; a ``PlayerError`` is noted, anything
        else escapes."""

        def run():
            player = self.player
            try:
                if action == "seek":
                    player.seek(argument)
                elif action == "split":
                    player.split_member("m0", user="m0", seek_to=argument)
                else:
                    getattr(player, action)()
            except PlayerError as exc:
                self.rejected.append((action, str(exc)))

        self.sim.schedule_at(when, run)

    def agree(self):
        """The server's session is paused exactly when the client is (a
        session that delivered everything has nothing left to pause)."""
        player = self.player
        if player.state is PlayerState.FINISHED or player.session_id is None:
            return True
        session = self.server.sessions.get(player.session_id)
        if session.state is SessionState.FINISHED:
            return True
        return (player.state is PlayerState.PAUSED) == (
            session.state is SessionState.PAUSED
        )

    def finish(self):
        self.sim.run_until(40.0)
        if self.player.state is not PlayerState.FINISHED:
            self.player.stop()
        self.sim.run_until(45.0)
        return self.player.report()


@pytest.mark.parametrize("traced", [False, True])
def test_a_seek_due_inside_a_pause_round_trip_is_refused(traced):
    world = World(traced=traced)
    world.at(2.0, "pause")
    world.at(2.0, "seek", 0.0)
    world.sim.run_until(3.0)
    assert world.rejected == [("seek", "cannot seek: a control is in flight")]
    assert world.player.state is PlayerState.PAUSED
    assert world.agree()
    world.at(4.0, "resume")
    report = world.finish()
    assert world.rejected == [("seek", "cannot seek: a control is in flight")]
    assert report.duration_watched == pytest.approx(10.0, abs=0.1)


@pytest.mark.parametrize("traced", [False, True])
def test_a_pause_a_reconnect_overtook_is_moot(traced):
    world = World(traced=traced)
    world.at(7.9, "pause")
    world.sim.run_until(14.0)
    # the reply came after the watchdog had reopened the session: the new
    # one delivers, and the client is not paused
    assert world.rejected == [
        ("pause", "pause overtaken: a reconnect replaced its session")
    ]
    assert world.player.state is not PlayerState.PAUSED
    assert world.player.recovery_stats.as_dict()["reconnects"] >= 1
    assert world.agree()
    report = world.finish()
    assert report.duration_watched == pytest.approx(10.0, abs=0.1)


CONTROLS = (
    ("pause", None), ("resume", None), ("seek", 3.0), ("stop", None),
    ("split", None), ("split", 6.0),
)


@pytest.mark.parametrize("when", [2.0, 7.9])
@pytest.mark.parametrize(
    "first, second", list(itertools.product(CONTROLS, repeat=2)),
    ids=lambda c: "-".join(str(x) for x in c if x is not None),
)
def test_two_controls_due_at_one_instant_leave_both_sides_agreed(
    first, second, when
):
    """Each public control with a second one due at the same instant, at
    an instant with a quick round trip and at one a reconnect overtakes:
    only ``PlayerError`` escapes, and the sides agree afterwards."""
    world = World(traced=False)
    world.at(when, *first)
    world.at(when, *second)
    world.sim.run_until(when + 6.0)
    assert world.agree()
    world.finish()
    assert world.agree()


def test_a_pause_a_rebuffer_overtook_resumes_the_session():
    """On a link slower than the lecture, the playhead runs out during the
    pause's round trip: a buffering player does not pause, so the session
    the pause reached streams again."""
    net = VirtualNetwork()
    net.connect("server", "student", bandwidth=200_000, delay=0.2)
    server = MediaServer(net, "server", port=8080)
    server.publish("lecture", lecture())
    player = MediaPlayer(net, "student", preroll_override=0.6)
    player.connect(server.url_of("lecture"))
    player.play()
    net.simulator.run_until(3.3)
    with pytest.raises(PlayerError, match="began buffering"):
        player.pause()
    assert player.rebuffer_count == 1
    assert player.state is not PlayerState.PAUSED
    session = server.sessions.get(player.session_id)
    assert session.state is SessionState.STREAMING
    report = player.run_until_finished()
    assert report.duration_watched == pytest.approx(10.0, abs=0.1)
