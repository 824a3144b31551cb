"""A report is a fold: what a player keeps of its playback is fixed-size.

A player folds every unit it renders into a :class:`RenderDigest` (a
count, the first and last render, a running hash) instead of keeping a
log, and its depacketizer counts completed objects into runs instead of
keeping every unit. These tests check that the digest sees what a log
would (a unit rendered one instant late changes it), and that what an
untraced player holds of its history does not grow with the units it
rendered. Digests are compared between runs of one interpreter only: the
hash of a tuple is not the same on every Python version.
"""

import inspect
import tracemalloc

from repro.asf import packets
from repro.load import encode_lecture
from repro.media import clock
from repro.obs import Tracer
from repro.streaming import MediaPlayer, MediaServer, RenderDigest, client
from repro.streaming.buffer import JitterBuffer
from repro.web import VirtualNetwork

from tests.test_reassembly_sharing import make_asf


def _lines(obj):
    source, start = inspect.getsourcelines(obj)
    return range(start, start + len(source))


def _history_held(snapshot):
    """Bytes of ``snapshot`` allocated by the player's render and receive
    history: lines of the player's module and the clock's, and of the
    depacketizer and its object runs."""
    receive = [_lines(packets.Depacketizer), _lines(packets._cover),
               _lines(packets._DoneKeys)]
    held = 0
    for stat in snapshot.statistics("lineno"):
        frame = stat.traceback[0]
        if frame.filename in (client.__file__, clock.__file__) or (
            frame.filename == packets.__file__
            and any(frame.lineno in lines for lines in receive)
        ):
            held += stat.size
    return held


def held_history_bytes(seconds=20.0):
    """``(bytes, units)``: what an untraced player that watched a
    ``seconds`` ``lan-1m`` lecture to its end still holds of its render
    and receive history (allocations traced from before it played), and
    how many units it rendered."""
    asf = encode_lecture("lec", seconds, profile="lan-1m")
    net = VirtualNetwork()
    net.connect("server", "student", bandwidth=10_000_000, delay=0.02)
    server = MediaServer(net, "server", port=8080)
    server.publish("lecture", asf)
    player = MediaPlayer(net, "student")
    tracemalloc.start()
    try:
        player.watch(server.url_of("lecture"))
        held = _history_held(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
    return held, player.report().digest.count


def test_an_untraced_player_holds_no_history_per_unit():
    """Three times the lecture, the same history held: the difference is
    less than one list slot per extra unit rendered (a render log held
    about 80 bytes per unit, a list of the units 8)."""
    short, short_units = held_history_bytes(20.0)
    long, long_units = held_history_bytes(60.0)
    extra = long_units - short_units
    assert extra >= short_units > 0
    assert long - short < 8 * extra


class LateByOneInstant(JitterBuffer):
    """Hands its ``nth`` due unit to the renderer one pop late: with a
    traced player, which pops at every render instant, one instant late."""

    def __init__(self, nth):
        super().__init__()
        self.nth = nth
        self.held = None

    def pop_due_ms(self, due_ms):
        out = super().pop_due_ms(due_ms)
        if self.held is not None:
            out.insert(0, self.held)
            self.held = None
        elif self.nth is not None and self.popped > self.nth:
            self.held = out.pop(self.nth - (self.popped - len(out)))
            self.nth = None
        return out


def watch(*, late=None, traced=True):
    net = VirtualNetwork()
    net.connect("server", "student", bandwidth=4_000_000, delay=0.02)
    server = MediaServer(net, "server", port=8080)
    server.publish("lecture", make_asf())
    tracer = None
    if traced:
        tracer = Tracer("digest")
        tracer.bind_clock(net.simulator)
    player = MediaPlayer(net, "student", tracer=tracer)
    if late is not None:
        player._buffer = LateByOneInstant(late)
    return player.watch(server.url_of("lecture")), tracer


def test_rendering_one_unit_one_instant_late_changes_the_digest():
    honest, honest_trace = watch()
    assert watch(traced=False)[0].digest == honest.digest
    mutant, mutant_trace = watch(late=40)
    assert mutant.digest != honest.digest
    # the same units, the same first and last render: only the fold sees it
    assert mutant.digest.count == honest.digest.count > 40
    assert (mutant.digest.first, mutant.digest.last) == (
        honest.digest.first, honest.digest.last
    )

    def renders(tracer):
        return [(r["t"], r["attrs"]["ts"]) for r in tracer.events("render.unit")]

    moved = [
        pair for pair in zip(renders(honest_trace), renders(mutant_trace))
        if pair[0] != pair[1]
    ]
    assert moved and len(renders(mutant_trace)) == honest.digest.count


def test_a_copy_is_equal_and_folds_on_its_own():
    unit = packets.MediaUnit(1, 0, 0, True, b"x")
    digest = RenderDigest()
    digest.add(0.05, 0.0, unit)
    copy = digest.copy()
    assert copy == digest and copy is not digest
    copy.add(0.10, 0.05, unit)
    assert copy != digest
    assert (digest.count, copy.count) == (1, 2)
    assert copy.first == digest.first == (0.05, 0)
    assert copy.last == (0.10, 0)
