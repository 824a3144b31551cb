"""A sleeping player renders what a ticking one renders.

An untraced :class:`MediaPlayer` skips the render instants at which its
tick could do nothing but render due units, and settles them — each unit
at the instant whose playhead first reached it — before anything can see
or change its render state. A traced player ticks at every instant. Here
both play the same lecture from a cohort delegate over a lossy link with
NAK repairs — a long path and a short preroll, so some repairs land after
their unit was due — under a generated script of seeks,
pauses, resumes, stops and member splits at instants on the 50 ms render
grid, off it, and equal to a delivery; every report must be equal, and so
must the simulator's event count.
"""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro.asf import ASFEncoder, EncoderConfig, slide_commands
from repro.media import AudioObject, ImageObject, VideoObject, get_profile
from repro.net import GilbertElliott
from repro.net.engine import SharedTicker
from repro.obs import Tracer
from repro.streaming import (
    MediaPlayer,
    MediaServer,
    PlayerError,
    PlayerState,
    RecoveryConfig,
)
from repro.web import VirtualNetwork

from tests.helpers import log_renders, rendered

DURATION = 10.0
SLIDES = 4
MEMBERS = ("m0", "m1", "m2")
HORIZON = 40.0


@lru_cache(maxsize=None)
def lecture():
    per_slide = DURATION / SLIDES
    return ASFEncoder(EncoderConfig(profile=get_profile("dsl-256k"))).encode_file(
        file_id="lec",
        video=VideoObject("talk", DURATION, width=320, height=240, fps=10),
        audio=AudioObject("voice", DURATION),
        images=[
            (ImageObject(f"s{i}", per_slide, width=320, height=240), i * per_slide)
            for i in range(SLIDES)
        ],
        commands=slide_commands([(f"s{i}", i * per_slide) for i in range(SLIDES)]),
    )


def play(script, *, traced, loss_seed, on_train=None, log=False):
    """Play ``script`` (``(time, action, argument)`` triples) on a cohort
    delegate; returns every player's report and the event count. ``log``
    gives the delegate a :class:`~tests.helpers.RenderLog`."""
    net = VirtualNetwork()
    sim = net.simulator
    tracer = None
    if traced:
        tracer = Tracer("render")
        tracer.bind_clock(sim)
    for host in ("cohort", *MEMBERS):
        net.connect("server", host, bandwidth=1_500_000, delay=0.2)
    link = net.link("server", "cohort")
    link.rng.seed(loss_seed)
    link.set_loss(burst_loss=GilbertElliott.from_average(0.05, mean_burst=4.0))
    server = MediaServer(net, "server", port=8080)
    server.publish("lecture", lecture())
    ticker = SharedTicker(sim, MediaPlayer.RENDER_TICK)
    delegate = MediaPlayer(
        net, "cohort", tracer=tracer, multiplicity=len(MEMBERS) + 1,
        recovery=RecoveryConfig(), render_ticker=ticker, preroll_override=0.6,
    )
    if log:
        log_renders(delegate)
    if on_train is not None:
        receive = delegate._on_train

        def noted(packets):
            on_train(sim.now)
            receive(packets)

        delegate._on_train = noted
    players = [delegate]
    members = iter(MEMBERS)

    def act(action, argument):
        try:
            if action == "seek":
                delegate.seek(argument)
            elif action == "split":
                host = next(members, None)
                if host is not None:
                    players.append(
                        delegate.split_member(host, user=host, seek_to=argument)
                    )
            else:
                getattr(delegate, action)()
        except PlayerError:
            pass  # not legal in the state the player is in: both agree

    delegate.connect(server.url_of("lecture"))
    delegate.play()
    for when, action, argument in script:
        if when >= sim.now:  # the same instants in both runs
            sim.schedule_at(when, lambda a=action, x=argument: act(a, x))
    sim.run_until(HORIZON)
    for player in players:
        if player.state is not PlayerState.FINISHED:
            player.stop()
    sim.run_until(HORIZON + 5.0)
    return [player.report() for player in players], sim.events_processed


@lru_cache(maxsize=None)
def deliveries(loss_seed):
    """Instants at which the delegate receives a train, unscripted."""
    seen = []
    play((), traced=False, loss_seed=loss_seed, on_train=seen.append)
    return tuple(seen)


GRID = MediaPlayer.RENDER_TICK
instant = st.one_of(
    # on the 50 ms render grid (the ticker's epoch is 0)
    st.integers(min_value=1, max_value=int(25 / GRID)).map(lambda n: n * GRID),
    # anywhere, off the grid
    st.floats(min_value=0.1, max_value=25.0, allow_nan=False),
    # a delivery instant: the control lands on a train's arrival
    st.integers(min_value=0, max_value=10_000).map(
        lambda i: ("delivery", i)
    ),
)
position = st.floats(min_value=0.0, max_value=DURATION - 0.5, allow_nan=False)
action = st.one_of(
    st.tuples(st.just("seek"), position),
    st.tuples(st.sampled_from(("pause", "resume", "stop")), st.none()),
    st.tuples(st.just("split"), st.one_of(st.none(), position)),
)


@settings(deadline=None, max_examples=25)
@given(
    st.lists(st.tuples(instant, action), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=3),
)
def test_an_untraced_player_reports_what_a_traced_twin_reports(steps, loss):
    loss_seed = 1000 + loss
    arrivals = deliveries(loss_seed)
    script = []
    for when, (name, argument) in steps:
        if isinstance(when, tuple):
            when = arrivals[when[1] % len(arrivals)]
        script.append((when, name, argument))
    untraced = play(script, traced=False, loss_seed=loss_seed)
    traced = play(script, traced=True, loss_seed=loss_seed)
    assert untraced == traced


def test_the_lossy_link_repairs_units_late():
    """The unscripted playbacks the scripts perturb have NAK repairs, and
    some unit is rendered more than a tick after it was due: it arrived
    late, while the player was asleep."""
    late = 0
    for loss in range(4):
        (report,), _ = play((), traced=False, loss_seed=1000 + loss, log=True)
        assert report.recovery.get("repairs_received", 0) >= 1
        late += sum(
            r.position - r.unit.timestamp_ms / 1000.0 > MediaPlayer.RENDER_TICK
            for r in rendered(report)
        )
    assert late
