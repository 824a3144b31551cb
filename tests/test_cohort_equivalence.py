"""Cohort-of-N delivery is indistinguishable from N independent clients.

The load harness's central claim: a :class:`MediaPlayer` opened with
``multiplicity=N`` (one cohort delegate) delivers, renders and measures
*exactly* what N independent clients would have — and when one member
individuates mid-run (a seek), :meth:`MediaPlayer.split_member` peels out
a twin whose delivery is byte-identical to the client that had been
independent all along.

Two worlds, same content, same link parameters, same edge tier:

* **baseline** — N real players, all joining within one ``join_quantum``
  over identical isolated links. Every ``play`` starts at once and the
  later ones join the first one's pacing group in progress, caught up on
  the trains they missed. The preroll is long enough that the whole wave
  has played before the group's first render, and the shared render
  ticker puts every player on the same absolute 50 ms grid. Together
  these make the N clients *exactly* interchangeable. One more player
  joins the group in progress *after* its first render: it receives and
  renders the same units at the same media positions, and starts no
  slower than the group did.
* **cohort** — one delegate with ``multiplicity=N`` joining in the same
  quantum; in the split scenario one member is peeled out with a seek at
  the same instant the baseline member seeks.

Comparisons are exact — no tolerances: delivered media units (stream,
object, timestamp, payload bytes), render wall times, fired script
commands, per-field QoE, weighted :class:`QoEAggregator` summaries, and
:class:`TraceChecker` verdicts on both traces.
"""

import pytest

from repro.asf import ASFEncoder, EncoderConfig, slide_commands
from repro.media import AudioObject, ImageObject, VideoObject, get_profile
from repro.media.clock import media_ms
from repro.net.engine import SharedTicker
from repro.obs import QoEAggregator, SessionQoE, TraceChecker, Tracer
from repro.streaming import (
    MediaPlayer,
    MediaServer,
    PlayerState,
    build_edge_tier,
)
from repro.web import VirtualNetwork

from tests.helpers import log_renders, rendered

N = 32
DURATION = 12.0
JOIN_AT = 1.0       # after prefetch; well inside the first quantum
QUANTUM = 8.0       # one merge window: the wave and the late member
PREROLL = 6.0       # the wave's serialized handshakes (~2.5 s) end before
                    # the group's first render (t≈5.0)
LATE_AT = 6.0       # after the group's first render, inside its quantum
SEEK_MEMBER = 5
SEEK_AT = 14.0      # mid-playback
SEEK_TO = 8.0       # content position sought to
BANDWIDTH = 2_000_000
DELAY = 0.02
MAX_EVENTS = 5_000_000


def make_asf():
    slides = 3
    per_slide = DURATION / slides
    return ASFEncoder(
        EncoderConfig(profile=get_profile("dsl-256k"))
    ).encode_file(
        file_id="lec",
        video=VideoObject("talk", DURATION, width=320, height=240, fps=10),
        audio=AudioObject("voice", DURATION),
        images=[
            (ImageObject(f"s{i}", per_slide, width=320, height=240),
             i * per_slide)
            for i in range(slides)
        ],
        commands=slide_commands(
            [(f"s{i}", i * per_slide) for i in range(slides)]
        ),
    )


def make_world(asf, hosts, tracer):
    """Origin + one pre-filled edge + identical per-viewer links."""
    net = VirtualNetwork()
    tracer.bind_clock(net.simulator)
    origin = MediaServer(
        net, "origin", port=8080, pacing_quantum=0.5, tracer=tracer,
    )
    origin.publish("lecture", asf)
    _, relays = build_edge_tier(
        net, origin, ["edge0"],
        pacing_quantum=0.5, join_quantum=QUANTUM, tracer=tracer,
    )
    relay = relays[0]
    relay.prefetch("lecture")
    for host in hosts:
        net.connect(relay.host, host, bandwidth=BANDWIDTH, delay=DELAY)
    ticker = SharedTicker(net.simulator, MediaPlayer.RENDER_TICK)
    return net, relay, ticker


def run_baseline(asf, *, seek=False, late=False):
    """N independent players, all joining within one quantum — plus,
    with ``late``, one more that joins the group after its first render
    (returned last, not among the N)."""
    tracer = Tracer("baseline")
    hosts = [f"c{i}" for i in range(N)] + (["late"] if late else [])
    net, relay, ticker = make_world(asf, hosts, tracer)
    players = [
        log_renders(MediaPlayer(net, host, user=host, tracer=tracer,
                                render_ticker=ticker, preroll_override=PREROLL))
        for host in hosts
    ]

    def join(player):
        player.connect(relay.url_of("lecture"))
        player.play()

    for player in players[:N]:
        net.simulator.schedule_at(JOIN_AT, lambda p=player: join(p))
    if late:
        net.simulator.schedule_at(LATE_AT, lambda: join(players[N]))
    if seek:
        net.simulator.schedule_at(
            SEEK_AT, lambda: players[SEEK_MEMBER].seek(SEEK_TO)
        )
    net.simulator.run(max_events=MAX_EVENTS)
    assert all(p.state is PlayerState.FINISHED for p in players)
    return tracer, relay, players


def run_cohort(asf, *, seek=False):
    """One delegate standing for N viewers; optionally split one out."""
    tracer = Tracer("cohort")
    hosts = ["cohort"] + (["member"] if seek else [])
    net, relay, ticker = make_world(asf, hosts, tracer)
    delegate = log_renders(MediaPlayer(
        net, "cohort", user="cohort", tracer=tracer,
        multiplicity=N, render_ticker=ticker, preroll_override=PREROLL,
    ))
    twins = []

    def join():
        delegate.connect(relay.url_of("lecture"))
        delegate.play()

    net.simulator.schedule_at(JOIN_AT, join)
    if seek:
        net.simulator.schedule_at(
            SEEK_AT,
            lambda: twins.append(
                delegate.split_member("member", user="member",
                                      seek_to=SEEK_TO)
            ),
        )
    net.simulator.run(max_events=MAX_EVENTS)
    assert delegate.state is PlayerState.FINISHED
    assert all(t.state is PlayerState.FINISHED for t in twins)
    return tracer, relay, delegate, twins


def delivered_units(report):
    """Rendered media content, timing-free: the exact (stream, object,
    timestamp, payload) sequence handed to the renderer."""
    return [r.unit for r in rendered(report)]


def fired_content(report):
    return [(c.command.type, c.command.parameter) for c in report.commands]


def assert_reports_identical(a, b, *, timing=True):
    """Every QoE-relevant field of two playback reports, exactly equal.

    ``timing=False`` drops render wall-times from the comparison — a
    split twin replays its seek from a freshly opened session, whose
    handshake shifts *when* the replayed units render but not *what* is
    delivered or any QoE field.
    """
    assert a.media_bytes == b.media_bytes
    assert a.startup_latency == b.startup_latency
    assert a.rebuffer_count == b.rebuffer_count
    assert a.rebuffer_time == b.rebuffer_time
    assert a.duration_watched == b.duration_watched
    assert a.downshifts == b.downshifts
    assert delivered_units(a) == delivered_units(b)
    assert fired_content(a) == fired_content(b)
    if timing:
        assert (
            [(r.wall_time, r.position) for r in rendered(a)]
            == [(r.wall_time, r.position) for r in rendered(b)]
        )
        assert a.digest == b.digest


def weighted_summary(aggregator):
    """Aggregator summary minus the session count — a cohort run folds
    the same viewer population through fewer sessions by design."""
    out = aggregator.summary()
    out.pop("sessions")
    return out


class TestPureCohortEquivalence:
    """No individuation: 1 delegate xN == N independent clients."""

    @pytest.fixture(scope="class")
    def runs(self):
        asf = make_asf()
        tracer, relay, players = run_baseline(asf, late=True)
        cohort = run_cohort(asf)
        return (tracer, relay, players[:N], players[N]), cohort

    def test_byte_identical_delivery(self, runs):
        (_, _, players, _), (_, _, delegate, _) = runs
        reference = delegate.report()
        assert reference.media_bytes > 0
        for player in players:
            assert_reports_identical(player.report(), reference)

    def test_late_member_merges_by_catch_up(self, runs):
        (_, relay, players, late), (_, _, delegate, _) = runs
        reference = delegate.report()
        report = late.report()
        # it joined the wave's group in progress, after its first render
        assert late._connect_time == LATE_AT > delegate._first_render
        assert relay.sessions.total_created == N + 1
        assert report.media_bytes == reference.media_bytes
        assert delivered_units(report) == delivered_units(reference)
        # the same 50 ms grid from a later clock start: equal positions,
        # up to the float rounding of that start
        assert [r.position for r in rendered(report)] == pytest.approx(
            [r.position for r in rendered(reference)], abs=1e-9
        )
        assert report.rebuffer_count == 0
        # the catch-up leaves at link rate: it starts no slower than the
        # group's first member did
        assert report.startup_latency <= reference.startup_latency

    def test_qoe_aggregates_identical(self, runs):
        (_, _, players, _), (_, _, delegate, _) = runs
        baseline_agg = QoEAggregator()
        for player in players:
            baseline_agg.add(
                SessionQoE.from_report(player.report(), client=player.user)
            )
        cohort_agg = QoEAggregator()
        cohort_agg.add(
            SessionQoE.from_report(
                delegate.report(), client="cohort", multiplicity=N
            )
        )
        assert baseline_agg.viewers == cohort_agg.viewers == N
        assert weighted_summary(baseline_agg) == weighted_summary(cohort_agg)

    def test_traces_pass_and_audience_is_recorded(self, runs):
        (baseline_tracer, _, _, _), (cohort_tracer, _, _, _) = runs
        TraceChecker(baseline_tracer.records).assert_ok()
        TraceChecker(cohort_tracer.records).assert_ok()
        # the whole audience rode one session, and the trace says so
        opens = [
            e for e in cohort_tracer.events("session.open")
            if e["attrs"].get("multiplicity")
        ]
        assert len(opens) == 1
        assert opens[0]["attrs"]["multiplicity"] == N

    def test_edge_egress_shrinks_by_exactly_n(self, runs):
        # the late member is sent exactly one viewer's bytes too: its
        # catch-up neither repeats nor skips a packet
        (_, baseline_relay, _, _), (_, cohort_relay, _, _) = runs
        assert baseline_relay.bytes_served == (N + 1) * cohort_relay.bytes_served


class TestSplitSeekEquivalence:
    """Mid-run individuation: member 5 seeks at t=14. Baseline seeks a
    real client in place; the cohort splits a twin out with the same
    seek. Delivery and QoE must match exactly on both sides."""

    @pytest.fixture(scope="class")
    def runs(self):
        asf = make_asf()
        baseline = run_baseline(asf, seek=True)
        cohort = run_cohort(asf, seek=True)
        return baseline, cohort

    def test_seeker_and_twin_byte_identical(self, runs):
        (_, _, players), (_, _, _, twins) = runs
        assert len(twins) == 1
        assert_reports_identical(
            players[SEEK_MEMBER].report(), twins[0].report(), timing=False
        )

    def test_nonseekers_match_the_delegate(self, runs):
        # timing=False: the seeker's replay stream re-merges into the
        # shared pacing group at a different phase in the two worlds
        # (immediate in-session seek vs a twin restarted after its open
        # handshake), which re-times late trains without changing what is
        # delivered
        (_, _, players), (_, _, delegate, _) = runs
        assert delegate.multiplicity == N - 1
        reference = delegate.report()
        for i, player in enumerate(players):
            if i != SEEK_MEMBER:
                assert_reports_identical(player.report(), reference,
                                         timing=False)

    def test_seek_changed_the_byte_count(self, runs):
        # guard against a vacuous pass: the forward seek must actually
        # have altered delivery relative to a straight-through watch
        (_, _, players), _ = runs
        straight = players[0].report().media_bytes
        sought = players[SEEK_MEMBER].report().media_bytes
        assert sought != straight

    def test_qoe_aggregates_identical(self, runs):
        (_, _, players), (_, _, delegate, twins) = runs
        baseline_agg = QoEAggregator()
        for player in players:
            baseline_agg.add(
                SessionQoE.from_report(player.report(), client=player.user)
            )
        cohort_agg = QoEAggregator()
        cohort_agg.add(
            SessionQoE.from_report(
                delegate.report(), client="cohort", multiplicity=N - 1
            )
        )
        cohort_agg.add(
            SessionQoE.from_report(twins[0].report(), client="member")
        )
        assert baseline_agg.viewers == cohort_agg.viewers == N
        assert weighted_summary(baseline_agg) == weighted_summary(cohort_agg)

    def test_traces_pass_checker(self, runs):
        (baseline_tracer, _, _), (cohort_tracer, _, _, _) = runs
        TraceChecker(baseline_tracer.records).assert_ok()
        TraceChecker(cohort_tracer.records).assert_ok()
        splits = cohort_tracer.events("playback.split")
        assert len(splits) == 1
        assert splits[0]["attrs"]["remaining"] == N - 1


class TestSplitSharesUnits:
    """A twin clones the delegate's receive state without rebuilding it:
    media units are frozen, so both buffers hold the very same objects,
    while the containers stay private to each player."""

    def test_twin_shares_completed_units_but_not_its_buffer(self):
        tracer = Tracer("split")
        net, relay, ticker = make_world(make_asf(), ["cohort", "member"], tracer)
        delegate = MediaPlayer(
            net, "cohort", user="cohort", tracer=tracer,
            multiplicity=2, render_ticker=ticker,
        )
        delegate.connect(relay.url_of("lecture"))
        delegate.play()
        net.simulator.run_until(QUANTUM + 2.0)  # mid-playback
        delegate.report()  # settles the instants the delegate slept through
        completed = delegate._buffer._units[delegate._buffer._head:]
        assert completed
        twin = delegate.split_member("member", user="member")
        shared = twin._buffer._units[twin._buffer._head:]
        assert len(shared) == len(completed)
        assert all(a is b for a, b in zip(shared, completed))
        # the buffers are separate containers of the shared units
        before = (len(delegate._buffer), dict(delegate._buffer.horizon_ms))
        twin._buffer.push(completed[-1])
        twin._buffer.pop_due_ms(media_ms(DURATION))
        assert len(twin._buffer) == 0
        assert (len(delegate._buffer), delegate._buffer.horizon_ms) == before
        assert len(delegate._buffer) > 0
