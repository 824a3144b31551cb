"""Property-based robustness: random pause/resume/seek workloads on streams.

Whatever legal interaction sequence a student throws at the player, the
stream must complete, the state machine must never corrupt, and every
post-seek position must land where asked.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.lod import (
    InteractionScript,
    Lecture,
    MediaStore,
    ScriptedAction,
    WebPublishingManager,
    apply_to_stream,
)
from repro.streaming import MediaPlayer
from repro.web import VirtualNetwork

DURATION = 30.0

#: seeds whose scripted action lost a race with the end of content: the
#: render ticks inside its control round trip finished playback first
END_OF_CONTENT_RACES = (517, 2316, 4850, 5674, 5897, 6278, 9084, 9182, 9751)


def with_end_of_content_races(test):
    for seed in END_OF_CONTENT_RACES:
        test = example(seed)(test)
    return test


def random_stream_script(seed: int) -> InteractionScript:
    """Pause/resume pairs and seeks at random times (stream-legal only)."""
    rng = random.Random(seed)
    actions = []
    t = 1.0
    paused = False
    for _ in range(rng.randint(1, 6)):
        t += rng.uniform(0.5, 5.0)
        if paused:
            actions.append(ScriptedAction(round(t, 2), "resume"))
            paused = False
        else:
            kind = rng.choice(["pause", "seek"])
            if kind == "pause":
                actions.append(ScriptedAction(round(t, 2), "pause"))
                paused = True
            else:
                target = round(rng.uniform(0.0, DURATION - 2.0), 1)
                actions.append(ScriptedAction(round(t, 2), "seek", target))
    return InteractionScript(actions)


def world():
    lecture = Lecture.from_slide_durations(
        "R", "P", [10.0, 10.0, 10.0], slide_width=160, slide_height=120,
    )
    net = VirtualNetwork()
    net.connect("server", "student", bandwidth=2e6, delay=0.02)
    server_store = MediaStore()
    server_store.register_lecture("/v", "/s", lecture)
    from repro.streaming import MediaServer

    server = MediaServer(net, "server", port=8080)
    record = WebPublishingManager(server, server_store).publish(
        video_path="/v", slide_dir="/s", point="r"
    )
    return net, record


@settings(deadline=None, max_examples=10)
@given(st.integers(min_value=0, max_value=10_000))
@with_end_of_content_races
def test_random_interactions_complete(seed):
    net, record = world()
    script = random_stream_script(seed)
    player = MediaPlayer(net, "student")
    result = apply_to_stream(net, player, record.url, script)
    assert result.rejected == 0  # every scripted action was state-legal
    assert result.report.duration_watched == pytest.approx(DURATION, abs=0.3)


@settings(deadline=None, max_examples=10)
@given(st.integers(min_value=0, max_value=10_000))
@with_end_of_content_races
def test_slides_always_end_on_last(seed):
    net, record = world()
    script = random_stream_script(seed)
    player = MediaPlayer(net, "student")
    result = apply_to_stream(net, player, record.url, script)
    slides = [c.command.parameter for c in result.report.slide_changes()]
    assert slides, "at least one slide fires"
    assert slides[-1] == "slide2"  # playback always reaches the end


@settings(deadline=None, max_examples=10)
@given(st.integers(min_value=0, max_value=10_000))
@with_end_of_content_races
def test_rendered_positions_within_content(seed):
    net, record = world()
    script = random_stream_script(seed)
    player = MediaPlayer(net, "student")
    result = apply_to_stream(net, player, record.url, script)
    for rendered in result.report.rendered:
        assert -1e-9 <= rendered.unit.timestamp <= DURATION
