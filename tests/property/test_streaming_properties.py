"""Property-based tests: end-to-end streaming invariants under random
network conditions.

Whatever the link does (loss, jitter, constrained bandwidth), the player
must uphold:

* rendered units are non-decreasing in timestamp per stream;
* fired commands are non-decreasing in commanded timestamp;
* the playback position never exceeds the content duration (plus a tick);
* rebuffer accounting is consistent (count 0 ⇔ time 0);
* no unit is rendered before the playback clock reached its timestamp.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lod import Lecture, MediaStore, WebPublishingManager
from repro.streaming import MediaPlayer, MediaServer, PlayerError
from repro.web import VirtualNetwork
from tests.helpers import log_renders, rendered


def run_playback(seed: int, loss: float, jitter: float, bandwidth: float):
    lecture = Lecture.from_slide_durations(
        "prop", "P", [8.0, 8.0], slide_width=160, slide_height=120,
    )
    net = VirtualNetwork()
    net.connect(
        "server", "student", bandwidth=bandwidth, delay=0.03,
        jitter=jitter, loss_rate=loss, queue_limit=10_000,
    )
    # reseed the lossy direction for variety
    net.link("server", "student").rng.seed(seed)
    server = MediaServer(net, "server", port=8080)
    store = MediaStore()
    store.register_lecture("/v", "/s", lecture)
    record = WebPublishingManager(server, store).publish(
        video_path="/v", slide_dir="/s", point="prop"
    )
    player = log_renders(MediaPlayer(net, "student"))
    try:
        report = player.watch(record.url)
    except PlayerError:
        return None, lecture
    return report, lecture


conditions = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.sampled_from([0.0, 0.01, 0.05]),  # loss
    st.sampled_from([0.0, 0.01]),  # jitter
    st.sampled_from([400_000.0, 1_000_000.0]),  # bandwidth
)


@settings(deadline=None, max_examples=12)
@given(conditions)
def test_rendered_timestamps_monotone_per_stream(params):
    report, _ = run_playback(*params)
    if report is None:
        return
    last = {}
    for r in rendered(report):
        stream = r.unit.stream_number
        assert r.unit.timestamp_ms >= last.get(stream, -1)
        last[stream] = r.unit.timestamp_ms


@settings(deadline=None, max_examples=12)
@given(conditions)
def test_commands_fire_in_order(params):
    report, _ = run_playback(*params)
    if report is None:
        return
    times = [c.command.timestamp_ms for c in report.commands]
    assert times == sorted(times)


@settings(deadline=None, max_examples=12)
@given(conditions)
def test_position_bounded_by_duration(params):
    report, lecture = run_playback(*params)
    if report is None:
        return
    assert report.duration_watched <= lecture.duration + 2 * MediaPlayer.RENDER_TICK


@settings(deadline=None, max_examples=12)
@given(conditions)
def test_rebuffer_accounting_consistent(params):
    report, _ = run_playback(*params)
    if report is None:
        return
    if report.rebuffer_count == 0:
        assert report.rebuffer_time == 0.0
    else:
        assert report.rebuffer_time > 0.0


@settings(deadline=None, max_examples=12)
@given(conditions)
def test_units_rendered_at_or_after_their_timestamp(params):
    report, _ = run_playback(*params)
    if report is None:
        return
    for r in rendered(report):
        assert r.position >= r.unit.timestamp - 1e-9
