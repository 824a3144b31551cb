"""Unit tests for repro.obs: Tracer, TraceChecker, Histogram, QoE.

Also covers the integer-millisecond boundary fix in the jitter buffer and
the script-command dispatcher (``media_ms``), since the trace checker's render-monotonicity invariant
leans on the same timestamp discipline.
"""

import json

import pytest

from repro.asf.packets import MediaUnit
from repro.asf.script_commands import ScriptCommand, ScriptCommandDispatcher
from repro.metrics import Histogram
from repro.obs import (
    QoEAggregator,
    SessionQoE,
    TraceChecker,
    TraceError,
    TraceViolation,
    Tracer,
    load_jsonl,
)
from repro.streaming.buffer import JitterBuffer, media_ms


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now


class TestTracer:
    def test_records_are_seq_ordered_and_timestamped(self):
        clock = FakeClock()
        tracer = Tracer("t", clock=clock)
        tracer.event("a")
        clock.now = 1.5
        tracer.event("b", detail=7)
        seqs = [r["seq"] for r in tracer.records]
        assert seqs == sorted(seqs) == [1, 2]
        assert tracer.records[0]["t"] == 0.0
        assert tracer.records[1]["t"] == 1.5
        assert tracer.records[1]["attrs"] == {"detail": 7}

    def test_clock_variants(self):
        assert Tracer(clock=None).records == []
        t1 = Tracer(clock=FakeClock(2.0))
        t1.event("x")
        assert t1.records[0]["t"] == 2.0
        t2 = Tracer(clock=lambda: 3.0)
        t2.event("x")
        assert t2.records[0]["t"] == 3.0
        with pytest.raises(TraceError):
            Tracer(clock=object())

    def test_bind_clock_rebases_later_records_only(self):
        tracer = Tracer()
        tracer.event("before")
        tracer.bind_clock(FakeClock(9.0))
        tracer.event("after")
        assert tracer.records[0]["t"] == 0.0
        assert tracer.records[1]["t"] == 9.0

    def test_spans_nest_and_close(self):
        tracer = Tracer()
        outer = tracer.begin("outer")
        inner = tracer.begin("inner", parent=outer)
        assert tracer.open_spans() == {outer: "outer", inner: "inner"}
        tracer.end(inner, result=1)
        tracer.end(outer)
        assert tracer.open_spans() == {}
        begin = tracer.events("inner")[0]
        assert begin["kind"] == "begin" and begin["parent"] == outer
        assert tracer.events("inner")[1]["attrs"] == {"result": 1}

    def test_end_of_unknown_span_raises(self):
        tracer = Tracer()
        span = tracer.begin("s")
        tracer.end(span)
        with pytest.raises(TraceError):
            tracer.end(span)

    def test_span_context_manager(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            tracer.event("step", span=span)
        kinds = [r["kind"] for r in tracer.records]
        assert kinds == ["begin", "event", "end"]
        assert tracer.open_spans() == {}

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("run", n=2):
            tracer.event("hit", value=1.5)
        reloaded = load_jsonl(tracer.to_jsonl())
        assert reloaded == tracer.records
        path = tmp_path / "trace.jsonl"
        assert tracer.write_jsonl(str(path)) == 3
        assert load_jsonl(path.read_text()) == tracer.records

    def test_non_json_attrs_degrade_to_repr(self):
        tracer = Tracer()
        tracer.event("odd", payload=frozenset([1]))
        line = tracer.to_jsonl()
        assert json.loads(line)["attrs"]["payload"] == repr(frozenset([1]))

    def test_clear(self):
        tracer = Tracer()
        tracer.begin("s")
        tracer.clear()
        assert len(tracer) == 0 and tracer.open_spans() == {}


def trace_of(*events):
    """Build checker input: a list of (name, attrs) in order."""
    return [
        {"seq": i + 1, "t": float(i), "kind": "event", "name": name,
         "span": None, "attrs": attrs}
        for i, (name, attrs) in enumerate(events)
    ]


class TestTraceCheckerSessions:
    def test_clean_lifecycle_passes(self):
        checker = TraceChecker(trace_of(
            ("session.open", {"session": 1}),
            ("packet.train", {"session": 1, "count": 4}),
            ("session.close", {"session": 1}),
        ))
        assert checker.check() == []
        summary = checker.summary()
        assert summary["sessions_opened"] == summary["sessions_closed"] == 1
        assert summary["trains_seen"] == 1

    def test_unclosed_session_flagged(self):
        checker = TraceChecker(trace_of(("session.open", {"session": 1})))
        assert any("never closed" in v for v in checker.check())

    def test_double_open_and_unknown_close_flagged(self):
        violations = TraceChecker(trace_of(
            ("session.open", {"session": 1}),
            ("session.open", {"session": 1}),
            ("session.close", {"session": 1}),
            ("session.close", {"session": 2}),
        )).check()
        assert any("opened twice" in v for v in violations)
        assert any("unknown/already-closed" in v for v in violations)

    def test_traffic_after_close_flagged(self):
        violations = TraceChecker(trace_of(
            ("session.open", {"session": 1}),
            ("session.close", {"session": 1}),
            ("packet.train", {"session": 1}),
            ("repair.sent", {"session": 2}),
        )).check()
        assert any("after its" in v for v in violations)
        assert any("never-opened" in v for v in violations)

    def test_group_train_audits_every_member_session(self):
        # shared pacing records one train for the whole group; each named
        # session must still individually satisfy the lifecycle invariant
        violations = TraceChecker(trace_of(
            ("session.open", {"session": 1}),
            ("session.open", {"session": 2}),
            ("session.close", {"session": 2}),
            ("packet.train", {"sessions": [1, 2], "count": 4}),
            ("session.close", {"session": 1}),
        )).check()
        assert len(violations) == 1
        assert any("after its" in v for v in violations)
        TraceChecker(trace_of(
            ("session.open", {"session": 1}),
            ("session.open", {"session": 2}),
            ("packet.train", {"sessions": [1, 2], "count": 4}),
            ("session.close", {"session": 1}),
            ("session.close", {"session": 2}),
        )).assert_ok()

    def test_records_audited_in_seq_order_not_list_order(self):
        records = trace_of(
            ("session.open", {"session": 1}),
            ("session.close", {"session": 1}),
        )
        TraceChecker(list(reversed(records))).assert_ok()


class TestTraceCheckerFastStart:
    @staticmethod
    def grant(session, reason, window_ms, factor=7.2, **attrs):
        return ("faststart.grant", {
            "session": session, "reason": reason, "window_ms": window_ms,
            "factor": factor, "bitrate": 250_000, "link_bps": 2_000_000,
            **attrs,
        })

    def test_fresh_then_carried_windows_pass(self):
        checker = TraceChecker(trace_of(
            ("session.open", {"session": 1}),
            self.grant(1, "play", 3000.0),
            self.grant(1, "resume", 1200.0),
            self.grant(1, "seek", 3000.0),
            # warm hand-off: the successor's grant precedes the record
            ("session.open", {"session": 2}),
            self.grant(2, "resume", 800.0),
            ("drain.begin", {"edge": "e", "sessions": [1]}),
            ("session.handoff", {"edge": "e", "session": 1, "to": 2}),
            ("session.close", {"session": 1}),
            ("drain.end", {"edge": "e"}),
            ("session.close", {"session": 2}),
        ))
        assert checker.check() == []
        assert checker.summary()["grants_seen"] == 4

    def test_grant_above_the_link_flagged(self):
        violations = TraceChecker(trace_of(
            ("session.open", {"session": 1}),
            self.grant(1, "play", 3000.0, factor=9.0),
            self.grant(1, "seek", 0.0, factor=1.0, bitrate=3_000_000),
            ("session.close", {"session": 1}),
        )).check()
        # 9 x 250 kb/s > 2 Mb/s; a 1x walk on a narrow link is no grant
        assert len(violations) == 1 and "exceeds its" in violations[0]

    def test_replica_broadcast_and_unknown_sessions_flagged(self):
        violations = TraceChecker(trace_of(
            ("session.open", {"session": 1, "replica": True}),
            ("session.open", {"session": 2, "broadcast": True}),
            self.grant(1, "play", 3000.0),
            self.grant(2, "play", 3000.0),
            self.grant(3, "play", 3000.0),
            ("session.close", {"session": 1}),
            ("session.close", {"session": 2}),
        )).check()
        assert sum("replica/broadcast" in v for v in violations) == 2
        assert sum("not open" in v for v in violations) == 1

    def test_restarted_window_flagged(self):
        violations = TraceChecker(trace_of(
            ("session.open", {"session": 1}),
            self.grant(1, "play", 3000.0),
            self.grant(1, "resume", 3000.0),  # resumed with nothing spent
            self.grant(1, "resume", 1000.0),
            self.grant(1, "resume", 2000.0),  # pause/resume re-burst
            ("session.open", {"session": 2}),
            self.grant(2, "resume", 3000.0),  # nothing left it a window
            ("session.open", {"session": 3}),
            self.grant(3, "resume", 3000.0),  # hand-off grew the window
            ("drain.begin", {"edge": "e", "sessions": [1]}),
            ("session.handoff", {"edge": "e", "session": 1, "to": 3}),
            ("session.close", {"session": 1}),
            ("drain.end", {"edge": "e"}),
            ("session.close", {"session": 2}),
            ("session.close", {"session": 3}),
        )).check()
        assert len(violations) == 3
        assert any("left to carry" in v for v in violations)
        assert any("adopted a 3000 ms" in v for v in violations)
        assert any("no play, seek or hand-off" in v for v in violations)


class TestTraceCheckerQoS:
    def test_balanced_reservations_pass(self):
        TraceChecker(trace_of(
            ("qos.reserve", {"rid": "a#1", "owner": "s1"}),
            ("qos.release", {"rid": "a#1", "owner": "s1"}),
        )).assert_ok()

    def test_leak_double_reserve_and_unknown_release_flagged(self):
        violations = TraceChecker(trace_of(
            ("qos.reserve", {"rid": "a#1"}),
            ("qos.reserve", {"rid": "a#1"}),
            ("qos.release", {"rid": "a#2"}),
        )).check()
        assert any("reserved twice" in v for v in violations)
        assert any("unknown/already-released" in v for v in violations)
        assert any("never released" in v for v in violations)

    def test_same_id_different_manager_labels_are_distinct(self):
        TraceChecker(trace_of(
            ("qos.reserve", {"rid": "hostA#1"}),
            ("qos.reserve", {"rid": "hostB#1"}),
            ("qos.release", {"rid": "hostA#1"}),
            ("qos.release", {"rid": "hostB#1"}),
        )).assert_ok()


class TestTraceCheckerFloor:
    def test_mutual_exclusion_enforced(self):
        violations = TraceChecker(trace_of(
            ("floor.grant", {"user": "alice"}),
            ("floor.grant", {"user": "bob"}),
        )).check()
        assert any("still holds" in v for v in violations)

    def test_release_by_non_holder_flagged(self):
        violations = TraceChecker(trace_of(
            ("floor.grant", {"user": "alice"}),
            ("floor.release", {"user": "bob"}),
        )).check()
        assert any("holder is" in v for v in violations)

    def test_drop_frees_the_floor(self):
        TraceChecker(trace_of(
            ("floor.grant", {"user": "alice"}),
            ("floor.drop", {"user": "alice"}),
            ("floor.grant", {"user": "bob"}),
            ("floor.release", {"user": "bob"}),
        )).assert_ok()


class TestTraceCheckerRender:
    def test_monotonic_renders_pass(self):
        TraceChecker(trace_of(
            ("render.unit", {"client": "c", "stream": 1, "ts": 0}),
            ("render.unit", {"client": "c", "stream": 1, "ts": 100}),
            ("render.unit", {"client": "c", "stream": 2, "ts": 50}),
        )).assert_ok()

    def test_regression_flagged_per_stream(self):
        violations = TraceChecker(trace_of(
            ("render.unit", {"client": "c", "stream": 1, "ts": 100}),
            ("render.unit", {"client": "c", "stream": 1, "ts": 40}),
        )).check()
        assert any("regressed" in v for v in violations)

    def test_seek_rebases_only_that_client(self):
        TraceChecker(trace_of(
            ("render.unit", {"client": "c", "stream": 1, "ts": 100}),
            ("playback.seek", {"client": "c", "position": 0.0}),
            ("render.unit", {"client": "c", "stream": 1, "ts": 0}),
        )).assert_ok()
        violations = TraceChecker(trace_of(
            ("render.unit", {"client": "c", "stream": 1, "ts": 100}),
            ("playback.seek", {"client": "other", "position": 0.0}),
            ("render.unit", {"client": "c", "stream": 1, "ts": 0}),
        )).check()
        assert any("regressed" in v for v in violations)


class TestTraceCheckerReporting:
    def test_assert_ok_raises_with_every_violation(self):
        checker = TraceChecker(trace_of(
            ("session.open", {"session": 1}),
            ("qos.reserve", {"rid": "a#1"}),
        ))
        with pytest.raises(TraceViolation) as excinfo:
            checker.assert_ok()
        assert len(excinfo.value.violations) == 2

    def test_check_is_idempotent(self):
        checker = TraceChecker(trace_of(("session.open", {"session": 1})))
        first = checker.check()
        assert checker.check() == first and len(first) == 1


class TestHistogram:
    def test_empty_summary_is_zeroed(self):
        histogram = Histogram("empty")
        assert histogram.summary() == {
            "count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
            "p50": 0.0, "p90": 0.0, "p99": 0.0,
        }

    def test_record_and_percentiles(self):
        histogram = Histogram("lat", values=range(1, 101))
        assert histogram.count == 100
        assert histogram.mean() == pytest.approx(50.5)
        assert histogram.percentile(50) == pytest.approx(50.5)
        assert histogram.percentiles((90.0,)) == {
            "p90": pytest.approx(90.1)
        }

    def test_merge_is_population_union(self):
        a = Histogram("a", values=[1.0, 2.0])
        b = Histogram("b", values=[3.0])
        a.merge(b)
        assert a.count == 3 and a.max == 3.0
        assert b.count == 1  # untouched

    def test_as_dict_carries_name(self):
        assert Histogram("x", values=[1.0]).as_dict()["name"] == "x"


class _Report:
    """Duck-typed PlaybackReport stand-in."""

    def __init__(self):
        self.point = "lecture"
        self.startup_latency = 0.8
        self.rebuffer_count = 2
        self.rebuffer_time = 1.5
        self.duration_watched = 20.0
        self.media_bytes = 900
        self.recovery = {"naks_sent": 3, "repairs_received": 2}
        self.downshifts = [(5.0, 4)]


class TestSessionQoE:
    def test_from_report(self):
        qoe = SessionQoE.from_report(
            _Report(), clean_media_bytes=1000, client="student"
        )
        assert qoe.client == "student" and qoe.point == "lecture"
        assert qoe.delivery_ratio == pytest.approx(0.9)
        assert qoe.naks_sent == 3 and qoe.repairs_received == 2
        assert qoe.downshifts == [(5.0, 4)]

    def test_delivery_ratio_unknown_clean_is_one(self):
        assert SessionQoE(media_bytes=500).delivery_ratio == 1.0

    def test_as_dict_is_json_serializable(self):
        qoe = SessionQoE.from_report(_Report(), clean_media_bytes=1000)
        assert json.loads(json.dumps(qoe.as_dict()))["delivery_ratio"] == 0.9

    def test_aggregator_summary(self):
        aggregator = QoEAggregator()
        for _ in range(3):
            aggregator.add(
                SessionQoE.from_report(_Report(), clean_media_bytes=1000)
            )
        assert len(aggregator) == 3
        summary = aggregator.summary()
        assert summary["sessions"] == 3
        assert summary["startup_delay"]["mean"] == pytest.approx(0.8)
        assert summary["delivery_ratio"]["p50"] == pytest.approx(0.9)
        assert summary["total_rebuffers"] == 6
        assert summary["total_naks_sent"] == 9
        assert summary["total_downshifts"] == 3


class TestMediaMsBoundary:
    def test_half_up_for_every_parity(self):
        # round() would map (k + 0.5) ms to the even neighbor: a due unit
        # stamped k+1 gets skipped whenever k is even
        for k in range(0, 200):
            assert media_ms((k + 0.5) / 1000.0) == k + 1, k
        assert any(
            round((k + 0.5) / 1000.0 * 1000.0) == k for k in range(200)
        )

    def test_integer_positions_survive_float_noise(self):
        for k in (1, 3, 7, 13, 999, 12_345):
            assert media_ms(k / 1000.0) == k
        # a position a few ulps below the boundary still lands on it
        assert media_ms(0.013 * 3 / 3) == 13

    def test_pop_due_on_half_millisecond_boundary(self):
        for k in (12, 13):  # one even, one odd boundary
            buffer = JitterBuffer()
            unit = MediaUnit(1, 0, k + 1, True, b"x")
            buffer.push(unit)
            assert buffer.pop_due((k + 0.5) / 1000.0) == [unit], k

    def test_pop_due_and_depth_agree_at_boundary(self):
        buffer = JitterBuffer()
        buffer.push(MediaUnit(1, 0, 13, True, b"x"))
        position = 12.5 / 1000.0
        # the unit is counted as due, so it must not also count as runway
        assert buffer.depth(position, [1]) == 0.0
        assert len(buffer.pop_due(position)) == 1

    def test_command_and_unit_with_one_timestamp_come_due_together(self):
        # 12.5 ms: banker's round() says 12, the buffer's media_ms 13 — a
        # slide command stamped with its unit's 13 ms must fire with it
        position = 0.0125
        command = ScriptCommand(13, "SLIDE", "s1")
        buffer = JitterBuffer()
        buffer.push(MediaUnit(1, 0, 13, True, b"x"))
        assert len(buffer.pop_due(position)) == 1
        fired = []
        assert ScriptCommandDispatcher([command], fired.append).advance_to(
            position
        ) == [command]
        assert ScriptCommandDispatcher([command], fired.append).seek(
            position
        ) == [command]
        assert fired == [command, command]
        # stamped one ms later, neither is due yet
        buffer.push(MediaUnit(1, 1, 14, True, b"x"))
        assert buffer.pop_due(position) == []
        assert not ScriptCommandDispatcher(
            [ScriptCommand(14, "SLIDE", "s2")], fired.append
        ).advance_to(position)
