"""Unit tests for the XOCPN compiler (repro.core.xocpn)."""

import pytest

from repro.core.analysis import is_safe
from repro.core.ocpn import MediaLeaf, SpecError, parallel, sequence, spec_duration
from repro.core.xocpn import (
    Channel,
    QoSRequirement,
    compile_xocpn,
    measure_stalls,
)


def two_segment_spec():
    return sequence(
        parallel(MediaLeaf("v1", 10), MediaLeaf("s1", 10)),
        parallel(MediaLeaf("v2", 5), MediaLeaf("s2", 5)),
    )


FAST = {"net": Channel("net", 1e9)}


class TestChannel:
    def test_transfer_time(self):
        assert Channel("c", 1000).transfer_time(2500) == pytest.approx(2.5)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            Channel("c", 0)

    def test_requirement_rejects_negative_size(self):
        with pytest.raises(ValueError):
            QoSRequirement(-1, "net")


class TestCompile:
    def test_unknown_channel_rejected(self):
        with pytest.raises(SpecError):
            compile_xocpn(two_segment_spec(), FAST, {"v1": QoSRequirement(1, "zzz")})

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SpecError):
            compile_xocpn(two_segment_spec(), FAST, {}, strategy="eager")

    def test_no_requirements_degenerates_to_ocpn(self):
        compiled = compile_xocpn(two_segment_spec(), FAST, {})
        report = measure_stalls(compiled)
        assert report.total_stall == pytest.approx(0.0)
        assert report.makespan == pytest.approx(15.0)

    def test_data_places_created(self):
        compiled = compile_xocpn(
            two_segment_spec(), FAST, {"v1": QoSRequirement(100, "net")}
        )
        assert compiled.data_places == {"v1": "D_v1"}
        assert compiled.channel_places == {"net": "CH_net"}

    def test_zero_size_requirement_skips_fetch(self):
        compiled = compile_xocpn(
            two_segment_spec(), FAST, {"v1": QoSRequirement(0, "net")}
        )
        assert compiled.data_places == {}


class TestBehaviour:
    def test_fast_channel_no_stall(self):
        reqs = {name: QoSRequirement(100, "net") for name in ("v1", "s1", "v2", "s2")}
        compiled = compile_xocpn(two_segment_spec(), FAST, reqs)
        report = measure_stalls(compiled)
        assert max(report.per_leaf.values()) < 1e-3
        assert report.stalled_leaves == []

    def test_slow_channel_stalls_prefetch_less_than_lazy(self):
        slow = {"net": Channel("net", 1000.0)}
        reqs = {
            "v1": QoSRequirement(2000, "net"),
            "v2": QoSRequirement(500, "net"),
            "s2": QoSRequirement(500, "net"),
        }
        pre = measure_stalls(compile_xocpn(two_segment_spec(), slow, reqs, strategy="prefetch"))
        lazy = measure_stalls(compile_xocpn(two_segment_spec(), slow, reqs, strategy="lazy"))
        assert pre.makespan < lazy.makespan
        assert pre.total_stall < lazy.total_stall

    def test_lazy_stall_equals_transfer_time_on_critical_path(self):
        slow = {"net": Channel("net", 100.0)}
        reqs = {"v2": QoSRequirement(300, "net")}  # 3s transfer
        compiled = compile_xocpn(two_segment_spec(), slow, reqs, strategy="lazy")
        report = measure_stalls(compiled)
        # v2 starts at nominal 10s + 3s transfer
        assert report.per_leaf["v2"] == pytest.approx(3.0)
        assert report.makespan == pytest.approx(18.0)

    def test_prefetch_hides_transfer_behind_earlier_playout(self):
        slow = {"net": Channel("net", 100.0)}
        reqs = {"v2": QoSRequirement(300, "net")}  # 3s transfer, 10s of lead time
        compiled = compile_xocpn(two_segment_spec(), slow, reqs, strategy="prefetch")
        report = measure_stalls(compiled)
        assert report.per_leaf["v2"] == pytest.approx(0.0)
        assert report.makespan == pytest.approx(15.0)

    def test_shared_channel_serializes_transfers(self):
        # two 2s transfers share one channel: second waits for first
        slow = {"net": Channel("net", 100.0)}
        reqs = {
            "v1": QoSRequirement(200, "net"),
            "s1": QoSRequirement(200, "net"),
        }
        compiled = compile_xocpn(two_segment_spec(), slow, reqs, strategy="prefetch")
        report = measure_stalls(compiled)
        stalls = sorted(report.per_leaf[l] for l in ("v1", "s1"))
        assert stalls == [pytest.approx(2.0), pytest.approx(4.0)]

    def test_two_channels_parallel_transfers(self):
        channels = {"c1": Channel("c1", 100.0), "c2": Channel("c2", 100.0)}
        reqs = {
            "v1": QoSRequirement(200, "c1"),
            "s1": QoSRequirement(200, "c2"),
        }
        compiled = compile_xocpn(two_segment_spec(), channels, reqs, strategy="prefetch")
        report = measure_stalls(compiled)
        assert report.per_leaf["v1"] == pytest.approx(2.0)
        assert report.per_leaf["s1"] == pytest.approx(2.0)

    def test_safe_with_channels(self):
        slow = {"net": Channel("net", 1000.0)}
        reqs = {"v1": QoSRequirement(100, "net"), "v2": QoSRequirement(100, "net")}
        compiled = compile_xocpn(two_segment_spec(), slow, reqs)
        assert is_safe(compiled.timed_net.net)

    def test_stall_report_properties(self):
        slow = {"net": Channel("net", 1000.0)}
        reqs = {"v1": QoSRequirement(3000, "net")}
        report = measure_stalls(compile_xocpn(two_segment_spec(), slow, reqs))
        assert max(report.per_leaf.values()) == pytest.approx(3.0)
        assert report.stalled_leaves  # at least v1
        assert report.ideal_makespan == pytest.approx(15.0)
