"""Unit tests for the fault-injection subsystem and recovery primitives.

Covers the chaos backbone in isolation: the Gilbert–Elliott burst-loss
model, the Link fault hooks it drives, FaultPlan/FaultInjector scripted
timelines, the ReliableChannel's backed-off retransmission, the Counters
accumulator, and the RecoveryClient NAK/degradation/stall state machine.
End-to-end recovery scenarios live in test_recovery.py.
"""

import pytest

from repro.net import (
    FaultAction,
    FaultInjector,
    FaultPlan,
    GilbertElliott,
    Link,
    Message,
    QoSError,
    QoSManager,
    QoSSpec,
    ReliableChannel,
    SimulationError,
    Simulator,
)
from repro.asf.packets import DataPacket
from repro.metrics import Counters
from repro.streaming import RecoveryClient, RecoveryConfig, SessionTable
from repro.web import VirtualNetwork


class TestGilbertElliott:
    def test_from_average_round_trips(self):
        model = GilbertElliott.from_average(0.05, mean_burst=5.0)
        assert model.average_loss == pytest.approx(0.05)
        assert 1.0 / model.p_exit == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(SimulationError):
            GilbertElliott(p_enter=0.1, p_exit=0.0)  # bad state inescapable
        with pytest.raises(SimulationError):
            GilbertElliott(p_enter=1.5, p_exit=0.5)
        with pytest.raises(SimulationError):
            GilbertElliott.from_average(1.0)
        with pytest.raises(SimulationError):
            GilbertElliott.from_average(0.1, mean_burst=0.5)

    @staticmethod
    def _loss_runs(link, samples):
        """(measured loss rate, mean length of consecutive-loss runs)."""
        losses = [link._packet_lost() for _ in range(samples)]
        runs, current = [], 0
        for lost in losses:
            if lost:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        if current:
            runs.append(current)
        rate = sum(losses) / samples
        mean_run = sum(runs) / len(runs) if runs else 0.0
        return rate, mean_run

    def test_losses_cluster_into_bursts(self):
        samples = 20_000
        sim = Simulator()
        bursty = Link(
            sim, burst_loss=GilbertElliott.from_average(0.2, mean_burst=8.0),
            seed=7,
        )
        iid = Link(sim, loss_rate=0.2, seed=7)
        burst_rate, burst_run = self._loss_runs(bursty, samples)
        iid_rate, iid_run = self._loss_runs(iid, samples)
        # both processes hit the same stationary rate...
        assert burst_rate == pytest.approx(0.2, abs=0.03)
        assert iid_rate == pytest.approx(0.2, abs=0.03)
        # ...but the GE losses arrive in much longer runs
        assert burst_run > 2 * iid_run


class TestLinkFaultHooks:
    def test_down_link_drops_everything(self):
        sim = Simulator()
        link = Link(sim)
        delivered, drops = [], []
        link.take_down()
        accepted = link.transmit(100, lambda: delivered.append(1),
                                 on_drop=drops.append)
        sim.run()
        assert accepted is False
        assert drops == ["down"]
        assert link.stats.dropped_down == 1
        assert not delivered
        link.bring_up()
        link.transmit(100, lambda: delivered.append(2))
        sim.run()
        assert delivered == [2]

    def test_cut_does_not_reach_in_flight_packets(self):
        sim = Simulator()
        link = Link(sim, delay=0.1)
        delivered = []
        link.transmit(100, lambda: delivered.append(1))
        link.take_down()  # the packet already left the NIC
        sim.run()
        assert delivered == [1]

    def test_set_bandwidth_rerates(self):
        sim = Simulator()
        link = Link(sim, bandwidth=1_000_000)
        before = link.serialization_time(1_000)
        link.set_bandwidth(100_000)
        assert link.serialization_time(1_000) == pytest.approx(before * 10)
        with pytest.raises(SimulationError):
            link.set_bandwidth(0)

    def test_set_loss_resets_burst_state(self):
        sim = Simulator()
        link = Link(sim, burst_loss=GilbertElliott(p_enter=1.0, p_exit=0.01))
        for _ in range(10):
            link._packet_lost()
        assert link._burst_bad  # p_enter=1 forces the bad state
        link.set_loss(loss_rate=0.0, burst_loss=None)
        assert not link._burst_bad
        assert all(not link._packet_lost() for _ in range(100))


class TestFaultPlan:
    def test_action_validation(self):
        with pytest.raises(SimulationError):
            FaultAction(-1.0, "link_down", ("a", "b"))
        with pytest.raises(SimulationError):
            FaultAction(0.0, "meteor_strike", ("a", "b"))

    def test_link_down_window_emits_reversals(self):
        plan = FaultPlan().link_down("a", "b", at=1.0, until=2.0)
        kinds = [(a.kind, a.target) for a in plan.sorted_actions()]
        assert kinds == [
            ("link_down", ("a", "b")),
            ("link_down", ("b", "a")),
            ("link_up", ("a", "b")),
            ("link_up", ("b", "a")),
        ]

    def test_one_directional_faults(self):
        plan = FaultPlan().burst_loss("a", "b", at=0.0, average=0.05)
        assert [a.target for a in plan.actions] == [("a", "b")]

    def test_bandwidth_needs_exactly_one_of_factor_bps(self):
        with pytest.raises(SimulationError):
            FaultPlan().bandwidth("a", "b", at=0.0)
        with pytest.raises(SimulationError):
            FaultPlan().bandwidth("a", "b", at=0.0, factor=0.5, bps=100.0)

    def test_partition_cuts_every_peer_pair(self):
        plan = FaultPlan().partition("srv", ["c1", "c2"], at=1.0, until=2.0)
        assert len(plan.actions) == 8  # 2 peers x 2 directions x down+up

    def test_restart_before_crash_rejected(self):
        with pytest.raises(SimulationError):
            FaultPlan().server_crash("srv", at=5.0, restart_at=4.0)

    def test_sorted_actions_order_by_time_then_kind(self):
        plan = (
            FaultPlan()
            .link_down("a", "b", at=2.0, both=False)
            .loss("a", "b", at=1.0, rate=0.1)
            .server_crash("srv", at=2.0)
        )
        ordered = plan.sorted_actions()
        assert [a.kind for a in ordered] == ["loss", "link_down", "server_crash"]


class TestFaultPlanWindowValidation:
    def test_overlapping_windows_same_family_target_rejected(self):
        plan = FaultPlan("overlap").link_down("a", "b", at=1.0, until=3.0)
        with pytest.raises(SimulationError, match="overlaps"):
            plan.link_down("a", "b", at=2.0, until=4.0)

    def test_open_ended_window_blocks_everything_after(self):
        plan = FaultPlan().link_down("a", "b", at=5.0)  # never restored
        with pytest.raises(SimulationError, match="overlaps"):
            plan.link_down("a", "b", at=100.0, until=101.0)

    def test_out_of_order_window_rejected(self):
        with pytest.raises(SimulationError, match="out of order"):
            FaultPlan().link_down("a", "b", at=3.0, until=3.0)
        with pytest.raises(SimulationError, match="out of order"):
            FaultPlan().loss("a", "b", at=3.0, rate=0.1, until=1.0)

    def test_boundary_touching_windows_allowed(self):
        plan = (
            FaultPlan()
            .link_down("a", "b", at=1.0, until=2.0)
            .link_down("a", "b", at=2.0, until=3.0)  # starts where one ends
        )
        assert len(plan.actions) == 8

    def test_distinct_targets_and_families_never_conflict(self):
        # same window everywhere: different pair, different direction,
        # different fault family — all independent claims
        plan = (
            FaultPlan()
            .link_down("a", "b", at=1.0, until=2.0, both=False)
            .link_down("b", "a", at=1.0, until=2.0, both=False)
            .link_down("a", "c", at=1.0, until=2.0)
            .loss("a", "b", at=1.0, rate=0.1, until=2.0)
            .bandwidth("a", "b", at=1.0, factor=0.5, until=2.0)
            .server_crash("a", at=1.0, restart_at=2.0)
        )
        assert plan.actions

    def test_loss_and_burst_loss_share_a_family(self):
        # both program the same Link knob: letting them overlap would
        # leave the second clear_loss a no-op lie
        plan = FaultPlan().loss("a", "b", at=1.0, rate=0.1, until=5.0)
        with pytest.raises(SimulationError, match="loss"):
            plan.burst_loss("a", "b", at=2.0, average=0.05, until=3.0)

    def test_double_crash_without_restart_between_rejected(self):
        plan = FaultPlan().server_crash("srv", at=1.0, restart_at=4.0)
        with pytest.raises(SimulationError, match="overlaps"):
            plan.server_crash("srv", at=2.0)

    def test_raw_add_bypasses_validation(self):
        # the documented escape hatch: hand-built actions skip the claims
        plan = FaultPlan().link_down("a", "b", at=1.0, until=5.0)
        plan.add(FaultAction(2.0, "link_down", ("a", "b")))
        assert len(plan.actions) == 5

    def test_describe_renders_the_timeline(self):
        plan = (
            FaultPlan("storm")
            .loss("a", "b", at=1.5, rate=0.25)
            .server_crash("srv", at=2.0, restart_at=8.0)
        )
        text = plan.describe()
        assert "FaultPlan 'storm': 3 action(s)" in text
        lines = text.splitlines()
        assert "loss" in lines[1] and "a/b" in lines[1] and "rate=0.25" in lines[1]
        assert "server_crash" in lines[2] and "srv" in lines[2]
        assert "server_restart" in lines[3] and "t=   8.000s" in lines[3]


class _StubServer:
    def __init__(self):
        self.calls = []

    def crash(self):
        self.calls.append("crash")

    def restart(self):
        self.calls.append("restart")


class TestFaultInjector:
    def _plan(self):
        return (
            FaultPlan("window")
            .link_down("server", "student", at=1.0, until=2.0, both=False)
            .bandwidth("server", "student", at=3.0, bps=100_000.0,
                       until=4.0, both=False)
        )

    def test_scripted_timeline_executes(self):
        net = VirtualNetwork()
        net.connect("server", "student", bandwidth=2_000_000)
        link = net.link("server", "student")
        injector = FaultInjector(net)
        assert injector.apply(self._plan()) == 4

        net.simulator.run_until(1.5)
        assert not link.up
        net.simulator.run_until(2.5)
        assert link.up
        net.simulator.run_until(3.5)
        assert link.bandwidth == 100_000.0
        net.simulator.run_until(4.5)
        assert link.bandwidth == 2_000_000  # restored to the original
        assert [(t, k) for t, k, _ in injector.log] == [
            (1.0, "link_down"), (2.0, "link_up"),
            (3.0, "bandwidth"), (4.0, "restore_bandwidth"),
        ]

    def test_same_plan_replays_identically(self):
        def run():
            net = VirtualNetwork()
            net.connect("server", "student")
            injector = FaultInjector(net)
            injector.apply(self._plan())
            net.simulator.run()
            return injector.log

        assert run() == run()

    def test_server_crash_restart_dispatch(self):
        net = VirtualNetwork()
        server = _StubServer()
        injector = FaultInjector(net, servers={"srv": server})
        injector.apply(FaultPlan().server_crash("srv", at=1.0, restart_at=2.0))
        net.simulator.run()
        assert server.calls == ["crash", "restart"]

    def test_register_server_after_construction(self):
        net = VirtualNetwork()
        server = _StubServer()
        injector = FaultInjector(net)
        injector.register_server("srv", server)
        injector.apply(FaultPlan().server_crash("srv", at=0.5))
        net.simulator.run()
        assert server.calls == ["crash"]


class TestReliableChannelBackoff:
    def _channel(self, sim, out_link, ack_link, **kwargs):
        received = []
        channel = ReliableChannel(
            sim, out_link, ack_link, received.append, **kwargs
        )
        return channel, received

    def test_retransmission_gaps_grow_to_the_cap(self, monkeypatch):
        sim = Simulator()
        out = Link(sim)
        ack = Link(sim)
        out.take_down()  # nothing gets through: pure timer behaviour
        for name, value in (
            ("RTO", 0.1), ("BACKOFF", 2.0), ("RTO_MAX", 0.8),
            ("MAX_ATTEMPTS", 6),
        ):
            monkeypatch.setattr(ReliableChannel, name, value)
        channel = ReliableChannel(sim, out, ack, lambda m: None)
        times = []
        original = channel._transmit

        def spy(pending):
            times.append(sim.now)
            original(pending)

        channel._transmit = spy
        channel.send(Message("x", 10))
        sim.run()

        # six sends, then the message is given up on
        assert len(times) == 6 and channel.in_flight == 0
        gaps = [b - a for a, b in zip(times, times[1:])]
        # first retry fires at exactly the base RTO (no jitter on the
        # first attempt), then doubles with +/-10% jitter, capped at 0.8
        assert gaps[0] == pytest.approx(0.1)
        assert gaps[1] == pytest.approx(0.2, rel=0.11)
        assert gaps[2] == pytest.approx(0.4, rel=0.11)
        assert gaps[3] == pytest.approx(0.8, rel=0.11)
        assert gaps[4] == pytest.approx(0.8, rel=0.11)
        assert all(b > a * 1.5 for a, b in zip(gaps[:3], gaps[1:4]))

    def test_lossfree_timeline_independent_of_jitter_seed(self, monkeypatch):
        def delivery_time(seed):
            monkeypatch.setattr(ReliableChannel, "SEED", seed)
            sim = Simulator()
            out, ack = Link(sim), Link(sim)
            arrivals = []
            channel = ReliableChannel(
                sim, out, ack, lambda m: arrivals.append(sim.now)
            )
            channel.send(Message("x", 10))
            sim.run()
            assert channel.retransmissions == 0
            return arrivals, sim.events_processed

        assert delivery_time(0) == delivery_time(12345)

    def test_duplicate_arrivals_suppressed_without_history_set(self):
        sim = Simulator()
        out, ack = Link(sim), Link(sim)
        received = []
        channel = ReliableChannel(sim, out, ack, received.append)
        assert not hasattr(channel, "_delivered_seqs")
        message = Message("dup", 10)
        channel._arrive(0, message)
        channel._arrive(0, message)  # duplicated datagram
        sim.run()
        assert len(received) == 1
        channel._arrive(0, message)  # straggler far below the frontier
        sim.run()
        assert len(received) == 1


class TestCounters:
    def test_accumulates_and_reports(self):
        counters = Counters("test")
        counters.inc("a")
        counters.inc("a", 2)
        counters.inc("b", 5)
        assert counters["a"] == 3
        assert counters["missing"] == 0
        assert "b" in counters and "missing" not in counters
        assert counters.as_dict() == {"a": 3, "b": 5}
        assert len(counters) == 2

    def test_merge(self):
        left, right = Counters(), Counters()
        left.inc("a", 1)
        right.inc("a", 2)
        right.inc("b", 3)
        left.merge(right)
        assert left.as_dict() == {"a": 3, "b": 3}


class TestRecoveryClient:
    @pytest.fixture(autouse=True)
    def _patcher(self, monkeypatch):
        self.monkeypatch = monkeypatch

    def _client(self, sim, *, runway=10.0, shift_result=True, **constants):
        """A client whose :class:`RecoveryConfig` class constants are
        patched to ``constants`` for this test."""
        for name, value in constants.items():
            self.monkeypatch.setattr(RecoveryConfig, name, value)
        sent, shifts = [], []

        def on_downshift():
            shifts.append(sim.now)
            return shift_result

        client = RecoveryClient(
            sim,
            RecoveryConfig(),
            send_nak=sent.append,
            runway=lambda: runway,
            on_downshift=on_downshift,
        )
        return client, sent, shifts

    def test_gap_becomes_a_batched_nak_after_grace(self):
        sim = Simulator()
        client, sent, _ = self._client(sim, nak_delay=0.04)
        client.observe_gaps([7, 5])
        assert sent == []  # reorder grace: not yet
        sim.run_until(0.05)
        assert sent == [(5, 7)]
        assert client.counters["naks_sent"] == 1
        assert client.counters["sequences_nacked"] == 2

    def test_repair_cancels_the_retry_timer(self):
        sim = Simulator()
        client, sent, _ = self._client(sim)
        client.observe_gaps([3])
        sim.run_until(0.05)
        client.note_train([DataPacket(3, 0)])  # the repair landed
        assert client.pending_repairs == 0
        assert client.counters["repairs_received"] == 1
        events_before = sim.events_processed
        sim.run()
        # cancelled timer: nothing left to run but the cancelled shell
        assert sim.events_processed - events_before <= 1
        assert len(sent) == 1

    def test_budget_exhaustion_abandons(self):
        sim = Simulator()
        client, sent, _ = self._client(sim, nak_budget=2, nak_timeout=0.1)
        client.observe_gaps([9])
        sim.run()
        assert len(sent) == 2  # two attempts, then give up
        assert client.pending_repairs == 0
        assert client.counters["repairs_abandoned"] == 1

    def test_closed_window_abandons_without_asking(self):
        sim = Simulator()
        client, sent, _ = self._client(sim, runway=0.0)
        client.observe_gaps([1])
        sim.run()
        assert sent == []
        assert client.counters["repairs_abandoned"] == 1

    def test_abandon_storm_requests_downshift_once_per_cooldown(self):
        sim = Simulator()
        client, _, shifts = self._client(
            sim, runway=0.0, downshift_after=3, downshift_cooldown=60.0
        )
        client.observe_gaps([1, 2, 3])  # all abandoned at once
        sim.run()
        assert len(shifts) == 1
        assert client.counters["downshifts"] == 1
        client.observe_gaps([4, 5, 6])  # cooldown still running
        sim.run()
        assert len(shifts) == 1

    def test_failed_downshift_not_counted(self):
        sim = Simulator()
        client, _, shifts = self._client(
            sim, runway=0.0, downshift_after=2, shift_result=False
        )
        client.observe_gaps([1, 2])
        sim.run()
        assert len(shifts) == 1  # asked, but the server was at the floor
        assert client.counters["downshifts"] == 0

    def test_stall_detection_and_reset(self):
        sim = Simulator()
        client, _, _ = self._client(sim, watchdog_timeout=1.5)
        assert not client.stalled(1.0)
        assert client.stalled(1.6)
        sim.schedule(2.0, lambda: None)
        sim.run()
        client.reset()
        assert not client.stalled(sim.now + 1.0)
        assert client.pending_repairs == 0


class TestQoSLeakAssertion:
    def test_names_the_leaking_owner(self):
        sim = Simulator()
        manager = QoSManager(Link(sim, bandwidth=1_000_000))
        manager.assert_no_leaks()  # nothing held: fine
        reservation = manager.reserve(
            QoSSpec(bandwidth=100_000), owner="session7"
        )
        with pytest.raises(QoSError, match="session7"):
            manager.assert_no_leaks()
        manager.release(reservation)
        manager.assert_no_leaks()


class TestSessionRecoveryFields:
    def test_defaults_and_all(self):
        table = SessionTable()
        session = table.create("p", "host", lambda pkt: None, broadcast=False)
        assert session.downshifts == 0
        assert session.retransmits_sent == 0
        assert table.all() == [session]
