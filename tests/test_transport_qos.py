"""Unit tests for transport channels and QoS admission (repro.net)."""

import pytest

from repro.net.engine import SimulationError, Simulator
from repro.net.link import Link
from repro.net.qos import QoSError, QoSManager, QoSSpec
from repro.net.transport import DatagramChannel, Message, ReliableChannel


def loss_free_pair(sim, **kwargs):
    return (
        Link(sim, bandwidth=1e6, delay=0.01, **kwargs),
        Link(sim, bandwidth=1e6, delay=0.01),
    )


class TestDatagramChannel:
    def test_delivery(self):
        sim = Simulator()
        link = Link(sim, bandwidth=1e6, delay=0.01)
        got = []
        channel = DatagramChannel(link, got.append)
        channel.send(Message("hello", 100))
        sim.run()
        assert [m.payload for m in got] == ["hello"]

    def test_loss_means_silence(self):
        sim = Simulator()
        link = Link(sim, bandwidth=1e6, loss_rate=0.999, seed=5)
        got = []
        DatagramChannel(link, got.append).send(Message("x", 100))
        sim.run()
        assert got == []

    def test_header_overhead_on_wire(self):
        sim = Simulator()
        link = Link(sim, bandwidth=1e6, delay=0.0)
        channel = DatagramChannel(link, lambda m: None)  # IP+UDP: 28 bytes
        channel.send(Message("x", 100))
        sim.run()
        assert link.stats.bytes_delivered == 128

    def test_invalid_message_size(self):
        with pytest.raises(SimulationError):
            Message("x", 0)


class TestReliableChannel:
    @pytest.fixture(autouse=True)
    def tight_rto(self, monkeypatch):
        monkeypatch.setattr(ReliableChannel, "RTO", 0.1)

    def make(self, sim, *, loss=0.0, seed=0):
        received = []
        out = Link(sim, bandwidth=1e6, delay=0.01, loss_rate=loss, seed=seed)
        ack = Link(sim, bandwidth=1e6, delay=0.01)
        channel = ReliableChannel(sim, out, ack, received.append)
        return channel, received

    def test_in_order_delivery(self):
        sim = Simulator()
        channel, received = self.make(sim)
        for i in range(5):
            channel.send(Message(i, 100))
        sim.run()
        assert [m.payload for m in received] == [0, 1, 2, 3, 4]
        assert channel.in_flight == 0

    def test_retransmits_through_loss(self):
        sim = Simulator()
        channel, received = self.make(sim, loss=0.5, seed=11)
        for i in range(10):
            channel.send(Message(i, 100))
        sim.run()
        assert [m.payload for m in received] == list(range(10))
        assert channel.retransmissions > 0

    def test_no_duplicate_delivery(self, monkeypatch):
        # lossy ack path forces retransmits; receiver must dedupe
        monkeypatch.setattr(ReliableChannel, "RTO", 0.05)
        sim = Simulator()
        received = []
        out = Link(sim, bandwidth=1e6, delay=0.01)
        ack = Link(sim, bandwidth=1e6, delay=0.01, loss_rate=0.6, seed=4)
        channel = ReliableChannel(sim, out, ack, received.append)
        channel.send(Message("once", 100))
        sim.run()
        assert [m.payload for m in received] == ["once"]

    def test_gives_up_after_max_attempts(self, monkeypatch):
        monkeypatch.setattr(ReliableChannel, "MAX_ATTEMPTS", 3)
        sim = Simulator()
        channel, received = self.make(sim, loss=0.9999, seed=2)
        channel.send(Message("doomed", 100))
        sim.run()
        assert received == []
        # three sends, then the message is dropped from the window
        assert channel.out_link.stats.sent == 3
        assert channel.in_flight == 0


class TestQoS:
    def test_spec_validation(self):
        with pytest.raises(QoSError):
            QoSSpec(bandwidth=0)

    def test_admission_within_capacity(self):
        sim = Simulator()
        manager = QoSManager(Link(sim, bandwidth=1_000_000), headroom=0.9)
        r1 = manager.reserve(QoSSpec(bandwidth=500_000), owner="a")
        assert manager.available == pytest.approx(400_000)
        manager.release(r1)
        assert manager.available == pytest.approx(900_000)

    def test_over_capacity_rejected(self):
        sim = Simulator()
        manager = QoSManager(Link(sim, bandwidth=1_000_000))
        manager.reserve(QoSSpec(bandwidth=800_000))
        with pytest.raises(QoSError):
            manager.reserve(QoSSpec(bandwidth=200_000))
        assert manager.rejected == 1

    def test_double_release_rejected(self):
        sim = Simulator()
        manager = QoSManager(Link(sim, bandwidth=1e6))
        r = manager.reserve(QoSSpec(bandwidth=1000))
        manager.release(r)
        with pytest.raises(QoSError):
            manager.release(r)

    def test_best_effort_bandwidth(self):
        sim = Simulator()
        manager = QoSManager(Link(sim, bandwidth=1_000_000), headroom=1.0)
        manager.reserve(QoSSpec(bandwidth=900_000))
        assert manager.best_effort_bandwidth(500_000) == pytest.approx(100_000)

    def test_active_listing(self):
        sim = Simulator()
        manager = QoSManager(Link(sim, bandwidth=1e6))
        manager.reserve(QoSSpec(bandwidth=1000), owner="alice")
        assert [r.owner for r in manager.active()] == ["alice"]

    def test_headroom_validation(self):
        sim = Simulator()
        with pytest.raises(QoSError):
            QoSManager(Link(sim, bandwidth=1e6), headroom=0)
