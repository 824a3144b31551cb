"""A link builds its generator when it first draws from it.

Until ``Link.rng`` is read, a loss-free link only counts the draws it owes
(``random() < 0`` never holds); reading it replays them first. The oracle
is an eager link, its generator built in ``__init__`` and drawn once per
packet as every link was: on each scenario below both drop the same
packets and deliver the rest at the same instants.
"""

import random

from repro.net.engine import Simulator
from repro.net.link import GilbertElliott, Link
from repro.net.transport import Message, ReliableChannel

BURSTS = GilbertElliott(p_enter=0.2, p_exit=0.4)


class EagerLink(Link):
    """The reference: a generator from the start, one draw per packet."""

    def __init__(self, simulator, **kwargs):
        super().__init__(simulator, **kwargs)
        self._rng = random.Random(kwargs.get("seed", 0))


def trace(link_class, *, change, packets=300, switch_at=120, **kwargs):
    """Per packet ``(index, "delivered" | reason, time)``; ``change(link)``
    runs after the first ``switch_at`` packets were sent."""
    sim = Simulator()
    link = link_class(sim, bandwidth=1e6, delay=0.01, seed=7, **kwargs)
    outcomes = []

    def send(index):
        if index == switch_at:
            change(link)
        link.transmit(
            1_000,
            lambda: outcomes.append((index, "delivered", sim.now)),
            on_drop=lambda reason: outcomes.append((index, reason, sim.now)),
        )

    for index in range(packets):
        sim.schedule_at(index * 0.01, lambda index=index: send(index))
    sim.run()
    assert len(outcomes) == packets
    return sorted(outcomes), link


def assert_same_as_eager(change, **kwargs):
    lazy, link = trace(Link, change=change, **kwargs)
    eager, _ = trace(EagerLink, change=change, **kwargs)
    assert lazy == eager
    return lazy, link


def test_loss_switched_on_after_a_loss_free_run():
    outcomes, _ = assert_same_as_eager(lambda link: link.set_loss(loss_rate=0.3))
    assert any(reason == "loss" for _, reason, _ in outcomes)


def test_burst_model_switched_on_mid_run():
    outcomes, _ = assert_same_as_eager(lambda link: link.set_loss(burst_loss=BURSTS))
    assert any(reason == "loss" for _, reason, _ in outcomes)


def test_jitter_draws_from_the_first_packet():
    outcomes, _ = assert_same_as_eager(
        lambda link: link.set_loss(loss_rate=0.2), jitter=0.004
    )
    assert len({round(t - 0.01 * i, 9) for i, _, t in outcomes}) > 10


def test_reseeding_after_loss_free_sends():
    def reseed(link):
        link.rng.seed(1_234)
        link.set_loss(loss_rate=0.3)

    assert_same_as_eager(reseed)


def test_a_loss_free_link_builds_no_generator():
    _, link = trace(Link, change=lambda link: None, packets=1_000)
    assert link.stats.delivered == 1_000
    assert link._rng is None and link._draws == 1_000


def test_a_channel_without_retries_builds_no_generator():
    sim = Simulator()
    out, ack = Link(sim), Link(sim)
    received = []
    channel = ReliableChannel(sim, out, ack, received.append)
    for n in range(20):
        channel.send(Message(n, 100))
    sim.run()
    assert len(received) == 20 and channel.retransmissions == 0
    assert "rng" not in vars(channel)
    assert out._rng is None and ack._rng is None
