"""Unit tests for the ack/retransmit reliable channel."""

from __future__ import annotations

import pytest

from repro.exceptions import SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultAction, FaultPlan, LinkFaultSpec
from repro.network.reliable import ReliableChannel, ReliableEnvelope
from repro.network.simnet import Simulator, SyncNetwork


def make_channel(seed=0):
    sim = Simulator()
    net = SyncNetwork(sim, min_delay=0.01, max_delay=0.05, seed=seed + 1)
    channel = ReliableChannel(net)
    return sim, net, channel


class TestConstruction:
    def test_bad_timeout_rejected(self):
        """The retransmit timer is ``3 * max_delay``: a zero bound has none."""
        net = SyncNetwork(Simulator(), min_delay=0.0, max_delay=0.0)
        with pytest.raises(SimulationError):
            ReliableChannel(net)


class TestCleanDelivery:
    def test_payload_unwrapped_and_acked(self):
        sim, net, channel = make_channel()
        got = []
        channel.register("a", lambda m: None)
        channel.register("b", got.append)
        channel.send("a", "b", {"hello": 1})
        sim.run()
        assert [m.payload for m in got] == [{"hello": 1}]
        assert channel.stats.delivered == 1
        assert channel.stats.acks_sent == 1
        assert channel.unacked == 0
        assert channel.stats.retransmits == 0

    def test_plain_traffic_passes_through(self):
        sim, net, channel = make_channel()
        got = []
        channel.register("b", got.append)
        net.send("a", "b", "raw")
        sim.run()
        assert [m.payload for m in got] == ["raw"]
        assert channel.stats.delivered == 0  # not channel traffic

    def test_handler_sees_original_timing_metadata(self):
        sim, net, channel = make_channel()
        got = []
        channel.register("a", lambda m: None)
        channel.register("b", got.append)
        channel.send("a", "b", "x")
        sim.run()
        (message,) = got
        assert message.sender == "a"
        assert message.receiver == "b"
        assert not isinstance(message.payload, ReliableEnvelope)


class TestLossRecovery:
    def test_retransmit_until_delivered(self):
        sim, net, channel = make_channel()
        got = []
        channel.register("a", lambda m: None)
        channel.register("b", got.append)
        # Drop the first two envelope transmissions, then let traffic flow.
        dropped = {"n": 0}

        def drop_first_two(sender, receiver, payload):
            if isinstance(payload, ReliableEnvelope) and dropped["n"] < 2:
                dropped["n"] += 1
                return FaultAction(drop=True)
            return None

        net.fault_filter = drop_first_two
        channel.send("a", "b", "persistent")
        sim.run()
        assert [m.payload for m in got] == ["persistent"]
        assert channel.stats.retransmits == 2
        assert channel.unacked == 0

    def test_ack_loss_causes_dup_which_is_suppressed(self):
        sim, net, channel = make_channel()
        got = []
        channel.register("a", lambda m: None)
        channel.register("b", got.append)
        dropped = {"n": 0}

        def drop_first_ack(sender, receiver, payload):
            if getattr(payload, "kind", None) == "rel-ack" and dropped["n"] == 0:
                dropped["n"] += 1
                return FaultAction(drop=True)
            return None

        net.fault_filter = drop_first_ack
        channel.send("a", "b", "once")
        sim.run()
        # Envelope delivered, ack lost, sender retransmits, receiver
        # suppresses the duplicate and re-acks.
        assert [m.payload for m in got] == ["once"]
        assert channel.stats.duplicates_suppressed >= 1
        assert channel.unacked == 0

    def test_injected_duplicates_suppressed(self):
        sim, net, channel = make_channel()
        got = []
        channel.register("a", lambda m: None)
        channel.register("b", got.append)
        plan = FaultPlan(seed=3).with_default_link(LinkFaultSpec(duplicate=1.0))
        FaultInjector(plan=plan).install(net)
        channel.send("a", "b", "x")
        sim.run()
        assert [m.payload for m in got] == ["x"]
        assert channel.stats.duplicates_suppressed >= 1

    def test_bounded_retries_give_up(self, monkeypatch):
        monkeypatch.setattr(ReliableChannel, "MAX_RETRIES", 3)
        sim, net, channel = make_channel()
        got = []
        channel.register("a", lambda m: None)
        channel.register("b", got.append)
        net.partition("b")
        channel.send("a", "b", "doomed")
        sim.run()
        assert got == []
        assert channel.stats.gave_up == 1
        assert channel.stats.retransmits == 3
        assert channel.unacked == 0  # sender state released

    @staticmethod
    def send_fifty_under_loss(monkeypatch, max_retries):
        monkeypatch.setattr(ReliableChannel, "MAX_RETRIES", max_retries)
        sim, net, channel = make_channel()
        got = []
        channel.register("a", lambda m: None)
        channel.register("b", got.append)
        FaultInjector(plan=FaultPlan(seed=11).with_loss(0.4)).install(net)
        for i in range(50):
            channel.send("a", "b", i)
        sim.run()
        assert channel.stats.retransmits > 0
        return [m.payload for m in got], channel.stats.gave_up

    def test_delivery_under_heavy_seeded_loss(self, monkeypatch):
        # 40% loss with 6 retries can lose a message (about one run in
        # ten): the contract is that each payload is delivered exactly
        # once or abandoned once, counted in gave_up.
        delivered, gave_up = self.send_fifty_under_loss(monkeypatch, max_retries=6)
        assert len(delivered) == len(set(delivered))
        assert set(delivered) <= set(range(50))
        assert len(delivered) + gave_up == 50

    def test_delivery_of_all_under_heavy_loss_with_a_deep_budget(self, monkeypatch):
        # 12 retries: a miss needs 13 losses in a row, at most 50 * 0.4**13.
        delivered, gave_up = self.send_fifty_under_loss(monkeypatch, max_retries=12)
        assert sorted(delivered) == list(range(50))
        assert gave_up == 0
