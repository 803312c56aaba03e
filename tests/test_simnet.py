"""Unit tests for the simulator and synchronous network."""

from __future__ import annotations

import pytest

from repro.exceptions import SimulationError
from repro.network import simnet
from repro.network.simnet import Message, Simulator, SyncNetwork


def make_net(min_delay=0.01, max_delay=0.1, seed=1):
    sim = Simulator()
    net = SyncNetwork(sim, min_delay=min_delay, max_delay=max_delay, seed=seed)
    return sim, net


class TestSimulator:
    def test_run_executes_everything(self):
        sim = Simulator()
        hits = []
        sim.schedule_after(0.5, lambda: hits.append(1))
        sim.schedule_after(0.2, lambda: hits.append(2))
        executed = sim.run()
        assert executed == 2
        assert hits == [2, 1]
        assert sim.now == 0.5

    def test_run_until_stops_clock(self):
        sim = Simulator()
        sim.schedule_at(10.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_after(-0.1, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        hits = []
        def outer():
            hits.append("outer")
            sim.schedule_after(0.1, lambda: hits.append("inner"))
        sim.schedule_after(0.1, outer)
        sim.run()
        assert hits == ["outer", "inner"]

    def test_runaway_guard(self, monkeypatch):
        monkeypatch.setattr(simnet, "MAX_EVENTS", 100)
        sim = Simulator()
        def reschedule():
            sim.schedule_after(0.001, reschedule)
        sim.schedule_after(0.0, reschedule)
        with pytest.raises(SimulationError):
            sim.run()

    def test_fires_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, lambda: fired.append("b"))
        sim.schedule_at(1.0, lambda: fired.append("a"))
        sim.schedule_at(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for name in "abcde":
            sim.schedule_at(1.0, lambda n=name: fired.append(n))
        sim.run()
        assert fired == list("abcde")

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_at(-1.0, lambda: None)

    @pytest.mark.parametrize("schedule", ["schedule_at", "schedule_after"])
    def test_nan_and_inf_rejected(self, schedule):
        sim = Simulator()
        with pytest.raises(SimulationError):
            getattr(sim, schedule)(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            getattr(sim, schedule)(float("inf"), lambda: None)
        assert sim.next_time() is None

    def test_step_on_empty_queue_returns_false(self):
        sim = Simulator()
        assert sim.step() is False
        assert sim.now == 0.0

    def test_next_time_none_when_drained(self):
        sim = Simulator()
        assert sim.next_time() is None
        sim.schedule_at(5.0, lambda: None)
        sim.schedule_at(1.0, lambda: None)
        assert sim.next_time() == 1.0
        sim.run()
        assert sim.next_time() is None

    def test_run_until_parks_on_empty_queue(self):
        sim = Simulator()
        assert sim.run(until=2.5) == 0
        assert sim.now == 2.5
        sim.schedule_at(3.0, lambda: None)
        assert sim.run(until=4.0) == 1
        assert sim.now == 4.0

    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_advance_to_moves_clock(self):
        sim = Simulator()
        sim.advance_to(1.5)
        assert sim.now == 1.5

    def test_advance_to_same_time_ok(self):
        sim = Simulator()
        sim.advance_to(2.0)
        sim.advance_to(2.0)
        assert sim.now == 2.0

    def test_advance_backwards_rejected(self):
        sim = Simulator()
        sim.advance_to(3.0)
        with pytest.raises(SimulationError):
            sim.advance_to(2.9)
        with pytest.raises(SimulationError):
            sim.advance_to(float("nan"))
        assert sim.now == 3.0


class TestSyncNetwork:
    def test_delivery_within_bounds(self):
        sim, net = make_net()
        got = []
        net.register("b", got.append)
        net.register("a", lambda m: None)
        net.send("a", "b", "hello")
        sim.run()
        assert len(got) == 1
        msg = got[0]
        assert msg.payload == "hello"
        assert 0.01 <= msg.latency <= 0.1 + 1e-12

    def test_unregistered_receiver_rejected(self):
        _sim, net = make_net()
        with pytest.raises(SimulationError):
            net.send("a", "ghost", "x")

    def test_fifo_per_channel(self):
        sim, net = make_net(min_delay=0.0, max_delay=0.5)
        got = []
        net.register("b", lambda m: got.append(m.payload))
        net.register("a", lambda m: None)
        for i in range(50):
            net.send("a", "b", i)
        sim.run()
        assert got == list(range(50))

    def test_fixed_delay_when_bounds_equal(self):
        sim, net = make_net(min_delay=0.2, max_delay=0.2)
        got = []
        net.register("b", got.append)
        net.send("a", "b", "x")
        sim.run()
        assert got[0].latency == pytest.approx(0.2)

    def test_invalid_bounds_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            SyncNetwork(sim, min_delay=0.5, max_delay=0.1)

    def test_multicast_reaches_all(self):
        sim, net = make_net()
        got = {name: [] for name in "bcd"}
        for name in "bcd":
            net.register(name, got[name].append)
        net.multicast("a", ["b", "c", "d"], "ping")
        sim.run()
        assert all(len(v) == 1 for v in got.values())

    def test_multicast_draws_match_scalar_sends(self):
        """One batched draw per multicast == one scalar draw per edge."""
        def schedule(batched):
            sim, net = make_net(seed=5)
            got = []
            for name in "bcde":
                net.register(name, got.append)
            for payload in ("x", "y"):
                if batched:
                    net.multicast("a", list("bcde"), payload)
                else:
                    for name in "bcde":
                        net.send("a", name, payload)
            sim.run()
            # The next draw shows both left the generator in the same state.
            return [(m.receiver, m.payload, m.deliver_at) for m in got], net._rng.random()

        assert schedule(batched=True) == schedule(batched=False)

    def test_stats_counting(self):
        sim, net = make_net()
        net.register("b", lambda m: None)
        net.send("a", "b", "x", size_hint=10)
        net.send("a", "b", "y", size_hint=5)
        assert net.stats.messages_sent == 2
        assert net.stats.bytes_sent == 15

    def test_stats_by_kind(self):
        sim, net = make_net()
        net.register("b", lambda m: None)

        class Payload:
            kind = "vrf-announce"

        net.send("a", "b", Payload())
        assert net.stats.messages_by_kind["vrf-announce"] == 1

    def test_partitioned_receiver_drops(self):
        sim, net = make_net()
        got = []
        net.register("b", got.append)
        net.partition("b")
        net.send("a", "b", "x")
        sim.run()
        assert got == []

    def test_partitioned_sender_drops(self):
        sim, net = make_net()
        got = []
        net.register("b", got.append)
        net.partition("a")
        net.send("a", "b", "x")
        sim.run()
        assert got == []

    def test_heal_restores_delivery(self):
        sim, net = make_net()
        got = []
        net.register("b", got.append)
        net.partition("b")
        net.send("a", "b", "lost")
        net.heal("b")
        net.send("a", "b", "found")
        sim.run()
        assert [m.payload for m in got] == ["found"]

    def test_deterministic_in_seed(self):
        def run(seed):
            sim, net = make_net(seed=seed)
            latencies = []
            net.register("b", lambda m: latencies.append(m.latency))
            for _ in range(10):
                net.send("a", "b", "x")
            sim.run()
            return latencies

        assert run(7) == run(7)
        assert run(7) != run(8)


class TestDropAccounting:
    """Satellite fix: drops must not inflate the sent counters."""

    def make(self):
        sim = Simulator()
        net = SyncNetwork(sim, min_delay=0.01, max_delay=0.05, seed=7)
        net.register("a", lambda m: None)
        net.register("b", lambda m: None)
        return sim, net

    def test_partition_drop_counted_separately(self):
        sim, net = self.make()
        net.partition("b")
        net.send("a", "b", "x", size_hint=10)
        assert net.stats.messages_dropped == 1
        assert net.stats.messages_sent == 0
        assert net.stats.bytes_sent == 0
        assert net.stats.messages_by_kind == {}

    def test_sent_counters_unaffected_by_drops(self):
        sim, net = self.make()
        net.send("a", "b", "ok")
        sim.run()  # deliver before the crash: in-flight messages die with it
        net.partition("b")
        for _ in range(5):
            net.send("a", "b", "lost")
        sim.run()
        assert net.stats.messages_sent == 1
        assert net.stats.messages_dropped == 5
        assert net.stats.messages_by_kind == {"str": 1}

    def test_mixed_sent_and_dropped(self):
        sim, net = self.make()
        net.send("a", "b", "one")
        net.partition("a")
        net.send("a", "b", "two")
        net.heal("a")
        net.send("a", "b", "three")
        sim.run()
        assert net.stats.messages_sent == 2
        assert net.stats.messages_dropped == 1
