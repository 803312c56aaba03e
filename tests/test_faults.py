"""Unit tests for the fault-injection subsystem (repro.faults)."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, LinkFaultSpec, NodeFaultSpec, PartitionWindow
from repro.network.simnet import Simulator, SyncNetwork


def make_net(seed=0):
    sim = Simulator()
    net = SyncNetwork(sim, min_delay=0.01, max_delay=0.05, seed=seed + 1)
    return sim, net


class TestPlanValidation:
    def test_probabilities_checked(self):
        with pytest.raises(ConfigurationError):
            LinkFaultSpec(loss=1.5)
        with pytest.raises(ConfigurationError):
            LinkFaultSpec(duplicate=-0.1)
        with pytest.raises(ConfigurationError):
            LinkFaultSpec(reorder_delay=0.0)

    def test_node_fault_times_checked(self):
        with pytest.raises(ConfigurationError):
            NodeFaultSpec(node="a", crash_at=-1.0)
        with pytest.raises(ConfigurationError):
            NodeFaultSpec(node="a", crash_at=2.0, recover_at=1.0)

    def test_partition_window_checked(self):
        with pytest.raises(ConfigurationError):
            PartitionWindow(nodes=(), start=0.0, end=1.0)
        with pytest.raises(ConfigurationError):
            PartitionWindow(nodes=("a",), start=2.0, end=1.0)

    def test_fluent_builders_and_overrides(self):
        plan = (
            FaultPlan(seed=3)
            .with_loss(0.1)
            .with_link("a", "b", LinkFaultSpec(loss=0.9))
            .with_crash("c", at=1.0, recover_at=2.0)
            .with_partition(("d",), start=0.5, end=0.7)
        )
        assert plan.spec_for("a", "b").loss == 0.9
        assert plan.spec_for("b", "a").loss == 0.1


class TestMessageFaults:
    def test_one_injector_per_network(self):
        from repro.exceptions import SimulationError

        _sim, net = make_net()
        injector = FaultInjector(plan=FaultPlan(seed=1).with_loss(0.5))
        injector.install(net)
        injector.install(net)  # same injector: idempotent no-op
        with pytest.raises(SimulationError):
            FaultInjector(plan=FaultPlan(seed=2)).install(net)

    def test_total_loss_drops_everything(self):
        sim, net = make_net()
        got = []
        net.register("b", got.append)
        injector = FaultInjector(plan=FaultPlan(seed=1).with_loss(1.0)).install(net)
        for _ in range(10):
            net.send("a", "b", "x")
        sim.run()
        assert got == []
        assert injector.stats.dropped == 10
        assert sum(net.stats.drops_by_reason.values()) == 10
        assert net.stats.messages_sent == 0

    def test_partial_loss_is_partial(self):
        sim, net = make_net()
        got = []
        net.register("b", got.append)
        injector = FaultInjector(plan=FaultPlan(seed=1).with_loss(0.3)).install(net)
        for _ in range(200):
            net.send("a", "b", "x")
        sim.run()
        assert 0 < injector.stats.dropped < 200
        assert len(got) == 200 - injector.stats.dropped

    def test_duplication_delivers_twice(self):
        sim, net = make_net()
        got = []
        net.register("b", got.append)
        plan = FaultPlan(seed=2).with_default_link(LinkFaultSpec(duplicate=1.0))
        injector = FaultInjector(plan=plan).install(net)
        net.send("a", "b", "x")
        sim.run()
        assert [m.payload for m in got] == ["x", "x"]
        assert injector.stats.duplicated == 1
        assert net.stats.messages_sent == 2  # both copies crossed the wire

    def test_reordering_breaks_channel_fifo(self):
        sim, net = make_net()
        got = []
        net.register("b", got.append)
        # First message is force-delayed well past the second.
        hits = {"n": 0}

        def reorder_first(sender, receiver, payload):
            hits["n"] += 1
            if hits["n"] == 1:
                from repro.faults.plan import FaultAction
                return FaultAction(extra_delay=1.0)
            return None

        net.fault_filter = reorder_first
        net.send("a", "b", "first")
        net.send("a", "b", "second")
        sim.run()
        assert [m.payload for m in got] == ["second", "first"]

    def test_injected_reorder_probability(self):
        sim, net = make_net()
        got = []
        net.register("b", got.append)
        plan = FaultPlan(seed=5).with_default_link(
            LinkFaultSpec(reorder=1.0, reorder_delay=2.0)
        )
        injector = FaultInjector(plan=plan).install(net)
        net.send("a", "b", "x")
        sim.run()
        assert injector.stats.reordered == 1
        assert got[0].deliver_at > net.max_delay  # escaped the synchrony bound

    def test_exempt_kinds_never_faulted(self):
        from repro.network.reliable import ReliableAck

        sim, net = make_net()
        got = []
        net.register("b", got.append)
        injector = FaultInjector(plan=FaultPlan(seed=1).with_loss(1.0)).install(net)
        net.send("a", "b", ReliableAck(msg_id=7))
        sim.run()
        assert len(got) == 1
        assert injector.stats.dropped == 0


class TestNodeAndPartitionFaults:
    def test_crash_recovery_window(self):
        sim, net = make_net()
        got = []
        net.register("b", got.append)
        net.register("a", lambda m: None)
        plan = FaultPlan().with_crash("b", at=1.0, recover_at=2.0)
        injector = FaultInjector(plan=plan).install(net)
        sim.schedule_at(0.5, lambda: net.send("a", "b", "before"))
        sim.schedule_at(1.5, lambda: net.send("a", "b", "during"))
        sim.schedule_at(2.5, lambda: net.send("a", "b", "after"))
        sim.run()
        assert [m.payload for m in got] == ["before", "after"]
        assert injector.stats.crashes == 1
        assert injector.stats.recoveries == 1

    def test_crash_stop_without_recovery(self):
        sim, net = make_net()
        got = []
        net.register("b", got.append)
        FaultInjector(plan=FaultPlan().with_crash("b", at=1.0)).install(net)
        sim.schedule_at(1.5, lambda: net.send("a", "b", "late"))
        sim.run()
        assert got == []

    def test_in_flight_message_lost_on_receiver_crash(self):
        sim, net = make_net()
        got = []
        net.register("b", got.append)
        # Every delay is at least min_delay (0.01 s), so a message sent at
        # 0 is still in flight when b crashes inside (0, min_delay).
        FaultInjector(plan=FaultPlan().with_crash("b", at=0.005)).install(net)
        net.send("a", "b", "in-flight")
        sim.run()
        assert got == []
        assert sum(net.stats.drops_by_reason.values()) == 1

    def test_partition_window_cuts_both_ways(self):
        sim, net = make_net()
        got_a, got_b = [], []
        net.register("a", got_a.append)
        net.register("b", got_b.append)
        plan = FaultPlan().with_partition(("b",), start=1.0, end=2.0)
        injector = FaultInjector(plan=plan).install(net)
        sim.schedule_at(1.5, lambda: net.send("a", "b", "to-b"))
        sim.schedule_at(1.5, lambda: net.send("b", "a", "from-b"))
        sim.schedule_at(2.5, lambda: net.send("a", "b", "healed"))
        sim.run()
        assert got_a == []
        assert [m.payload for m in got_b] == ["healed"]
        assert injector.stats.partitions_opened == 1
        assert injector.stats.partitions_healed == 1

    def test_engine_callbacks_used_for_node_faults(self):
        sim, net = make_net()
        calls = []
        plan = FaultPlan().with_crash("g1", at=1.0, recover_at=2.0)
        FaultInjector(
            plan=plan,
            on_crash=lambda n: calls.append(("crash", n)),
            on_recover=lambda n: calls.append(("recover", n)),
        ).install(net)
        sim.schedule_at(3.0, lambda: None)  # keep the loop alive past 2.0
        sim.run()
        assert calls == [("crash", "g1"), ("recover", "g1")]


class TestDeterminism:
    def test_same_seed_same_fault_pattern(self):
        def run(seed):
            sim, net = make_net(seed=9)
            got = []
            net.register("b", got.append)
            FaultInjector(plan=FaultPlan(seed=seed).with_loss(0.5)).install(net)
            for i in range(50):
                net.send("a", "b", i)
            sim.run()
            return [m.payload for m in got]

        assert run(4) == run(4)
        assert run(4) != run(5)
