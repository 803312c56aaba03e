"""Crash-recovery integration: partition, heal, resync, rejoin.

The paper's model has no governor crashes, but a deployable system needs
the recovery path: a governor that missed blocks (1) syncs the chain
from the store, (2) advances its broadcast cursor past the gap so
buffered later messages flow again, and (3) keeps agreeing with its
peers afterwards.
"""

from __future__ import annotations

import pytest

from repro.exceptions import SimulationError
from repro.network.broadcast import AtomicBroadcast
from repro.network.simnet import Simulator, SyncNetwork


def build_group(members=("a", "b", "c")):
    sim = Simulator()
    net = SyncNetwork(sim, min_delay=0.0, max_delay=0.05, seed=2)
    ab = AtomicBroadcast(net)
    ab.create_group("G", list(members))
    delivered = {m: [] for m in members}
    for m in members:
        net.register(m, lambda msg, m=m: ab.on_message(m, msg))
        ab.register_handler("G", m, lambda s, body, m=m: delivered[m].append(body))
    return sim, net, ab, delivered


class TestSkipTo:
    def test_gap_blocks_delivery_until_skip(self):
        sim, net, ab, delivered = build_group()
        net.partition("c")
        ab.broadcast("G", "a", "missed-0")
        ab.broadcast("G", "a", "missed-1")
        sim.run()
        net.heal("c")
        ab.broadcast("G", "a", "late-2")
        sim.run()
        # c buffered seqno 2 but cannot deliver across the gap.
        assert delivered["c"] == []
        assert delivered["a"] == ["missed-0", "missed-1", "late-2"]

        # Recovery: c learns the missed content out-of-band, then skips.
        ab.skip_to("G", "c", 2)
        assert delivered["c"] == ["late-2"]

    def test_skip_backwards_is_noop(self):
        sim, _net, ab, delivered = build_group()
        ab.broadcast("G", "a", "x")
        sim.run()
        ab.skip_to("G", "b", 0)
        assert delivered["b"] == ["x"]  # nothing replayed, nothing lost

    def test_skip_for_unknown_member_rejected(self):
        _sim, _net, ab, _delivered = build_group()
        with pytest.raises(SimulationError):
            ab.skip_to("G", "zz", 1)

    def test_current_seqno(self):
        sim, _net, ab, _delivered = build_group()
        assert ab.current_seqno("G") == 0
        ab.broadcast("G", "a", "x")
        assert ab.current_seqno("G") == 1
        with pytest.raises(SimulationError):
            ab.current_seqno("nope")

    def test_recovered_member_stays_in_total_order(self):
        sim, net, ab, delivered = build_group()
        net.partition("c")
        for i in range(5):
            ab.broadcast("G", "a", f"m{i}")
        sim.run()
        net.heal("c")
        ab.skip_to("G", "c", ab.current_seqno("G"))
        for i in range(5, 10):
            ab.broadcast("G", "b", f"m{i}")
        sim.run()
        assert delivered["c"] == [f"m{i}" for i in range(5, 10)]
        # And the healthy members saw the full sequence, in order.
        assert delivered["a"] == [f"m{i}" for i in range(10)]


class TestEndToEndRecovery:
    def test_governor_catchup_via_store_and_skip(self):
        """Full story: a replica misses blocks during a partition, syncs
        from the store, skips the broadcast gap, and agrees thereafter."""
        from repro.core.netengine import NetworkedProtocolEngine
        from repro.core.params import ProtocolParams
        from repro.ledger.sync import sync_replica
        from repro.network.topology import Topology
        from repro.workloads.generator import BernoulliWorkload

        topo = Topology.regular(l=8, n=4, m=3, r=2)
        engine = NetworkedProtocolEngine(
            topo, ProtocolParams(f=0.5, delta=0.2), seed=5
        )
        workload = BernoulliWorkload(topo.providers, p_valid=0.9, seed=6)
        engine.run_round(workload.take(8))

        lagging = topo.governors[2]
        engine.network.partition(lagging)
        engine.run_round(workload.take(8))
        engine.run_round(workload.take(8))
        engine.network.heal(lagging)

        replica = engine.governors[lagging].ledger
        assert replica.height == 1  # missed two blocks

        # Recovery: blocks from the store, then skip the broadcast gaps.
        sync_replica(replica, engine.store)
        assert replica.tip_hash() == engine.store.tip_hash()
        for group in ("uploads", "blocks"):
            engine.broadcast.skip_to(
                group, lagging, engine.broadcast.current_seqno(group)
            )

        engine.run_round(workload.take(8))
        assert replica.height == engine.store.height
        from repro.ledger.chain import check_agreement

        check_agreement(engine.ledgers())


class TestMidRoundPartitionRecovery:
    def test_partition_mid_round_heal_sync_and_converge(self):
        """Satellite coverage for the skip_to path: the partition opens
        *inside* a round (while uploads are in flight), so the governor
        loses part of one round and all of the next; after healing it
        syncs blocks from the store, skips the broadcast gaps, delivers
        subsequent broadcasts, and converges to the same ledger."""
        from repro.core.netengine import NetworkedProtocolEngine
        from repro.core.params import ProtocolParams
        from repro.ledger.chain import check_agreement
        from repro.ledger.sync import sync_replica
        from repro.network.topology import Topology
        from repro.workloads.generator import BernoulliWorkload

        topo = Topology.regular(l=8, n=4, m=3, r=2)
        engine = NetworkedProtocolEngine(
            topo, ProtocolParams(f=0.5, delta=0.2), seed=11
        )
        workload = BernoulliWorkload(topo.providers, p_valid=0.9, seed=12)
        engine.run_round(workload.take(8))

        victim = topo.governors[1]
        # Cut the governor in the middle of the upload window of round 2.
        engine.sim.schedule_after(
            engine.params.delta / 2, lambda: engine.network.partition(victim)
        )
        engine.run_round(workload.take(8))
        engine.run_round(workload.take(8))
        engine.network.heal(victim)

        replica = engine.governors[victim].ledger
        assert replica.height < engine.store.height  # it missed block(s)

        sync_replica(replica, engine.store)
        assert replica.tip_hash() == engine.store.tip_hash()
        for group in ("uploads", "blocks"):
            engine.broadcast.skip_to(
                group, victim, engine.broadcast.current_seqno(group)
            )

        # It must deliver subsequent broadcasts again: the next block
        # arrives over the wire, not via sync.
        before = engine.broadcast.delivered_count("blocks", victim)
        engine.run_round(workload.take(8))
        assert engine.broadcast.delivered_count("blocks", victim) == before + 1
        assert replica.height == engine.store.height
        check_agreement(engine.ledgers())
