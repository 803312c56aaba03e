"""Cross-shard chaos: receipts under duplication, crashes, reshuffles.

Each test drives a 2-shard :class:`~repro.sharding.ShardCoordinator`
through a targeted failure while cross-shard receipts are in flight and
asserts the atomicity contract survives: every receipt commits exactly
once on its remote shard (never lost, never replayed), the cross-shard
auditor stays clean, and the crash schedule reruns bit-identically
(the S=4 reshuffling, lossy run of ``tests/test_parity.py`` pins the
rest).

The three schedules are the ones ISSUE'd for the nightly soak: a
fault-injector duplicating the relay traffic, a remote leader crash
racing the relay window, and an epoch reshuffle landing while receipts
are still pending.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.params import ProtocolParams
from repro.faults.plan import FaultPlan, LinkFaultSpec
from repro.ledger.properties import check_all_properties
from repro.network.topology import Topology
from repro.obs import MetricsRegistry
from repro.sharding import ShardCoordinator
from repro.workloads.generator import BernoulliWorkload
from repro.workloads.scenarios import SCENARIOS, build
from repro.workloads.xshard import CrossShardWorkload

pytestmark = pytest.mark.chaos

PARAMS = ProtocolParams(f=0.5, delta=0.2, b_limit=16)


#: Two shards, half the traffic cross-shard, the engines' repair on.
CHAOS = replace(SCENARIOS["sharded-smoke"], p_cross=0.5, resilience=True)


def deploy(seed=3, obs=None, **changes):
    coordinator, workload, _ = build(replace(CHAOS, **changes), seed, obs=obs)
    return coordinator, workload


def faulted(spec, offset):
    """One plan per shard, seeded ``seed + offset + k``, every link ``spec``."""
    return lambda topo, seed: [
        FaultPlan(seed=seed + offset + k).with_default_link(spec)
        for k in range(topo.num_shards)
    ]


def committed_receipt_ids(coordinator):
    """Every receipt id present in any shard's chain, with multiplicity."""
    landed = []
    for engine in coordinator.engines:
        for serial in range(1, engine.store.height + 1):
            for record in engine.store.retrieve(serial).tx_list:
                payload = record.tx.body.payload
                if isinstance(payload, dict) and "xshard_receipt" in payload:
                    landed.append(payload["xshard_receipt"])
    return landed


def assert_exactly_once(coordinator, report):
    assert report.clean, [str(v) for v in report.violations]
    assert coordinator.auditor.pending() == []
    landed = committed_receipt_ids(coordinator)
    assert len(landed) == len(set(landed)), "a receipt was replayed into a block"
    assert landed, "schedule generated no cross-shard traffic"
    for engine in coordinator.engines:
        assert check_all_properties(engine.ledgers(), engine.transcript).all_hold


def stranded_specs(seed, rounds, flush):
    """``(provider, payload seq)`` of each valid spec the nightly soak's
    schedule at ``seed`` offered and never committed; the cross-shard
    audit must be clean either way."""
    sharded = Topology.sharded(l=24, n=8, m=8, r=2, shards=2, seed=seed)
    coordinator = ShardCoordinator(
        sharded, PARAMS, seed=seed + 1, epoch_rounds=4, resilience=True
    )
    for k, shard in enumerate(sharded.shards):
        plan = FaultPlan(seed=7 * seed + k).with_default_link(
            LinkFaultSpec(loss=0.02, duplicate=0.05)
        )
        if k == 0:
            plan.with_crash(shard.governors[-1], at=0.8, recover_at=1.6)
        coordinator.install_faults(k, plan)
    providers = [p for topo in sharded.shards for p in topo.providers]
    workload = CrossShardWorkload(
        BernoulliWorkload(providers, p_valid=0.8, seed=seed + 2),
        sharded.provider_shard,
        p_cross=0.15,
        seed=seed + 3,
    )
    offered = []
    for _ in range(rounds):
        offered.extend(workload.take(24))
        coordinator.submit(offered[-24:])
        coordinator.run_super_round()
    for _ in range(flush):
        coordinator.run_super_round()
    report = coordinator.finalize()
    assert report.clean, [str(v) for v in report.violations]

    def seq(payload):
        return payload["body"]["seq"] if "xshard_to" in payload else payload["seq"]

    committed = {
        seq(record.tx.body.payload)
        for engine in coordinator.engines
        for serial in range(1, engine.store.height + 1)
        for record in engine.store.retrieve(serial).tx_list
        if "xshard_receipt" not in record.tx.body.payload
    }
    return [
        (spec.provider, seq(spec.payload))
        for spec in offered
        if spec.is_valid and seq(spec.payload) not in committed
    ]


class TestDuplicateReceiptDelivery:
    def run_once(self, seed=3):
        registry = MetricsRegistry()
        # Duplicate half of all messages on both shards — relays (which
        # are not fault-exempt) get re-delivered alongside retries.
        coordinator, workload = deploy(
            seed, obs=registry, faults=faulted(LinkFaultSpec(duplicate=0.5), 10)
        )
        for _ in range(4):
            coordinator.submit(workload.take(16))
            coordinator.run_super_round()
        report = coordinator.finalize()
        return coordinator, report, registry

    def test_duplicates_never_reach_a_block(self):
        coordinator, report, registry = self.run_once()
        assert_exactly_once(coordinator, report)
        # The dedup layer actually fired: duplicated deliveries (and the
        # coordinator's own retry relays) were absorbed at the buffer.
        assert registry._metrics["shard_receipt_dups_total"].value > 0


class TestReceiptReplayRegression:
    """Pin the PR-5 pack-time replay hole (found while verifying PR 7).

    At S=4, seed=3, ``FaultPlan(seed=53+k)`` with loss=0.02/dup=0.05, a
    duplicated relay arriving between one leader's pack and the block's
    observation used to be re-buffered at the *next* round's leader —
    whose ``ReceiptInbox.ingest`` dedup ran before the applied set
    learned the id — and committed twice (a ``receipt-replay`` auditor
    violation). ``ReceiptInbox.take`` now re-checks the applied set at
    pack time.  Seed 3 is the first deploy seed whose schedule commits
    a receipt twice with that re-check removed (so are 6, 7 and 13 of
    1–14), and it is clean with the re-check in place.
    """

    def run_pinned(self):
        coordinator, workload = deploy(
            3, l=16, n=8, m=8, shards=4, p_cross=0.3,
            faults=faulted(LinkFaultSpec(loss=0.02, duplicate=0.05), 50),
        )
        for _ in range(6):
            coordinator.submit(workload.take(48))
            coordinator.run_super_round()
        report = coordinator.finalize()
        return coordinator, report

    def test_pinned_seed_commits_each_receipt_once(self):
        coordinator, report = self.run_pinned()
        assert_exactly_once(coordinator, report)


class TestReshuffleKeepsDeliveredTransactions:
    """Pin PR 12's "stranded transaction", root-caused in PR 15.

    ``Governor.drop_collector`` forgets a buffered transaction once its
    last label is scrubbed.  In this schedule g0, g2 and g4 hold p22's
    round-4 transaction (payload ``seq`` 83) on c7's report alone, with
    the Δ timers pending across the barrier; c7 migrates at the round-4
    reshuffle, every governor forgets it, and one valid spec never
    commits while every audit stays clean.  ``NodeLifecycle.release`` now
    screens such a transaction before the drop.  Seed 166 is the first
    soak seed that strands a spec with that screening removed (178 and
    242 are the next), and it strands none with it in place.
    """

    def test_pinned_schedule_commits_every_valid_spec(self):
        assert stranded_specs(seed=166, rounds=12, flush=8) == []


class TestLeaderStarvationWait:
    """Pin seed 644: a screened transaction waits for its governor's turn.

    The same soak schedule at seed 644 leaves ``p23``'s transaction
    (payload ``seq`` 959) screened but parked in the carry-over queues of
    shard 1's g1 and g7 until the stake-weighted election picks one of
    them: 8 flush super-rounds end the run before it does, 24 do not.
    Seed 644 is the first of 1–800 that strands a spec at 8 flushes (731
    is the other).  This pins today's wait, not a promise — it is the
    regression anchor for ROADMAP item 9, bounded Validity, which has
    still to choose its fix (forward screened records to the leader, or
    bound the claim by the election's expected return time).
    """

    @pytest.mark.parametrize("flush, stranded", [(8, [("p23", 959)]), (24, [])])
    def test_one_valid_spec_commits_only_after_a_long_flush(self, flush, stranded):
        assert stranded_specs(seed=644, rounds=40, flush=flush) == stranded


class TestRelayRacesLeaderCrash:
    def test_remote_leader_crash_mid_relay(self):
        coordinator, workload = deploy(7)
        remote = coordinator.engines[1]
        # Round 1 home-commits cross transactions; their receipts are
        # relayed right after, due to land in round 2's blocks.
        coordinator.submit(workload.take(16))
        coordinator.run_super_round()
        assert coordinator._pending, "no receipt in flight to race"
        # Crash the remote shard's current leader before it can pack
        # them — volatile receipt buffers are lost with it.
        victim = remote.election.run(remote.stake, remote._round + 1)
        remote.lifecycle.crash(victim)
        coordinator.submit(workload.take(16))
        coordinator.run_super_round()
        remote.lifecycle.recover(victim)
        for _ in range(2):
            coordinator.submit(workload.take(16))
            coordinator.run_super_round()
        report = coordinator.finalize()
        assert_exactly_once(coordinator, report)

    def test_crash_schedule_is_deterministic(self):
        def run():
            coordinator, workload = deploy(7)
            remote = coordinator.engines[1]
            coordinator.submit(workload.take(16))
            coordinator.run_super_round()
            victim = remote.election.run(remote.stake, remote._round + 1)
            remote.lifecycle.crash(victim)
            coordinator.submit(workload.take(16))
            coordinator.run_super_round()
            remote.lifecycle.recover(victim)
            coordinator.submit(workload.take(16))
            coordinator.run_super_round()
            coordinator.finalize()
            return coordinator.tip_hashes(), coordinator.committed_total

        assert run() == run()


class TestReshuffleMidRelay:
    def test_epoch_reshuffle_lands_between_legs(self):
        coordinator, workload = deploy(1)
        coordinator.submit(workload.take(16))
        coordinator.run_super_round()
        assert coordinator._pending, "no receipt in flight to disturb"
        # Force the epoch boundary while receipts await their remote
        # leg: collectors migrate, books churn, slots are re-bootstrapped.
        moves = coordinator.reshuffle()
        assert moves, "reshuffle produced no migration; schedule is vacuous"
        for _ in range(3):
            coordinator.submit(workload.take(16))
            coordinator.run_super_round()
        report = coordinator.finalize()
        assert_exactly_once(coordinator, report)
