"""Cross-shard chaos: receipts under duplication, crashes, reshuffles.

Each test drives a 2-shard :class:`~repro.sharding.ShardCoordinator`
through a targeted failure while cross-shard receipts are in flight and
asserts the atomicity contract survives: every receipt commits exactly
once on its remote shard (never lost, never replayed), the cross-shard
auditor stays clean, and identically seeded reruns are bit-identical.

The three schedules are the ones ISSUE'd for the nightly soak: a
fault-injector duplicating the relay traffic, a remote leader crash
racing the relay window, and an epoch reshuffle landing while receipts
are still pending.
"""

from __future__ import annotations

import pytest

from repro.core.params import ProtocolParams
from repro.faults.plan import FaultPlan, LinkFaultSpec
from repro.ledger.properties import check_all_properties
from repro.network.topology import Topology
from repro.obs import MetricsRegistry
from repro.sharding import ShardCoordinator
from repro.workloads.generator import BernoulliWorkload
from repro.workloads.xshard import CrossShardWorkload

pytestmark = pytest.mark.chaos

PARAMS = ProtocolParams(f=0.5, delta=0.2, b_limit=16)


def build(seed=3, p_cross=0.5, obs=None, resilience=True):
    sharded = Topology.sharded(l=8, n=4, m=4, r=2, shards=2)
    coordinator = ShardCoordinator(
        sharded, PARAMS, seed=seed, resilience=resilience, obs=obs
    )
    providers = [p for topo in sharded.shards for p in topo.providers]
    inner = BernoulliWorkload(providers, p_valid=0.8, seed=seed + 1)
    workload = CrossShardWorkload(
        inner, sharded.provider_shard, p_cross=p_cross, seed=seed + 2
    )
    return coordinator, workload


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
        coordinator, workload = build(seed=seed, obs=registry)
        # Duplicate half of all messages on both shards — relays (which
        # are not fault-exempt) get re-delivered alongside retries.
        for k in (0, 1):
            coordinator.install_faults(
                k,
                FaultPlan(seed=seed + 10 + k).with_default_link(
                    LinkFaultSpec(duplicate=0.5)
                ),
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
        assert registry.get("shard_receipt_dups_total").value > 0

    def test_schedule_is_deterministic(self):
        a, _, _ = self.run_once()
        b, _, _ = self.run_once()
        assert a.tip_hashes() == b.tip_hashes()
        assert a.committed_total == b.committed_total


class TestReceiptReplayRegression:
    """Pin the PR-5 pack-time replay hole (found while verifying PR 7).

    At S=4, seed=11, ``FaultPlan(seed=61+k)`` with loss=0.02/dup=0.05, a
    duplicated relay arriving between one leader's pack and the block's
    observation used to be re-buffered at the *next* round's leader —
    whose ``ReceiptInbox.ingest`` dedup ran before the applied set
    learned the id — and committed twice (a ``receipt-replay`` auditor
    violation). ``ReceiptInbox.take`` now re-checks the applied set at
    pack time; this schedule reproduced the replay deterministically
    before the fix.
    """

    def run_pinned(self):
        sharded = Topology.sharded(l=16, n=8, m=8, r=2, shards=4)
        coordinator = ShardCoordinator(sharded, PARAMS, seed=11, resilience=True)
        for k in range(4):
            coordinator.install_faults(
                k,
                FaultPlan(seed=61 + k).with_default_link(
                    LinkFaultSpec(loss=0.02, duplicate=0.05)
                ),
            )
        providers = [p for topo in sharded.shards for p in topo.providers]
        inner = BernoulliWorkload(providers, p_valid=0.8, seed=12)
        workload = CrossShardWorkload(
            inner, sharded.provider_shard, p_cross=0.3, seed=13
        )
        for _ in range(6):
            coordinator.submit(workload.take(48))
            coordinator.run_super_round()
        report = coordinator.finalize()
        return coordinator, report

    def test_pinned_seed_commits_each_receipt_once(self):
        coordinator, report = self.run_pinned()
        assert_exactly_once(coordinator, report)

    def test_pinned_schedule_is_deterministic(self):
        a, _ = self.run_pinned()
        b, _ = self.run_pinned()
        assert a.tip_hashes() == b.tip_hashes()
        assert a.committed_total == b.committed_total


class TestReshuffleKeepsDeliveredTransactions:
    """Pin PR 12's "stranded transaction", root-caused in PR 15.

    ``Governor.drop_collector`` forgets a buffered transaction once its
    last label is scrubbed.  In this schedule p14's round-12 transaction
    was reported by c3 and c5 to g0/g2/g4/g6 with the Δ timers pending
    across the barrier; both collectors migrate at the round-12 reshuffle,
    every governor forgot it, and one valid spec never committed while
    every audit stayed clean.  ``NodeLifecycle.release`` now screens such a
    transaction before the drop.
    """

    def test_pinned_schedule_commits_every_valid_spec(self):
        assert stranded_specs(seed=50, rounds=12, flush=8) == []


class TestLeaderStarvationWait:
    """Pin seed 159: a screened transaction waits for its governor's turn.

    The same soak schedule at seed 159 leaves ``p16``'s transaction
    (payload ``seq`` 944) screened but parked in one governor's
    carry-over queue until the stake-weighted election picks that
    governor: 8 flush super-rounds end the run before it does, 24 do
    not.  This pins today's wait, not a promise — it is the regression
    anchor for the liveness decision ROADMAP item 3 still has to take
    (forward screened records to the leader, or bound the claim by the
    election's expected return time).
    """

    @pytest.mark.parametrize("flush, stranded", [(8, [("p16", 944)]), (24, [])])
    def test_one_valid_spec_commits_only_after_a_long_flush(self, flush, stranded):
        assert stranded_specs(seed=159, rounds=40, flush=flush) == stranded


class TestRelayRacesLeaderCrash:
    def test_remote_leader_crash_mid_relay(self):
        coordinator, workload = build(seed=7)
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
            coordinator, workload = build(seed=7)
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
        coordinator, workload = build(seed=11)
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

    def test_reshuffle_schedule_is_deterministic(self):
        def run():
            coordinator, workload = build(seed=11)
            coordinator.submit(workload.take(16))
            coordinator.run_super_round()
            coordinator.reshuffle()
            coordinator.submit(workload.take(16))
            coordinator.run_super_round()
            coordinator.finalize()
            return (
                coordinator.tip_hashes(),
                coordinator.committed_total,
                coordinator.reshuffle_log,
            )

        assert run() == run()
