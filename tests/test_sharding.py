"""The sharding subsystem: assignment, coordination, receipts, epochs.

Covers the pure placement math (:mod:`repro.sharding.assignment`), the
:class:`~repro.sharding.ShardCoordinator` end-to-end contract (every
cross-shard transaction commits exactly once on both legs, audit
clean), receipt exactly-once plumbing, and the collector migration
mechanics (release / median-bootstrap adopt).  That seeded runs are
bit-identical is ``tests/test_parity.py``'s.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.exceptions import ConfigurationError
from repro.ledger.properties import check_all_properties
from repro.obs import MetricsRegistry
from repro.sharding import (
    Migration,
    make_receipt,
    migration_moves,
    receipt_id_for,
    reshuffle_assignment,
    verify_receipt,
)
from repro.workloads.generator import TxSpec
from repro.workloads.scenarios import SCENARIOS, build

#: ``sharded-smoke`` with more of its traffic cross-shard.
CROSS = replace(SCENARIOS["sharded-smoke"], p_cross=0.3)


def build_coordinator(seed=3, obs=None, **changes):
    coordinator, workload, _ = build(replace(CROSS, **changes), seed, obs=obs)
    return coordinator, workload


def run_deployment(coordinator, workload, rounds=4, batch=16):
    for _ in range(rounds):
        coordinator.submit(workload.take(batch))
        coordinator.run_super_round()
    return coordinator.finalize()


class TestAssignment:
    def test_reshuffle_is_deterministic(self):
        current = {f"c{i}": i % 2 for i in range(6)}
        masses = {f"c{i}": float(i + 1) for i in range(6)}
        a = reshuffle_assignment(current, masses, 2, seed=7, epoch=1)
        b = reshuffle_assignment(current, masses, 2, seed=7, epoch=1)
        assert a == b

    def test_different_epochs_differ(self):
        current = {f"c{i}": i % 2 for i in range(8)}
        masses = {f"c{i}": 1.0 for i in range(8)}
        results = {
            tuple(sorted(reshuffle_assignment(current, masses, 2, 7, e).items()))
            for e in range(6)
        }
        assert len(results) > 1  # uniform masses: permutation decides

    def test_reshuffle_balances_mass(self):
        current = {"c0": 0, "c1": 0, "c2": 1, "c3": 1}
        masses = {"c0": 9.0, "c1": 9.0, "c2": 1.0, "c3": 1.0}
        target = reshuffle_assignment(current, masses, 2, seed=0, epoch=1)
        per_shard = [
            sum(masses[c] for c, k in target.items() if k == s) for s in (0, 1)
        ]
        assert per_shard[0] == per_shard[1] == 10.0

    def test_moves_preserve_shard_sizes(self):
        current = {"c0": 0, "c1": 0, "c2": 1, "c3": 1}
        with pytest.raises(ConfigurationError, match="preserve"):
            migration_moves(current, {"c0": 1, "c1": 1, "c2": 1, "c3": 0})

    def test_moves_require_same_universe(self):
        with pytest.raises(ConfigurationError, match="different collector"):
            migration_moves({"c0": 0}, {"c1": 0})

    def test_moves_sorted_and_minimal(self):
        current = {"c0": 0, "c1": 0, "c2": 1, "c3": 1}
        target = {"c0": 1, "c1": 0, "c2": 0, "c3": 1}
        moves = migration_moves(current, target)
        assert moves == [
            Migration("c0", 0, 1),
            Migration("c2", 1, 0),
        ]


class TestReceipts:
    def test_receipt_id_is_content_derived(self):
        a = receipt_id_for(0, "tx-abc")
        b = receipt_id_for(0, "tx-abc")
        assert a == b
        assert receipt_id_for(1, "tx-abc") != a

    def test_receipt_signature_roundtrip(self):
        from repro.crypto.identity import IdentityManager, Role

        im = IdentityManager(seed=1)
        key = im.enroll("g0", Role.GOVERNOR)
        receipt = make_receipt(key, 0, 1, "tx-1", home_serial=3)
        assert verify_receipt(receipt, im)
        forged = make_receipt(key, 0, 1, "tx-2", home_serial=3)
        object.__setattr__(forged, "signature", receipt.signature)
        assert not verify_receipt(forged, im)

    def test_engine_buffer_dedup(self):
        coordinator, _ = build_coordinator()
        engine = coordinator.engines[1]
        home = coordinator.engines[0]
        key = home.governors[home.topology.governors[0]].key
        receipt = make_receipt(key, 0, 1, "tx-1", home_serial=1)
        gid = engine.topology.governors[0]
        engine.receipts.ingest(gid, receipt)
        engine.receipts.ingest(gid, receipt)  # duplicate delivery
        assert list(engine.receipts.buffers[gid]) == [receipt.receipt_id]


class TestCoordinator:
    def test_cross_shard_commits_exactly_once_on_both_legs(self):
        coordinator, workload = build_coordinator()
        report = run_deployment(coordinator, workload)
        assert report.clean
        assert coordinator.auditor.pending() == []
        # Every minted receipt landed exactly once on its remote shard.
        landed = []
        for engine in coordinator.engines:
            for serial in range(1, engine.store.height + 1):
                for record in engine.store.retrieve(serial).tx_list:
                    payload = record.tx.body.payload
                    if isinstance(payload, dict) and "xshard_receipt" in payload:
                        landed.append(payload["xshard_receipt"])
        assert len(landed) == len(set(landed))
        assert len(landed) > 0  # p_cross=0.3 must generate traffic

    def test_ledger_properties_hold_on_every_shard(self):
        coordinator, workload = build_coordinator()
        run_deployment(coordinator, workload)
        for engine in coordinator.engines:
            assert check_all_properties(engine.ledgers(), engine.transcript).all_hold

    def test_unknown_provider_rejected(self):
        coordinator, _ = build_coordinator()
        with pytest.raises(ConfigurationError, match="unknown provider"):
            coordinator.submit([TxSpec(provider="p99", payload={}, is_valid=True)])

    def test_backlog_buffers_saturating_load(self):
        coordinator, workload = build_coordinator()
        coordinator.submit(workload.take(100))
        assert sum(map(len, coordinator._backlog)) == 100
        coordinator.run_super_round()
        # Each of 2 shards packs at most b_limit=16 per round.
        assert sum(map(len, coordinator._backlog)) >= 100 - 2 * CROSS.params.b_limit

    def test_flush_stashes_backlog_and_restores_it(self):
        # flush() must drain pending receipts with genuinely empty
        # rounds: queued workload is stashed for the duration and handed
        # back untouched afterwards, so a saturated deployment can still
        # converge its cross-shard legs.
        coordinator, workload = build_coordinator()
        coordinator.submit(workload.take(64))
        coordinator.run_super_round()
        depth_before = sum(map(len, coordinator._backlog))
        assert depth_before > 0
        committed_before = coordinator.committed_total
        executed = coordinator.flush()
        assert coordinator._pending == {} or executed == 6
        # Flush rounds committed no origin workload and the backlog
        # came back exactly as stashed.
        assert coordinator.committed_total == committed_before
        assert sum(map(len, coordinator._backlog)) == depth_before

    def test_same_shard_counterparty_needs_no_receipt(self):
        coordinator, _ = build_coordinator()
        provider = coordinator.engines[0].topology.providers[0]
        peer = coordinator.engines[0].topology.providers[1]
        coordinator.submit(
            [
                TxSpec(
                    provider=provider,
                    payload={"xshard_to": peer, "body": {}},
                    is_valid=True,
                    counterparty=peer,
                )
            ]
        )
        result = coordinator.run_super_round()
        assert result.receipts_minted == 0
        assert coordinator._pending == {}

    @pytest.mark.parametrize(
        "obs, reads_per_round",
        [(None, 0), (MetricsRegistry(enabled=False), 0), (MetricsRegistry(), 1)],
        ids=["absent", "disabled", "live"],
    )
    def test_mass_read_only_for_a_live_registry(self, obs, reads_per_round):
        # The per-round read behind shard_reputation_mass is a pipe round
        # trip on a worker pool: a registry that is off, however it is
        # spelt, must not pay it.
        coordinator, workload = build_coordinator(obs=obs)
        calls = []
        read = coordinator.backend.collector_masses
        coordinator.backend.collector_masses = lambda: calls.append(1) or read()
        for _ in range(3):
            coordinator.submit(workload.take(16))
            coordinator.run_super_round()
        assert len(calls) == 3 * reads_per_round


class TestMigration:
    def test_reshuffle_moves_collectors_between_engines(self):
        coordinator, workload = build_coordinator(seed=5)
        for _ in range(2):
            coordinator.submit(workload.take(16))
            coordinator.run_super_round()
        moves = coordinator.reshuffle()
        for move in moves:
            target = coordinator.engines[move.target]
            source = coordinator.engines[move.source]
            assert move.collector in target.collectors
            assert move.collector not in source.collectors
            assert coordinator.collector_shard[move.collector] == move.target
            # Adopted into every target governor's book (median bootstrap).
            for gov in target.governors.values():
                assert move.collector in gov.book.collectors()

    def test_migrated_deployment_stays_sound(self):
        coordinator, workload = build_coordinator(seed=5, epoch_rounds=2)
        report = run_deployment(coordinator, workload, rounds=6)
        assert any(moves for _, _, moves in coordinator.reshuffle_log)
        assert report.clean
        for engine in coordinator.engines:
            assert check_all_properties(engine.ledgers(), engine.transcript).all_hold

    def test_release_then_adopt_preserves_provider_slots(self):
        coordinator, _ = build_coordinator(seed=5)
        source = coordinator.engines[0]
        target = coordinator.engines[1]
        cid = source.topology.collectors[0]
        providers, behavior, _ = source.lifecycle.release(cid)
        assert cid not in source.collectors
        # The vacated slots move with the collector to the new shard.
        swap_providers = target.topology.providers[: len(providers)]
        target.lifecycle.adopt(cid, swap_providers, behavior=behavior)
        assert target.collectors[cid].linked_providers == tuple(swap_providers)

    def test_mass_conserving_masses_surface(self):
        coordinator, workload = build_coordinator(seed=5)
        coordinator.submit(workload.take(16))
        coordinator.run_super_round()
        masses = {}
        for engine in coordinator.engines:
            masses.update(engine.collector_masses())
        assert sorted(masses) == sorted(coordinator.collector_shard)
        assert all(v >= 0.0 for v in masses.values())
