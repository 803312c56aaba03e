"""Integration tests for the full protocol engine."""

from __future__ import annotations

import pytest

from repro.agents.behaviors import (
    AlwaysInvertBehavior,
    ArgueAbuse,
    ConcealBehavior,
    ForgeBehavior,
    MisreportBehavior,
)
from repro.core.netengine import NetworkedProtocolEngine
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.exceptions import ConfigurationError
from repro.ledger.chain import check_agreement
from repro.ledger.properties import check_all_properties
from repro.ledger.transaction import CheckStatus, Label
from repro.network.topology import Topology
from repro.workloads.generator import BernoulliWorkload


def make_engine(f=0.5, behaviors=None, seed=0, m=4, stake=None):
    topo = Topology.regular(l=8, n=4, m=m, r=2)
    params = ProtocolParams(f=f)
    return (
        ProtocolEngine(
            topo, params, behaviors=behaviors, seed=seed,
            stake=stake,
        ),
        topo,
    )


def run_rounds(engine, topo, rounds=5, per_round=16, p_valid=0.8, seed=7):
    workload = BernoulliWorkload(topo.providers, p_valid=p_valid, seed=seed)
    results = [engine.run_round(workload.take(per_round)) for _ in range(rounds)]
    return results


class TestBasicExecution:
    def test_blocks_appended_every_round(self):
        engine, topo = make_engine()
        results = run_rounds(engine, topo, rounds=5)
        assert engine.store.height == 5
        assert [r.block.serial for r in results] == [1, 2, 3, 4, 5]

    def test_agreement_across_governors(self):
        engine, topo = make_engine()
        run_rounds(engine, topo, rounds=6)
        check_agreement(engine.ledgers())

    def test_all_five_properties_hold(self):
        behaviors = {"c0": MisreportBehavior(0.4), "c1": ConcealBehavior(0.5)}
        engine, topo = make_engine(behaviors=behaviors)
        run_rounds(engine, topo, rounds=10)
        engine.finalize()
        report = check_all_properties(engine.ledgers(), engine.transcript)
        assert report.all_hold, report.violations

    def test_unknown_behavior_collector_rejected(self):
        topo = Topology.regular(l=8, n=4, m=4, r=2)
        with pytest.raises(ConfigurationError):
            ProtocolEngine(topo, ProtocolParams(), behaviors={"cX": MisreportBehavior(0.1)})

    def test_oversized_round_rejected(self):
        engine, topo = make_engine()
        workload = BernoulliWorkload(topo.providers, seed=1)
        with pytest.raises(ConfigurationError):
            engine.run_round(workload.take(ProtocolParams().b_limit + 1))

    def test_leader_rotation_mode(self):
        """With all stake on expelled governors the VRF has nobody to
        elect: leadership rotates round-robin among the eligible."""
        engine, topo = make_engine(stake={"g0": 4, "g1": 0, "g2": 0, "g3": 0})
        engine.expel_governor("g0")
        results = run_rounds(engine, topo, rounds=4)
        assert [r.block.proposer for r in results] == ["g1", "g2", "g3", "g1"]


class TestForgeries:
    def test_forged_uploads_caught_and_excluded(self):
        engine, topo = make_engine(behaviors={"c0": ForgeBehavior(1.0)})
        run_rounds(engine, topo, rounds=4)
        engine.finalize()
        assert engine.metrics.forged_uploads == 4  # one per round
        for gov in engine.governors.values():
            assert gov.metrics.forgeries_caught == 4
            assert gov.book.vector("c0").forge == -4
        # Forged transactions never enter any block (Almost No Creation).
        report = check_all_properties(engine.ledgers(), engine.transcript)
        assert report.almost_no_creation


class TestArgueLoop:
    def test_mislabeled_valid_tx_reevaluated(self):
        # Heavy misreporting + high f => unchecked-invalid records for
        # valid transactions => argues => re-evaluated in a later block.
        behaviors = {f"c{i}": AlwaysInvertBehavior() for i in range(3)}
        engine, topo = make_engine(f=0.9, behaviors=behaviors, seed=5)
        results = run_rounds(engine, topo, rounds=20, p_valid=0.9)
        engine.finalize()
        assert engine.metrics.argues_total > 0
        reevaluated = [
            rec
            for r in results
            for rec in r.block.tx_list
            if rec.status is CheckStatus.REEVALUATED
        ]
        assert reevaluated
        assert all(rec.label is Label.VALID for rec in reevaluated)

    def test_validity_property_with_argues(self):
        behaviors = {f"c{i}": AlwaysInvertBehavior() for i in range(2)}
        engine, topo = make_engine(f=0.8, behaviors=behaviors, seed=9)
        run_rounds(engine, topo, rounds=15, p_valid=0.9)
        engine.finalize()
        report = check_all_properties(engine.ledgers(), engine.transcript)
        assert report.validity, report.violations


class TestRewards:
    def test_rewards_paid_every_round(self):
        engine, topo = make_engine()
        results = run_rounds(engine, topo, rounds=3)
        for r in results:
            assert sum(r.rewards.values()) == pytest.approx(
                ProtocolParams().reward_pool_per_block
            )

    def test_dishonest_collector_earns_less_over_time(self):
        behaviors = {"c0": MisreportBehavior(0.8)}
        engine, topo = make_engine(f=0.7, behaviors=behaviors, seed=2)
        run_rounds(engine, topo, rounds=20)
        paid = engine.metrics.rewards_paid
        honest_avg = sum(paid[c] for c in ("c1", "c2", "c3")) / 3
        assert paid["c0"] < honest_avg


class TestStake:
    def test_stake_transfer_runs_consensus(self):
        engine, topo = make_engine(stake={"g0": 4, "g1": 2, "g2": 1, "g3": 1})
        msgs = engine.transfer_stake("g0", "g1", 2)
        assert msgs > 0
        assert engine.stake.balance("g0") == 2
        assert engine.stake.balance("g1") == 4

    def test_transfer_beyond_balance_fails(self):
        engine, _topo = make_engine(stake={"g0": 1, "g1": 1, "g2": 1, "g3": 1})
        with pytest.raises(Exception):
            engine.transfer_stake("g0", "g1", 5)

    def test_unknown_stake_governor_rejected(self):
        topo = Topology.regular(l=8, n=4, m=4, r=2)
        with pytest.raises(ConfigurationError):
            ProtocolEngine(topo, ProtocolParams(), stake={"gX": 1})


class TestLemma2InEngine:
    def test_unchecked_rate_below_f(self):
        """Lemma 2 end-to-end: unchecked fraction <= f (plus noise)."""
        behaviors = {"c0": MisreportBehavior(0.5), "c1": AlwaysInvertBehavior()}
        f = 0.6
        engine, topo = make_engine(f=f, behaviors=behaviors, seed=21)
        run_rounds(engine, topo, rounds=30, per_round=20, p_valid=0.5)
        for gov in engine.governors.values():
            rate = gov.metrics.unchecked / gov.metrics.transactions_screened
            assert rate <= f + 0.05


class TestAbusiveProviders:
    """A provider's abuse is its behaviour; ``...Networked`` reruns each case
    on the networked engine."""

    engine_cls = ProtocolEngine

    def test_spurious_argues_burn_validations_but_not_correctness(self):
        topo = Topology.regular(l=8, n=4, m=4, r=2)

        def run(abuse):
            behaviors = {"c0": MisreportBehavior(0.3)}
            if abuse:
                behaviors.update(dict.fromkeys(topo.providers, ArgueAbuse(1.0)))
            engine = self.engine_cls(topo, ProtocolParams(f=0.9), behaviors=behaviors, seed=6)
            workload = BernoulliWorkload(topo.providers, p_valid=0.5, seed=7)
            for _ in range(15):
                engine.run_round(workload.take(16))
            engine.finalize()
            return engine

        honest = run(abuse=False)
        abused = run(abuse=True)
        # Griefing burns extra validations...
        assert abused.metrics.argues_total > honest.metrics.argues_total
        # ...but never corrupts the chain.
        report = check_all_properties(abused.ledgers(), abused.transcript)
        assert report.all_hold, report.violations
        spurious = sum(p.spurious_argues for p in abused.providers.values())
        assert spurious > 0

    def test_abuse_reseeds_no_collector_or_governor(self):
        """Draws are keyed by (agent, transaction): with abuse on, every
        collector labels and every governor screens each transaction as
        with it off, so the first block (packed before any argue) is the same."""
        topo = Topology.regular(l=8, n=4, m=4, r=2)

        def first_round(abuse):
            behaviors = {"c0": MisreportBehavior(0.5), "c1": ConcealBehavior(0.5)}
            if abuse:
                behaviors.update(dict.fromkeys(topo.providers, ArgueAbuse(0.9)))
            engine = self.engine_cls(topo, ProtocolParams(f=0.9), seed=3, behaviors=behaviors)
            engine.run_round(BernoulliWorkload(topo.providers, p_valid=0.5, seed=3).take(16))
            block = engine.store.retrieve(1)
            screened = {gid: g.metrics.unchecked for gid, g in engine.governors.items()}
            return [(r.tx.body.digest, r.label, r.status) for r in block.tx_list], screened

        assert first_round(abuse=True) == first_round(abuse=False)

    def test_unknown_abusive_provider_rejected(self):
        topo = Topology.regular(l=8, n=4, m=4, r=2)
        with pytest.raises(ConfigurationError, match="unknown collectors or providers"):
            self.engine_cls(
                topo, ProtocolParams(f=0.5), behaviors={"pX": ArgueAbuse(0.5)}
            )

    def test_behaviour_for_the_wrong_role_rejected(self):
        topo = Topology.regular(l=8, n=4, m=4, r=2)
        with pytest.raises(ConfigurationError, match="MisreportBehavior given to provider 'p0'"):
            self.engine_cls(topo, ProtocolParams(), behaviors={"p0": MisreportBehavior(0.1)})
        with pytest.raises(ConfigurationError, match="ArgueAbuse given to collector 'c0'"):
            self.engine_cls(topo, ProtocolParams(), behaviors={"c0": ArgueAbuse(0.1)})


class TestAbusiveProvidersNetworked(TestAbusiveProviders):
    engine_cls = NetworkedProtocolEngine
