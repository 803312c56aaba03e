"""Tests for leader expulsion and Byzantine-governor fault injection.

Stake transfer and expulsion are the round's (``RoundCore``), so every
case runs on the in-process engine and again, in its ``...Networked``
twin class, on the networked one.
"""

from __future__ import annotations

import pytest

from repro.core.netengine import NetworkedProtocolEngine
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.exceptions import ConfigurationError, LeaderMisbehaviourError
from repro.network.topology import Topology
from repro.workloads.generator import BernoulliWorkload


#: Under the skewed stake below, round 1's VRF elects g0 at seed 0, g1
#: at 1, g3 at 4 and 8 and g2 at 10: no assertion leans on one draw.
SEEDS = (0, 1, 4, 8, 10)


class OnEngine:
    """Builds each case's engine; a ``...Networked`` twin swaps the class."""

    engine_cls = ProtocolEngine

    def make_engine(self, seed=0, stake=None):
        topo = Topology.regular(l=8, n=4, m=4, r=2)
        return self.engine_cls(topo, ProtocolParams(f=0.5), seed=seed, stake=stake), topo


def next_leader(engine):
    """The governor the VRF elects for the next round.  A stake transfer
    elects for ``round_number + 1`` too: it does not advance the round."""
    return engine.election.run(engine.stake, engine.round_number + 1)


class TestExpulsion(OnEngine):
    def test_expelled_governor_never_leads(self):
        for seed in SEEDS:
            engine, topo = self.make_engine(seed=seed)
            # Expel the governor the VRF would elect next, so the
            # expulsion (not the draw) is what keeps it out.
            favourite = next_leader(engine)
            engine.expel_governor(favourite, reason="test")
            workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=1)
            leaders = {engine.run_round(workload.take(8)).block.proposer for _ in range(8)}
            assert favourite not in leaders
            assert leaders <= set(topo.governors) - {favourite}

    def test_expelled_governor_never_wins_vrf(self):
        engine, topo = self.make_engine(stake={"g0": 100, "g1": 1, "g2": 1, "g3": 1})
        engine.expel_governor("g0")
        workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=2)
        leaders = {engine.run_round(workload.take(8)).block.proposer for _ in range(10)}
        assert "g0" not in leaders

    def test_cannot_expel_everyone(self):
        engine, _topo = self.make_engine()
        for gid in ("g0", "g1", "g2"):
            engine.expel_governor(gid)
        with pytest.raises(ConfigurationError):
            engine.expel_governor("g3")

    def test_unknown_governor_rejected(self):
        engine, _topo = self.make_engine()
        with pytest.raises(ConfigurationError):
            engine.expel_governor("ghost")
        with pytest.raises(ConfigurationError):
            engine.mark_byzantine_governor("ghost")

    def test_expulsions_recorded(self):
        engine, _topo = self.make_engine()
        engine.expel_governor("g2", reason="equivocation")
        assert engine.expelled_governors == frozenset({"g2"})
        assert engine.expulsions == [("g2", "equivocation")]

    def test_expelled_still_replicates_chain(self):
        for seed in SEEDS:
            engine, topo = self.make_engine(seed=seed)
            favourite = next_leader(engine)
            engine.expel_governor(favourite)
            workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=3)
            for _ in range(4):
                engine.run_round(workload.take(8))
            # The expelled governor still appends every block (read path).
            assert engine.governors[favourite].ledger.height == 4


class TestByzantineLeader(OnEngine):
    def test_byzantine_leader_expelled_and_transfer_completes(self):
        for seed in SEEDS:
            engine, _topo = self.make_engine(
                seed=seed, stake={"g0": 10, "g1": 1, "g2": 1, "g3": 1}
            )
            # Mark exactly the governor the transfer will elect: it must
            # lead, tamper, and get expelled.
            leader = next_leader(engine)
            engine.mark_byzantine_governor(leader)
            engine.transfer_stake("g1", "g2", 1)
            assert engine.expelled_governors == {leader}
            # The transfer still applied, under an honest leader.
            assert engine.stake.balance("g2") == 2
            assert sum(engine.stake.snapshot().values()) == 13

    def test_all_byzantine_fails_loudly(self):
        engine, _topo = self.make_engine()
        for gid in ("g0", "g1", "g2", "g3"):
            engine.mark_byzantine_governor(gid)
        with pytest.raises((LeaderMisbehaviourError, ConfigurationError)):
            for _ in range(4):
                engine.transfer_stake("g0", "g1", 1)

    def test_honest_run_unaffected_by_marking_nonleader(self):
        engine, _topo = self.make_engine(stake={"g0": 100, "g1": 1, "g2": 1, "g3": 1})
        engine.mark_byzantine_governor("g3")  # tiny stake, rarely leads
        # Byzantine flag only matters when that governor actually leads.
        messages = engine.transfer_stake("g0", "g1", 5)
        assert messages > 0
        assert engine.stake.balance("g1") == 6


class TestExpulsionNetworked(TestExpulsion):
    engine_cls = NetworkedProtocolEngine

    def test_failover_skips_an_expelled_governor(self):
        """The elected leader crashed: the pack goes to the next governor
        of the election's order, never to an expelled one."""
        engine, topo = self.make_engine(stake={"g0": 100, "g1": 1, "g2": 1, "g3": 1})
        engine.expel_governor("g1")
        assert next_leader(engine) == "g0"
        engine.lifecycle.crash("g0")
        workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=4)
        assert engine.run_round(workload.take(8)).block.proposer == "g2"


class TestByzantineLeaderNetworked(TestByzantineLeader):
    engine_cls = NetworkedProtocolEngine
