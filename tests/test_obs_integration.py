"""Engine-level observability: coverage, consistency, bit-identity."""

from __future__ import annotations

import pytest

from repro.agents.behaviors import ConcealBehavior, ForgeBehavior, MisreportBehavior
from repro.core.netengine import NetworkedProtocolEngine
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.faults import FaultPlan, LinkFaultSpec
from repro.network.topology import Topology
from repro.obs import MetricsRegistry
from repro.workloads.generator import BernoulliWorkload

ROUNDS = 5
PER_ROUND = 8


def _topo():
    return Topology.regular(l=8, n=4, m=3, r=2)


def _behaviors():
    return {"c0": MisreportBehavior(0.4), "c1": ForgeBehavior(0.4), "c2": ConcealBehavior(0.3)}


def _run_networked(obs=None, faults=False):
    topo = _topo()
    engine = NetworkedProtocolEngine(
        topo,
        ProtocolParams(f=0.6, delta=0.2),
        behaviors=_behaviors(),
        seed=11,
        max_delay=0.05,
        resilience=True,
        obs=obs,
    )
    if faults:
        engine.install_faults(
            FaultPlan(seed=12).with_default_link(LinkFaultSpec(loss=0.08))
        )
    workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=13)
    for _ in range(ROUNDS):
        engine.run_round(workload.take(PER_ROUND))
    engine.finalize()
    engine.drain_recovery()
    return engine


def _run_abstract(obs=None):
    topo = _topo()
    engine = ProtocolEngine(
        topo, ProtocolParams(f=0.6), behaviors=_behaviors(), seed=11, obs=obs
    )
    workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=13)
    for _ in range(ROUNDS):
        engine.run_round(workload.take(PER_ROUND))
    engine.finalize()
    return engine


def _fingerprint(engine):
    """Everything a run determines: the chain plus every RNG's position."""
    blocks = tuple(
        b.hash() for b in engine.governors["g0"].ledger.blocks()
    )
    draws = tuple(
        float(engine.governors[g].rng.random()) for g in sorted(engine.governors)
    )
    return blocks, draws, float(engine._master.random())


class TestInstrumentation:
    @pytest.fixture(scope="class")
    def run(self):
        obs = MetricsRegistry()
        engine = _run_networked(obs=obs, faults=True)
        return engine, obs

    def test_every_subsystem_exports(self, run):
        _engine, obs = run
        prefixes = {name.split("_")[0] for name in obs.names()}
        assert {"net", "abcast", "rel", "gov", "rep", "engine"} <= prefixes

    def test_engine_counters_match_run(self, run):
        engine, obs = run
        assert obs.get("engine_rounds_total").value == ROUNDS
        assert obs.get("engine_tx_offered_total").value == ROUNDS * PER_ROUND
        assert obs.get("engine_block_size").samples()[0][1].count == ROUNDS

    def test_governor_counters_match_metrics(self, run):
        engine, obs = run
        screened = obs.get("gov_screenings_total")
        for gid, gov in engine.governors.items():
            total = screened.value_of(governor=gid, outcome="checked") + screened.value_of(
                governor=gid, outcome="unchecked"
            )
            assert total == gov.metrics.transactions_screened
            assert (
                obs.get("gov_mistakes_total").value_of(governor=gid)
                == gov.metrics.mistakes
            )

    def test_reliable_channel_counters_match_stats(self, run):
        engine, obs = run
        stats = engine.channel.stats
        assert obs.get("rel_retransmits_total").value == stats.retransmits
        assert obs.get("rel_gave_up_total").value == stats.gave_up

    def test_fault_drops_match_injector(self, run):
        engine, obs = run
        assert (
            obs.get("net_messages_dropped_total").value_of(reason="fault")
            == engine.injector.stats.dropped
        )

    def test_spans_cover_rounds(self, run):
        _engine, obs = run
        rounds = obs.spans_of("round")
        assert len(rounds) == ROUNDS
        assert [s.labels["round"] for s in rounds] == [str(i + 1) for i in range(ROUNDS)]
        assert all(s.duration > 0 for s in rounds)
        assert len(obs.spans_of("argue_phase")) == ROUNDS
        # finalize() drains too, so the explicit call makes at least two.
        assert len(obs.spans_of("drain_recovery")) >= 1

    def test_argue_spans_nest_inside_rounds(self, run):
        _engine, obs = run
        for outer, inner in zip(obs.spans_of("round"), obs.spans_of("argue_phase")):
            assert outer.start <= inner.start <= inner.end <= outer.end

    def test_resident_state_gauges_match_what_is_held(self, run):
        # Set where a round closes: finalize() and the recovery drain
        # verify nothing and observe no upload, so the last round's
        # reading is still the truth.
        engine, obs = run
        assert obs.get("crypto_sig_cache_entries").value == len(engine.im._verify_cache)
        held = obs.get("audit_evidence_entries")
        for gid, auditor in engine.auditors.items():
            assert held.value_of(auditor=gid) == len(auditor._labels) + len(auditor._votes)
            assert held.value_of(auditor=gid) >= ROUNDS * PER_ROUND

    def test_abstract_engine_exports_counters(self):
        obs = MetricsRegistry()
        _run_abstract(obs=obs)
        assert obs.get("engine_rounds_total").value == ROUNDS
        assert {"gov_screenings_total", "rep_updates_total"} <= set(obs.names())
        assert 0 < obs.get("crypto_sig_cache_entries").value
        assert obs.spans == []  # no clock, no spans


class TestBitIdentical:
    def test_abstract_engine_unchanged_by_obs(self):
        with_obs = _fingerprint(_run_abstract(obs=MetricsRegistry()))
        without = _fingerprint(_run_abstract(obs=None))
        disabled = _fingerprint(_run_abstract(obs=MetricsRegistry(enabled=False)))
        assert with_obs == without == disabled

    def test_networked_engine_unchanged_by_obs_under_faults(self):
        with_obs = _fingerprint(_run_networked(obs=MetricsRegistry(), faults=True))
        without = _fingerprint(_run_networked(obs=None, faults=True))
        assert with_obs == without

    def test_store_heights_agree(self):
        engine = _run_networked(obs=MetricsRegistry())
        assert engine.store.height == ROUNDS
