"""Engine-level observability: coverage and consistency.

That a live registry leaves every run unchanged is the ``obs`` column of
``tests/test_parity.py``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.agents.behaviors import ConcealBehavior, ForgeBehavior, MisreportBehavior
from repro.core.params import ProtocolParams
from repro.faults.plan import FaultPlan, LinkFaultSpec
from repro.obs import MetricsRegistry
from repro.workloads.generator import BernoulliWorkload
from repro.workloads.scenarios import Scenario, build

ROUNDS = 5
PER_ROUND = 8

#: One deployment, run on either engine.
OBSERVED = Scenario(
    name="observed", description="three adversaries on the smallest regular shape",
    l=8, n=4, m=3, r=2, params=ProtocolParams(f=0.6), rounds=ROUNDS, batch=PER_ROUND,
    behavior_factory=lambda _topo: {
        "c0": MisreportBehavior(0.4), "c1": ForgeBehavior(0.4), "c2": ConcealBehavior(0.3)
    },
    workload_factory=lambda topo, seed: BernoulliWorkload(topo.providers, 0.8, seed + 1),
)


def _lossy(_topo, _seed):
    return FaultPlan(seed=12).with_default_link(LinkFaultSpec(loss=0.08))


def _run(host, obs=None, faults=None):
    """``OBSERVED`` at seed 11 on ``host`` (with its repair on ``net``)."""
    scenario = replace(OBSERVED, host=host, resilience=host == "net", faults=faults)
    engine, workload, _ = build(scenario, seed=11, obs=obs)
    for _ in range(scenario.rounds):
        engine.run_round(workload.take(scenario.batch))
    engine.finalize()
    if host == "net":
        engine.drain_recovery()
    return engine


def _governors(engine, field):
    return sum(getattr(g.metrics, field) for g in engine.governors.values())


def _books(engine, field):
    return sum(getattr(g.book, field) for g in engine.governors.values())


def _reports(engine):
    return [a.report for a in engine.auditors.values()] + [engine.harness_auditor.report]


#: Family -> what the plain records of the faulted networked run say its
#: series add up to.  Every counter and gauge the run exports is here.
RECORDS = {
    "net_messages_sent_total": lambda e: e.network.stats.messages_sent,
    "net_bytes_sent_total": lambda e: e.network.stats.bytes_sent,
    "net_messages_dropped_total": lambda e: sum(e.network.stats.drops_by_reason.values()),
    "abcast_broadcasts_total": lambda e: sum(e.broadcast._next_seqno.values()),
    "abcast_delivered_total": lambda e: sum(
        state.delivered for state in e.broadcast._state.values()
    ),
    "abcast_misrouted_dropped_total": lambda e: e.broadcast.misrouted_dropped,
    "abcast_repairs_total": lambda e: e.broadcast.repairs_requested
    + e.broadcast.repairs_served
    + e.broadcast.repairs_expired
    + e.broadcast.repairs_gave_up,
    "abcast_failover_nacks_total": lambda e: e.broadcast.failover_nacks,
    "rel_sent_total": lambda e: e.channel.stats.sent,
    "rel_delivered_total": lambda e: e.channel.stats.delivered,
    "rel_retransmits_total": lambda e: e.channel.stats.retransmits,
    "rel_duplicates_suppressed_total": lambda e: e.channel.stats.duplicates_suppressed,
    "rel_acks_total": lambda e: e.channel.stats.acks_sent,
    "rel_gave_up_total": lambda e: e.channel.stats.gave_up,
    "rel_unacked": lambda e: len(e.channel._pending),
    "engine_rounds_total": lambda e: ROUNDS,
    "engine_tx_offered_total": lambda e: ROUNDS * PER_ROUND,
    "engine_argues_total": lambda e: e.metrics.argues_total,
    "engine_crash_events_total": lambda e: len(e.fault_log),
    "gov_screenings_total": lambda e: _governors(e, "transactions_screened"),
    "gov_unchecked_ratio": lambda e: sum(
        g.metrics.unchecked / g.metrics.transactions_screened
        for g in e.governors.values()
    ),
    "gov_forgeries_total": lambda e: _governors(e, "forgeries_caught"),
    "gov_argues_served_total": lambda e: _governors(e, "argues_served"),
    "gov_mistakes_total": lambda e: _governors(e, "mistakes"),
    "rep_updates_total": lambda e: sum(
        sum(g.book.updates.values()) for g in e.governors.values()
    ),
    "rep_norm_cache_hits": lambda e: _books(e, "row_hits"),
    "rep_norm_cache_misses": lambda e: _books(e, "row_misses"),
    "crypto_sig_cache_hits": lambda e: e.im.sig_cache_hits,
    "crypto_sig_cache_misses": lambda e: e.im.sig_cache_misses,
    # Each miss leaves one verdict on the record it checked.
    "crypto_sig_cache_entries": lambda e: e.im.sig_cache_misses,
    "audit_checks_total": lambda e: sum(sum(r.checks.values()) for r in _reports(e)),
    "audit_violations_total": lambda e: sum(len(r.violations) for r in _reports(e)),
    "audit_evidence_entries": lambda e: sum(
        a.tx_evidence + a.serial_evidence for a in e.auditors.values()
    ),
    "audit_commit_votes_total": lambda e: sum(e.votes.sent.values()),
    "audit_quarantines_total": lambda e: len(e.quarantine_log),
    # An in-memory run: declared, and nothing to read.
    **dict.fromkeys(
        (
            "storage_records_appended_total",
            "storage_segments_total",
            "storage_bytes_written_total",
            "storage_checkpoints_total",
            "storage_compacted_segments_total",
            "storage_corruptions_detected_total",
            "storage_recovered_blocks_total",
            "storage_checkpoint_age_blocks",
            "storage_recovery_replay_seconds",
        ),
        lambda e: 0,
    ),
}


class TestInstrumentation:
    @pytest.fixture(scope="class")
    def run(self):
        obs = MetricsRegistry()
        engine = _run("net", obs, faults=_lossy)
        return engine, obs

    def test_every_counter_and_gauge_has_a_record(self, run):
        _engine, obs = run
        read = {m.name for m in obs.metrics() if m.kind != "histogram"}
        assert read == set(RECORDS)

    @pytest.mark.parametrize("name", RECORDS)
    def test_family_reads_its_record(self, run, name):
        engine, obs = run
        total = sum(value for _labels, value in obs._metrics[name].samples())
        assert total == pytest.approx(RECORDS[name](engine))

    def test_every_subsystem_exports(self, run):
        _engine, obs = run
        prefixes = {name.split("_")[0] for name in obs.names()}
        assert {"net", "abcast", "rel", "gov", "rep", "engine"} <= prefixes

    def test_engine_counters_match_run(self, run):
        engine, obs = run
        assert obs._metrics["engine_rounds_total"].value == ROUNDS
        assert obs._metrics["engine_tx_offered_total"].value == ROUNDS * PER_ROUND
        assert obs._metrics["engine_block_size"].samples()[0][1].count == ROUNDS

    def test_governor_counters_match_metrics(self, run):
        engine, obs = run
        screened = obs._metrics["gov_screenings_total"]
        for gid, gov in engine.governors.items():
            total = screened.value_of(governor=gid, outcome="checked") + screened.value_of(
                governor=gid, outcome="unchecked"
            )
            assert total == gov.metrics.transactions_screened
            assert (
                obs._metrics["gov_mistakes_total"].value_of(governor=gid)
                == gov.metrics.mistakes
            )

    def test_reliable_channel_counters_match_stats(self, run):
        engine, obs = run
        stats = engine.channel.stats
        assert obs._metrics["rel_retransmits_total"].value == stats.retransmits
        assert obs._metrics["rel_gave_up_total"].value == stats.gave_up

    def test_fault_drops_match_injector(self, run):
        engine, obs = run
        assert (
            obs._metrics["net_messages_dropped_total"].value_of(reason="fault")
            == engine.injector.stats.dropped
        )

    def test_spans_cover_rounds(self, run):
        _engine, obs = run
        rounds = [s for s in obs.spans if s.name == "round"]
        assert len(rounds) == ROUNDS
        assert [s.labels["round"] for s in rounds] == [str(i + 1) for i in range(ROUNDS)]
        assert all(s.duration > 0 for s in rounds)
        assert len([s for s in obs.spans if s.name == "argue_phase"]) == ROUNDS
        # finalize() drains too, so the explicit call makes at least two.
        assert len([s for s in obs.spans if s.name == "drain_recovery"]) >= 1

    def test_argue_spans_nest_inside_rounds(self, run):
        _engine, obs = run
        for outer, inner in zip([s for s in obs.spans if s.name == "round"], [s for s in obs.spans if s.name == "argue_phase"]):
            assert outer.start <= inner.start <= inner.end <= outer.end

    def test_resident_state_gauges_match_what_is_held(self, run):
        engine, obs = run
        entries = obs._metrics["crypto_sig_cache_entries"].value
        assert 0 < entries == obs._metrics["crypto_sig_cache_misses"].value
        held = obs._metrics["audit_evidence_entries"]
        for gid, auditor in engine.auditors.items():
            assert held.value_of(auditor=gid) == auditor.tx_evidence + auditor.serial_evidence
            assert held.value_of(auditor=gid) >= ROUNDS * PER_ROUND

    def test_abstract_engine_exports_counters(self):
        obs = MetricsRegistry()
        _run("inproc", obs)
        assert obs._metrics["engine_rounds_total"].value == ROUNDS
        assert {"gov_screenings_total", "rep_updates_total"} <= set(obs.names())
        assert 0 < obs._metrics["crypto_sig_cache_entries"].value
        assert obs.spans == []  # the in-process engine records no span


def test_store_heights_agree():
    engine = _run("net", MetricsRegistry())
    assert engine.store.height == ROUNDS
