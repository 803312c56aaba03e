"""E12/E13 — fault tolerance and Byzantine resilience under seeded plans.

The poster's analysis assumes a synchronous fault-free network; these
experiments measure what the implemented recovery + audit machinery
preserves when that assumption is broken.  Four questions:

* **loss sweep** (E12) — does 5-10% per-link loss (plus duplication and
  reordering) break agreement, Lemma 2's ``P[unchecked] <= f``, or the
  Theorem-4 loss bound?  (It must not: reliable-channel retransmits and
  broadcast gap repair close every gap.)
* **crash schedules** (E12) — governor crash-recovery, sequencer
  failover, and collector churn mid-run: do live replicas agree, and how
  fast does a crashed node rejoin (sim-time latency, blocks synced)?
* **repair economics** (E12) — how much extra traffic the recovery layer
  costs (retransmits, NACKs served) at each loss rate.
* **Byzantine fraction** (E13) — with 1/4, 2/4, 3/4 of the collectors
  Byzantine (cartel + adaptive attacker), in-flight tampering, and an
  equivocating governor: does honest regret stay under the Theorem-1
  ``rwm_bound``, and how fast is the equivocator quarantined?
"""

from __future__ import annotations

from _helpers import emit
from repro.agents.behaviors import ConcealBehavior, MisreportBehavior
from repro.analysis.reporting import format_table
from repro.byzantine.scenario import install_equivocation, reputation_probe
from repro.byzantine.strategies import (
    AdaptiveAttackerBehavior,
    CartelPlan,
    ColludingCollectorBehavior,
)
from repro.byzantine.tampering import MessageTamperer, TamperSpec
from repro.core.netengine import SEQUENCER_PRIMARY, NetworkedProtocolEngine
from repro.core.params import ProtocolParams
from repro.core.regret import rwm_bound, theorem4_bound
from repro.faults.plan import FaultPlan, LinkFaultSpec
from repro.ledger.chain import check_agreement
from repro.network.topology import Topology
from repro.obs import MetricsRegistry
from repro.workloads.generator import BernoulliWorkload

F = 0.6
DELTA_T4 = 0.05
ROUNDS = 10
PER_ROUND = 8


def _build(seed: int, obs: MetricsRegistry | None = None):
    topo = Topology.regular(l=8, n=4, m=3, r=2)
    behaviors = {"c0": MisreportBehavior(0.4), "c1": ConcealBehavior(0.4)}
    engine = NetworkedProtocolEngine(
        topo,
        ProtocolParams(f=F, delta=0.2),
        behaviors=behaviors,
        seed=seed,
        resilience=True,
        obs=obs,
    )
    return engine, topo


def _run(engine, topo, seed: int, rounds: int = ROUNDS):
    workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=seed)
    for _ in range(rounds):
        engine.run_round(workload.take(PER_ROUND))
    engine.finalize()


def _live_governors(engine):
    return [
        g for g in engine.governors.values()
        if g.governor_id not in engine.crashed_nodes
    ]


def _agreement(engine) -> bool:
    live = _live_governors(engine)
    try:
        check_agreement([g.ledger for g in live])
    except Exception:
        return False
    return all(g.ledger.height == engine.store.height for g in live)


def _unchecked_rate(engine) -> float:
    live = _live_governors(engine)
    screened = sum(g.metrics.transactions_screened for g in live)
    return sum(g.metrics.unchecked for g in live) / max(screened, 1)


def _loss_sweep_table(obs: MetricsRegistry) -> tuple[str, bool, list[dict]]:
    rows = []
    structured = []
    all_ok = True
    for loss in (0.0, 0.05, 0.10):
        engine, topo = _build(seed=120, obs=obs)
        plan = FaultPlan(seed=121).with_default_link(
            LinkFaultSpec(
                loss=loss,
                duplicate=loss / 2,
                reorder=loss / 2,
                reorder_delay=0.1,
            )
        )
        engine.install_faults(plan)
        _run(engine, topo, seed=122)
        rate = _unchecked_rate(engine)
        n_tx = ROUNDS * PER_ROUND
        # One honest collector stays linked to every provider, so the
        # best collector's loss S is 0 and Theorem 4's RHS reduces to
        # the sqrt term — the O(sqrt(T)) regret shape under loss.
        bound = theorem4_bound(0.0, n_tx, F, DELTA_T4, topo.r)
        loss_t = max(g.metrics.expected_loss for g in _live_governors(engine))
        ok = (
            _agreement(engine)
            and rate <= F
            and loss_t <= bound
            and engine.broadcast.pending_gap_total() == 0
        )
        all_ok = all_ok and ok
        structured.append(
            {
                "link_loss": loss,
                "drops": engine.injector.stats.dropped,
                "retransmits": engine.channel.stats.retransmits,
                "repairs_served": engine.broadcast.repairs_served,
                "agreement": _agreement(engine),
                "unchecked_rate": rate,
                "max_expected_loss": loss_t,
                "theorem4_bound": bound,
                "stuck_gaps": engine.broadcast.pending_gap_total(),
                "ok": ok,
            }
        )
        rows.append(
            (
                f"{loss:.0%}",
                engine.injector.stats.dropped,
                engine.channel.stats.retransmits,
                engine.broadcast.repairs_served,
                "yes" if _agreement(engine) else "NO",
                round(rate, 3),
                "yes" if rate <= F else "NO",
                round(loss_t, 2),
                round(bound, 1),
                "yes" if loss_t <= bound else "NO",
                engine.broadcast.pending_gap_total(),
            )
        )
    table = format_table(
        [
            "link loss",
            "drops",
            "retransmits",
            "repairs served",
            "agreement",
            "unchecked rate",
            "<= f",
            "max E[loss]",
            "Thm-4 RHS",
            "within",
            "stuck gaps",
        ],
        rows,
    )
    return table, all_ok, structured


def _crash_schedule_table(obs: MetricsRegistry) -> tuple[str, bool, list[dict]]:
    scenarios = [
        (
            "governor crash-recovery",
            FaultPlan(seed=131).with_loss(0.10).with_crash("g1", at=0.5, recover_at=1.6),
        ),
        (
            "sequencer failover",
            FaultPlan(seed=132).with_loss(0.10).with_crash(SEQUENCER_PRIMARY, at=0.4),
        ),
        (
            "collector churn",
            FaultPlan(seed=133).with_loss(0.10).with_crash("c2", at=0.5, recover_at=1.6),
        ),
        (
            "combined (ISSUE acceptance)",
            FaultPlan(seed=134)
            .with_loss(0.10)
            .with_crash("g2", at=0.6, recover_at=1.8)
            .with_crash(SEQUENCER_PRIMARY, at=1.0),
        ),
    ]
    rows = []
    structured = []
    all_ok = True
    for name, plan in scenarios:
        engine, topo = _build(seed=140, obs=obs)
        engine.install_faults(plan)
        _run(engine, topo, seed=141)
        crash_at = {n: t for (t, kind, n, _s) in engine.fault_log if kind == "crash"}
        recoveries = [
            (n, t - crash_at[n], synced)
            for (t, kind, n, synced) in engine.fault_log
            if kind == "recover"
        ]
        latency = max((lat for _n, lat, _s in recoveries), default=0.0)
        synced = sum(s for _n, _lat, s in recoveries)
        rate = _unchecked_rate(engine)
        ok = (
            _agreement(engine)
            and rate <= F
            and engine.broadcast.pending_gap_total() == 0
        )
        all_ok = all_ok and ok
        structured.append(
            {
                "scenario": name,
                "crashes": engine.injector.stats.crashes,
                "recoveries": engine.injector.stats.recoveries,
                "recovery_latency": latency if recoveries else None,
                "blocks_synced": synced,
                "agreement": _agreement(engine),
                "unchecked_rate": rate,
                "stuck_gaps": engine.broadcast.pending_gap_total(),
                "ok": ok,
            }
        )
        rows.append(
            (
                name,
                engine.injector.stats.crashes,
                engine.injector.stats.recoveries,
                round(latency, 2) if recoveries else "-",
                synced,
                "yes" if _agreement(engine) else "NO",
                round(rate, 3),
                engine.broadcast.pending_gap_total(),
            )
        )
    table = format_table(
        [
            "scenario",
            "crashes",
            "recoveries",
            "recovery latency (s)",
            "blocks synced",
            "agreement",
            "unchecked rate",
            "stuck gaps",
        ],
        rows,
    )
    return table, all_ok, structured


def _e12_tables() -> tuple[str, bool, dict, MetricsRegistry]:
    # One registry across all scenarios: the observability snapshot in
    # BENCH_E12_faults.json then totals the whole experiment's traffic
    # (drops, retransmits, repairs, crash events, ...).
    obs = MetricsRegistry()
    sweep, sweep_ok, sweep_metrics = _loss_sweep_table(obs)
    crash, crash_ok, crash_metrics = _crash_schedule_table(obs)
    text = (
        "-- loss sweep (10 rounds x 8 tx, dup/reorder at half the loss rate) --\n"
        f"{sweep}\n\n"
        "-- seeded crash schedules (10% link loss throughout) --\n"
        f"{crash}"
    )
    metrics = {
        "loss_sweep": sweep_metrics,
        "crash_schedules": crash_metrics,
        "all_ok": sweep_ok and crash_ok,
    }
    return text, sweep_ok and crash_ok, metrics, obs


def test_e12_fault_tolerance(benchmark):
    """E12: safety invariants under loss, crashes, and failover."""
    text, all_ok, metrics, obs = benchmark.pedantic(
        _e12_tables, rounds=1, iterations=1
    )
    emit(
        "E12_faults",
        "E12 (fault tolerance): agreement, Lemma 2, and Theorem 4 under "
        f"seeded fault plans, f = {F}",
        text,
        metrics=metrics,
        registry=obs,
    )
    assert all_ok


# -- E13: Byzantine-fraction sweep --------------------------------------

#: The round in which the Byzantine governor equivocates its commit vote
#: (one block per round, so serial == round).
EQUIVOCATE_SERIAL = 3


def _byzantine_sweep_table(obs: MetricsRegistry) -> tuple[str, bool, list[dict]]:
    """Escalate the Byzantine collector fraction with the auditor on.

    Every run also carries in-flight tampering and a governor that
    equivocates its commit vote at serial 3; ``c0`` always stays honest
    (the paper's "at least one well-behaved collector" premise).
    """
    cartel = CartelPlan(target_provider="p0", mode="conceal")
    rows = []
    structured = []
    all_ok = True
    for n_byz in (1, 2, 3):
        adaptive = AdaptiveAttackerBehavior(defect_above=0.8, p_defect=0.5)
        roster = [
            ("c1", ColludingCollectorBehavior(cartel)),
            ("c2", ColludingCollectorBehavior(cartel)),
            ("c3", adaptive),
        ]
        behaviors = dict(roster[:n_byz])
        topo = Topology.regular(l=8, n=4, m=3, r=2)
        engine = NetworkedProtocolEngine(
            topo,
            ProtocolParams(f=F, delta=0.2),
            behaviors=behaviors,
            seed=150 + n_byz,
            resilience=True,
            obs=obs,
        )
        if "c3" in behaviors:
            adaptive.bind_probe(reputation_probe(engine, "g0", "c3"))
        tamperer = MessageTamperer(
            TamperSpec(
                strip_signature=0.05, flip_label=0.05, replay=0.05,
                corrupt_block=0.10,
            ),
            seed=160 + n_byz,
            obs=obs,
        )
        engine.install_faults(FaultPlan(seed=170 + n_byz), tamperer=tamperer)
        install_equivocation(engine, "g2", serial=EQUIVOCATE_SERIAL)
        _run(engine, topo, seed=180 + n_byz)

        honest = [
            gid for gid in topo.governors if gid not in engine.quarantined_nodes
        ]
        try:
            check_agreement([engine.governors[gid].ledger for gid in honest])
            agreement = True
        except Exception:
            agreement = False
        safety = sum(
            len(engine.auditors[gid].report.safety_violations()) for gid in honest
        ) + len(engine.harness_auditor.report.safety_violations())
        regret = max(
            engine.governors[gid].metrics.expected_loss for gid in honest
        )
        bound = rwm_bound(s_min=0.0, r=topo.r, beta=engine.params.beta)
        caught = [
            rnd for (_t, rnd, node, _v) in engine.quarantine_log if node == "g2"
        ]
        latency = caught[0] - EQUIVOCATE_SERIAL if caught else None
        ok = (
            agreement
            and safety == 0
            and regret <= bound
            and latency is not None
            and latency <= 2
        )
        all_ok = all_ok and ok
        structured.append(
            {
                "byzantine_collectors": n_byz,
                "byzantine_fraction": n_byz / 4,
                "tampered_messages": tamperer.stats.total,
                "agreement": agreement,
                "safety_violations": safety,
                "max_honest_regret": regret,
                "rwm_bound": bound,
                "equivocator_quarantined": bool(caught),
                "quarantine_latency_rounds": latency,
                "ok": ok,
            }
        )
        rows.append(
            (
                f"{n_byz}/4",
                tamperer.stats.total,
                "yes" if agreement else "NO",
                safety,
                round(regret, 2),
                round(bound, 2),
                "yes" if regret <= bound else "NO",
                "yes" if caught else "NO",
                latency if latency is not None else "-",
            )
        )
    table = format_table(
        [
            "byz collectors",
            "tampered msgs",
            "agreement",
            "safety viols",
            "max honest regret",
            "rwm bound",
            "within",
            "equivocator caught",
            "latency (rounds)",
        ],
        rows,
    )
    return table, all_ok, structured


def _e13_tables() -> tuple[str, bool, dict, MetricsRegistry]:
    obs = MetricsRegistry()
    sweep, ok, sweep_metrics = _byzantine_sweep_table(obs)
    text = (
        "-- Byzantine-fraction sweep (10 rounds x 8 tx; cartel + adaptive "
        "collectors, in-flight tampering, governor equivocation at serial "
        f"{EQUIVOCATE_SERIAL}; auditor + quarantine on) --\n"
        f"{sweep}"
    )
    metrics = {"byzantine_sweep": sweep_metrics, "all_ok": ok}
    return text, ok, metrics, obs


def test_e13_byzantine_fractions(benchmark):
    """E13: Theorem-1 regret and quarantine latency vs Byzantine fraction."""
    text, all_ok, metrics, obs = benchmark.pedantic(
        _e13_tables, rounds=1, iterations=1
    )
    emit(
        "E13_byzantine",
        "E13 (Byzantine resilience): honest regret vs rwm_bound and "
        "equivocator quarantine latency as the Byzantine collector "
        f"fraction grows, f = {F}",
        text,
        metrics=metrics,
        registry=obs,
    )
    assert all_ok
