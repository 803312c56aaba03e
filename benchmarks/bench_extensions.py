"""Extension benches — features beyond the paper (DESIGN.md §5+).

X1: adaptive f (AIMD) vs static f — does the controller find a larger f
    at the same mistake budget, and does it react to sleeper defection?
X3: partial visibility — screening quality as each governor's collector
    view thins.
"""

from __future__ import annotations

from _helpers import emit
from repro.agents.behaviors import HonestBehavior, MisreportBehavior, SleeperBehavior
from repro.analysis.reporting import format_table
from repro.baselines.base import PolicySimulation, ReputationPolicy
from repro.core.adaptive import AdaptiveF
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.network.topology import Topology
from repro.network.visibility import VisibilityMap
from repro.workloads.generator import BernoulliWorkload

COLLECTOR_IDS = [f"c{i}" for i in range(8)]


class _AdaptivePolicy:
    """ReputationPolicy whose f follows an AdaptiveF controller."""

    def __init__(self, controller: AdaptiveF):
        self.controller = controller
        self.params = ProtocolParams(f=controller.f)
        self.inner = ReputationPolicy(params=self.params, collector_ids=COLLECTOR_IDS)

    def screen(self, labels, rng):
        self.inner.params = self.controller.apply_to(self.params)
        return self.inner.screen(labels, rng)

    def on_truth(self, labels, truth, was_checked):
        if not was_checked:
            # An unchecked record is a mistake when the recorded
            # (invalid) label contradicts the truth.
            from repro.ledger.transaction import Label

            self.controller.observe_reveal(was_mistake=(truth is Label.VALID))
        self.inner.on_truth(labels, truth, was_checked)


def _adaptive_table() -> str:
    def sleeper_mix():
        return [HonestBehavior()] * 4 + [SleeperBehavior(600) for _ in range(4)]

    horizon = 3000
    rows = []
    for name, policy_factory in [
        ("static f = 0.3", lambda: ReputationPolicy(
            params=ProtocolParams(f=0.3), collector_ids=COLLECTOR_IDS)),
        ("static f = 0.7", lambda: ReputationPolicy(
            params=ProtocolParams(f=0.7), collector_ids=COLLECTOR_IDS)),
        ("adaptive (target 2%)", lambda: _AdaptivePolicy(
            AdaptiveF(target_mistake_rate=0.02, initial_f=0.3))),
    ]:
        sim = PolicySimulation(sleeper_mix(), horizon=horizon, seed=51)
        policy = policy_factory()
        stats = sim.run(policy, policy_seed=52)
        final_f = (
            policy.controller.f if isinstance(policy, _AdaptivePolicy) else None
        )
        rows.append(
            (
                name,
                stats.validations,
                stats.mistakes,
                f"{stats.mistake_rate:.4f}",
                "-" if final_f is None else f"{final_f:.3f}",
            )
        )
    return format_table(
        ["policy", "validations", "mistakes", "mistake rate", "final f"], rows
    )


def test_x1_adaptive_f(benchmark):
    """X1: AIMD f controller vs static f under sleeper defection."""
    table = benchmark.pedantic(_adaptive_table, rounds=1, iterations=1)
    emit(
        "X1_adaptive_f",
        "X1 (extension): adaptive f vs static f, 4 honest + 4 sleepers "
        "defecting at t = 600",
        table,
    )


def _visibility_table() -> str:
    rows = []
    for keep in [1.0, 0.5, 0.25, 0.0]:
        topo = Topology.regular(l=12, n=6, m=4, r=3)
        vmap = VisibilityMap.random_partial(topo, keep_fraction=keep, seed=71)
        engine = ProtocolEngine(
            topo, ProtocolParams(f=0.6),
            behaviors={"c0": MisreportBehavior(0.6)},
            seed=72, visibility=vmap,
        )
        workload = BernoulliWorkload(topo.providers, p_valid=0.7, seed=73)
        for _ in range(25):
            engine.run_round(workload.take(24))
        engine.finalize()
        mistakes = sum(g.metrics.mistakes for g in engine.governors.values())
        screened = sum(
            g.metrics.transactions_screened for g in engine.governors.values()
        )
        rows.append(
            (
                f"{vmap.mean_visibility(topo):.2f}",
                screened,
                mistakes,
                f"{mistakes / screened:.4f}" if screened else "-",
            )
        )
    return format_table(
        ["mean visibility", "screened (all governors)", "mistakes", "mistake rate"],
        rows,
    )


def test_x3_partial_visibility(benchmark):
    """X3: screening quality as governors' collector views thin."""
    table = benchmark.pedantic(_visibility_table, rounds=1, iterations=1)
    emit(
        "X3_visibility",
        "X3 (extension): partial governor visibility (coverage-preserving)",
        table,
    )


def _griefing_table() -> str:
    """X4: argue-abuse griefing — extra validations, zero corruption."""
    topo = Topology.regular(l=12, n=6, m=4, r=3)
    rows = []
    for abuse_rate in (0.0, 0.5, 1.0):
        engine = ProtocolEngine(
            topo,
            ProtocolParams(f=0.8),
            behaviors={"c0": MisreportBehavior(0.4)},
            seed=81,
            abusive_providers=(
                {p: abuse_rate for p in topo.providers} if abuse_rate else None
            ),
        )
        workload = BernoulliWorkload(topo.providers, p_valid=0.5, seed=82)
        for _ in range(20):
            engine.run_round(workload.take(24))
        engine.finalize()
        validations = sum(g.metrics.validations for g in engine.governors.values())
        spurious = sum(p.spurious_argues for p in engine.providers.values())
        from repro.ledger.properties import check_all_properties

        ok = check_all_properties(engine.ledgers(), engine.transcript).all_hold
        rows.append((abuse_rate, engine.metrics.argues_total, spurious,
                     validations, "yes" if ok else "NO"))
    return format_table(
        ["abuse rate", "argues total", "spurious", "governor validations",
         "properties hold"],
        rows,
    )


def test_x4_argue_griefing(benchmark):
    """X4: spurious argues burn validations but cannot corrupt the chain."""
    table = benchmark.pedantic(_griefing_table, rounds=1, iterations=1)
    emit(
        "X4_griefing",
        "X4 (extension): argue-abuse griefing cost (480 tx, f = 0.8)",
        table,
    )
