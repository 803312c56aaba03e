"""E1 + E4 — Theorem 1/4: governor regret vs the best collector.

Regenerates the paper's core analytical claim as a measured series:
for T in a grid, the governor's accumulated expected loss L_T vs
S_min + O(sqrt(T)).  The paper reports no numbers (poster); the shape
that must hold is (a) every point below the Theorem-1 RHS and (b) a
log-log regret slope <= ~0.5.
"""

from __future__ import annotations

from statistics import fmean

from _helpers import emit, standard_adversary_mix
from repro.analysis.regret_curves import run_regret_curve
from repro.analysis.reporting import format_table
from repro.analysis.stats import loglog_slope
from repro.core.game import ReputationGame

HORIZONS = [100, 200, 400, 800, 1600, 3200, 4800]
SEEDS = [0, 1, 2, 3, 4]


def _regret_table() -> tuple[str, float]:
    curve = run_regret_curve(
        behavior_factory=standard_adversary_mix,
        horizons=HORIZONS,
        seeds=SEEDS,
        p_valid=0.5,
    )
    rows = []
    for point in curve.points:
        rows.append(
            (
                point.horizon,
                round(point.mean_expected_loss, 2),
                round(point.mean_s_min, 2),
                round(point.mean_regret, 2),
                round(point.bound_rhs, 1),
                "yes" if point.within_bound else "NO",
            )
        )
    slope = curve.scaling_exponent()
    table = format_table(
        ["T", "L_T (mean)", "S_min (mean)", "regret", "Thm-1 RHS", "within bound"],
        rows,
    )
    table += f"\n\nlog-log regret slope vs T: {slope:.3f}  (O(sqrt(T)) -> <= 0.5 + noise)"
    return table, slope


def test_e1_theorem1_regret_curve(benchmark):
    """E1: the regret table across the horizon grid."""
    table, slope = benchmark.pedantic(_regret_table, rounds=1, iterations=1)
    emit(
        "E1_regret",
        "E1 (Theorem 1): governor expected loss vs best collector, "
        "r = 8 (2 honest / 6 adversarial), tuned beta",
        table,
    )
    assert slope <= 0.75


def _latency_table() -> str:
    rows = []
    for lag in [0, 10, 50, 200]:
        losses = []
        for seed in SEEDS:
            result = ReputationGame(
                standard_adversary_mix(), horizon=2000, seed=seed, reveal_lag=lag
            ).run()
            losses.append(result.expected_loss)
        rows.append((lag, round(fmean(losses), 2)))
    return format_table(["reveal lag V (tx)", "L_T at T = 2000"], rows)


def test_e1_latency_only_delays_updates(benchmark):
    """E1 variant: the paper's claim that latency U only delays updating."""
    table = benchmark.pedantic(_latency_table, rounds=1, iterations=1)
    emit(
        "E1_latency",
        "E1-latency: regret under delayed truth revelation "
        "(paper: 'only a latency on the updating of reputation is induced')",
        table,
    )


def _single_game() -> float:
    return ReputationGame(
        standard_adversary_mix(), horizon=1000, seed=0
    ).run().expected_loss


def test_e1_game_throughput(benchmark):
    """Timing target: one 1000-transaction reputation game."""
    loss = benchmark(_single_game)
    assert loss >= 0.0


def _theorem4_table() -> tuple[str, bool]:
    """E4: the end-to-end bound on a full protocol run.

    The engine's workload keeps one honest collector per provider, so
    the best collector's loss S is 0 and Theorem 4 reduces to
    L <= 16 sqrt(log(r) * (f + delta) * N).
    """
    from repro.agents.behaviors import (
        AlwaysInvertBehavior,
        ConcealBehavior,
        MisreportBehavior,
    )
    from repro.core.protocol import ProtocolEngine
    from repro.core.regret import theorem4_bound
    from repro.core.params import ProtocolParams
    from repro.network.topology import Topology
    from repro.workloads.generator import BernoulliWorkload

    f, delta = 0.6, 0.05
    rows = []
    all_within = True
    for seed in (0, 1, 2):
        topo = Topology.regular(l=16, n=8, m=4, r=4)
        behaviors = {
            "c2": MisreportBehavior(0.5),
            "c3": ConcealBehavior(0.5),
            "c4": AlwaysInvertBehavior(),
            "c5": MisreportBehavior(0.8),
        }
        engine = ProtocolEngine(
            topo, ProtocolParams(f=f), behaviors=behaviors, seed=seed,
        )
        workload = BernoulliWorkload(topo.providers, p_valid=0.5, seed=seed + 50)
        n_tx = 0
        for _ in range(40):
            engine.run_round(workload.take(24))
            n_tx += 24
        engine.finalize()
        gov = engine.governors["g0"]
        bound = theorem4_bound(0.0, n_tx, f, delta, topo.r)
        within = gov.metrics.expected_loss <= bound
        all_within = all_within and within
        rows.append(
            (seed, n_tx, round(gov.metrics.expected_loss, 2),
             gov.metrics.unchecked, round(bound, 1), "yes" if within else "NO")
        )
    table = format_table(
        ["seed", "N (tx)", "governor E[loss]", "unchecked", "Thm-4 RHS", "within"],
        rows,
    )
    return table, all_within


def test_e4_theorem4_end_to_end(benchmark):
    """E4: Theorem 4 over full protocol runs (S = 0: honest collectors exist)."""
    table, all_within = benchmark.pedantic(_theorem4_table, rounds=1, iterations=1)
    emit(
        "E4_theorem4",
        "E4 (Theorem 4): end-to-end governor loss vs the combined bound, "
        "f = 0.6, delta = 0.05",
        table,
    )
    assert all_within
