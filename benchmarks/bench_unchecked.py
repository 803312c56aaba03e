"""E2 + E3 — Lemma 2 and Theorem 3: unchecked-transaction bounds.

E2: the probability a transaction goes unchecked is at most f, across
the f grid.  E3: the unchecked *count* concentrates — the empirical
tail P[count > (f+delta)N] sits below Hoeffding's exp(-2 delta^2 N).
"""

from __future__ import annotations

from statistics import fmean

from _helpers import emit, standard_adversary_mix
from repro.analysis.reporting import format_table
from repro.analysis.stats import empirical_tail
from repro.baselines.base import PolicySimulation, ReputationPolicy
from repro.core.params import ProtocolParams
from repro.core.regret import hoeffding_tail

COLLECTOR_IDS = [f"c{i}" for i in range(8)]


def _unchecked_rate(f: float, horizon: int, seed: int) -> float:
    params = ProtocolParams(f=f)
    sim = PolicySimulation(
        standard_adversary_mix(), horizon=horizon, p_valid=0.5, seed=seed
    )
    stats = sim.run(
        ReputationPolicy(params=params, collector_ids=COLLECTOR_IDS),
        policy_seed=seed + 1,
    )
    return stats.unchecked / stats.transactions


def _lemma2_table() -> str:
    rows = []
    for f in [0.1, 0.3, 0.5, 0.7, 0.9]:
        rates = [_unchecked_rate(f, 2000, seed) for seed in range(5)]
        mean_rate = fmean(rates)
        rows.append(
            (f, round(mean_rate, 4), round(max(rates), 4), "yes" if max(rates) <= f else "NO")
        )
    return format_table(
        ["f", "mean unchecked rate", "max over seeds", "<= f (Lemma 2)"], rows
    )


def test_e2_lemma2_unchecked_rate(benchmark):
    """E2: unchecked fraction vs f."""
    table = benchmark.pedantic(_lemma2_table, rounds=1, iterations=1)
    emit("E2_lemma2", "E2 (Lemma 2): P[tx unchecked] <= f", table)


def _theorem3_table() -> str:
    f = 0.5
    params = ProtocolParams(f=f)
    rows = []
    for n in [200, 500, 1000]:
        counts = []
        for seed in range(60):
            sim = PolicySimulation(
                standard_adversary_mix(), horizon=n, p_valid=0.5, seed=seed
            )
            stats = sim.run(
                ReputationPolicy(params=params, collector_ids=COLLECTOR_IDS),
                policy_seed=seed + 1,
            )
            counts.append(float(stats.unchecked))
        for delta in [0.02, 0.05]:
            threshold = (f + delta) * n
            tail = empirical_tail(counts, threshold)
            bound = hoeffding_tail(n, delta)
            rows.append(
                (
                    n,
                    delta,
                    round(threshold, 1),
                    round(tail, 4),
                    f"{bound:.4f}",
                    "yes" if tail <= bound + 1e-9 else "NO",
                )
            )
    return format_table(
        ["N", "delta", "(f+delta)N", "empirical tail", "Hoeffding bound", "within"],
        rows,
    )


def test_e3_theorem3_concentration(benchmark):
    """E3: concentration of the unchecked count (60 seeds per N)."""
    table = benchmark.pedantic(_theorem3_table, rounds=1, iterations=1)
    emit(
        "E3_theorem3",
        "E3 (Theorem 3): P[more than (f+delta)N unchecked] <= exp(-2 delta^2 N), f = 0.5",
        table,
    )
