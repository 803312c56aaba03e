"""Ablations — the DESIGN.md design-choice studies.

A1: fixed beta values vs the proof's tuned schedule.
A2: the paper's adaptive gamma rule vs a naive fixed gamma = beta.
A3: source-selection rule (reputation-proportional / uniform / greedy).
A4: argue window U — regret as truth-revelation latency grows.
"""

from __future__ import annotations

from statistics import fmean

from _helpers import emit, standard_adversary_mix
from repro.agents.behaviors import AlwaysInvertBehavior, HonestBehavior
from repro.analysis.reporting import format_table
from repro.core.game import ReputationGame

SEEDS = [0, 1, 2]
HORIZON = 2000


def _mean_loss(**kwargs) -> float:
    losses = [
        ReputationGame(
            standard_adversary_mix(), horizon=HORIZON, seed=s, **kwargs
        ).run().expected_loss
        for s in SEEDS
    ]
    return fmean(losses)


def _beta_sweep_table() -> str:
    rows = []
    for label, beta in [
        ("0.3 (fixed)", 0.3),
        ("0.5 (fixed)", 0.5),
        ("0.7 (fixed)", 0.7),
        ("0.9 (fixed)", 0.9),
        ("tuned 1-4*sqrt(log2(r)/T)", None),
    ]:
        rows.append((label, round(_mean_loss(beta=beta), 2)))
    return format_table(["beta", f"L_T at T = {HORIZON} (mean of {len(SEEDS)} seeds)"], rows)


def test_a1_beta_sweep(benchmark):
    """A1: the conceal discount beta, fixed vs tuned."""
    table = benchmark.pedantic(_beta_sweep_table, rounds=1, iterations=1)
    emit("A1_beta", "Ablation A1: beta schedule", table)


def _gamma_rule_table() -> tuple[str, float, float]:
    def liars_weight(result):
        return max(
            w for c, w in result.final_weights.items() if c not in ("c0", "c1")
        )

    behaviors = lambda: [HonestBehavior()] * 2 + [AlwaysInvertBehavior()] * 6
    paper = ReputationGame(behaviors(), horizon=HORIZON, seed=1, beta=0.9).run()
    naive = ReputationGame(
        behaviors(), horizon=HORIZON, seed=1, beta=0.9, gamma_override=0.9
    ).run()
    rows = [
        ("paper rule: gamma = max{(b-1)/L + (b+1)/2, (b^2+b)/2}",
         round(paper.expected_loss, 2), f"{liars_weight(paper):.2e}"),
        ("naive: gamma = beta (wrong == missed)",
         round(naive.expected_loss, 2), f"{liars_weight(naive):.2e}"),
    ]
    table = format_table(["gamma rule", "L_T", "max liar weight at end"], rows)
    return table, paper.expected_loss, naive.expected_loss


def test_a2_gamma_rule(benchmark):
    """A2: the adaptive gamma rule matters — naive gamma demotes slower."""
    table, paper_loss, naive_loss = benchmark.pedantic(
        _gamma_rule_table, rounds=1, iterations=1
    )
    emit("A2_gamma", "Ablation A2: adaptive vs naive mislabel discount", table)
    assert paper_loss <= naive_loss + 1e-9


def _selection_table() -> tuple[str, dict[str, float]]:
    losses = {}
    rows = []
    for rule in ("proportional", "wmajority", "uniform", "greedy"):
        loss = _mean_loss(selection=rule)
        losses[rule] = loss
        rows.append((rule, round(loss, 2)))
    return format_table(["source-selection rule", f"L_T at T = {HORIZON}"], rows), losses


def test_a3_selection_rule(benchmark):
    """A3: reputation-proportional selection vs uniform and greedy."""
    table, losses = benchmark.pedantic(_selection_table, rounds=1, iterations=1)
    emit("A3_selection", "Ablation A3: source-selection rule", table)
    assert losses["proportional"] < losses["uniform"]


def _argue_window_table() -> str:
    rows = []
    for lag in [0, 25, 100, 400, 1600]:
        rows.append((lag, round(_mean_loss(reveal_lag=lag), 2)))
    return format_table(
        ["truth latency (tx, ~ argue window U)", f"L_T at T = {HORIZON}"], rows
    )


def test_a4_argue_window(benchmark):
    """A4: regret vs revelation latency (the U discussion in Section 4.2)."""
    table = benchmark.pedantic(_argue_window_table, rounds=1, iterations=1)
    emit("A4_argue_window", "Ablation A4: truth-revelation latency", table)
