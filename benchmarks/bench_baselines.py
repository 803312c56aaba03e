"""E8 — baseline comparison: the reputation mechanism vs alternatives.

All policies face identical adversary streams.  The claims to hold:
* accuracy within a whisker of check-all at a fraction of its cost;
* far fewer mistakes than no-reputation (uniform) selection;
* robust where majority vote collapses (adversarial majority) and
  where static trust collapses (sleepers).
"""

from __future__ import annotations

from _helpers import emit
from repro.agents.behaviors import (
    AlwaysInvertBehavior,
    HonestBehavior,
    MisreportBehavior,
    SleeperBehavior,
)
from repro.analysis.reporting import format_table
from repro.baselines.base import PolicySimulation, ReputationPolicy
from repro.baselines.check_all import CheckAllPolicy
from repro.baselines.check_none import CheckNonePolicy
from repro.baselines.majority_vote import MajorityVotePolicy
from repro.baselines.no_reputation import UniformSelectionPolicy
from repro.baselines.static_trust import StaticTrustPolicy
from repro.core.params import ProtocolParams

HORIZON = 3000
COLLECTOR_IDS = [f"c{i}" for i in range(8)]

MIXES = {
    "mild noise (6H/2M)": lambda: [HonestBehavior()] * 6 + [MisreportBehavior(0.4)] * 2,
    "adversarial majority (2H/6I)": lambda: [HonestBehavior()] * 2
    + [AlwaysInvertBehavior()] * 6,
    "sleepers (2H/6S)": lambda: [HonestBehavior()] * 2
    + [SleeperBehavior(150) for _ in range(6)],
}


def _policies(params: ProtocolParams):
    return {
        "reputation (paper)": lambda: ReputationPolicy(
            params=params, collector_ids=COLLECTOR_IDS
        ),
        "check-all": lambda: CheckAllPolicy(),
        "check-none": lambda: CheckNonePolicy(),
        "uniform (no reputation)": lambda: UniformSelectionPolicy(params=params),
        "majority vote": lambda: MajorityVotePolicy(),
        "static trust (flat)": lambda: StaticTrustPolicy(
            params=params, trust={c: 1.0 for c in COLLECTOR_IDS}
        ),
    }


def _baseline_table() -> tuple[str, dict]:
    params = ProtocolParams(f=0.7)
    rows = []
    cells: dict[tuple[str, str], tuple[int, int]] = {}
    for mix_name, mix_factory in MIXES.items():
        for policy_name, policy_factory in _policies(params).items():
            sim = PolicySimulation(mix_factory(), horizon=HORIZON, seed=21)
            stats = sim.run(policy_factory(), policy_seed=22)
            cells[(mix_name, policy_name)] = (stats.mistakes, stats.validations)
            rows.append(
                (
                    mix_name,
                    policy_name,
                    stats.mistakes,
                    stats.validations,
                    f"{stats.mistake_rate:.4f}",
                    f"{stats.check_rate:.3f}",
                )
            )
    table = format_table(
        ["adversary mix", "policy", "mistakes", "validations", "mistake rate", "check rate"],
        rows,
    )
    return table, cells


def test_e8_baseline_comparison(benchmark):
    """E8: mistakes and validation cost across policies x adversary mixes."""
    table, cells = benchmark.pedantic(_baseline_table, rounds=1, iterations=1)
    emit(
        "E8_baselines",
        f"E8: screening policies on identical {HORIZON}-tx streams (f = 0.7)",
        table,
    )
    adversarial = "adversarial majority (2H/6I)"
    rep_mistakes, rep_checks = cells[(adversarial, "reputation (paper)")]
    _unif_m, _ = cells[(adversarial, "uniform (no reputation)")]
    maj_m, _ = cells[(adversarial, "majority vote")]
    _all_m, all_checks = cells[(adversarial, "check-all")]
    # Who wins, by roughly what factor (the shape the paper implies):
    assert rep_mistakes < _unif_m            # reputation beats no-reputation
    assert rep_mistakes < maj_m / 10         # majority collapses vs adversarial majority
    assert rep_checks < all_checks           # and is cheaper than check-all
    sleeper = "sleepers (2H/6S)"
    rep_s, _ = cells[(sleeper, "reputation (paper)")]
    static_s, _ = cells[(sleeper, "static trust (flat)")]
    assert rep_s < static_s                  # static trust cannot demote sleepers
