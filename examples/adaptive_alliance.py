#!/usr/bin/env python3
"""Extensions showcase: adaptive efficiency, partial visibility.

Two features this library adds beyond the paper, demonstrated on one
alliance:

1. **Adaptive f** — an AIMD controller holds the unchecked-mistake rate
   at a 2 % target while pushing f (and thus efficiency) as high as the
   collector population allows, and slams f down when sleepers defect.
2. **Partial visibility** — the engine running with governors that each
   see only a coverage-preserving subset of collectors.

Run:  python examples/adaptive_alliance.py
"""

from __future__ import annotations

from repro.agents.behaviors import HonestBehavior, MisreportBehavior, SleeperBehavior
from repro.analysis.reporting import format_table
from repro.baselines.base import PolicySimulation, ReputationPolicy
from repro.core.adaptive import AdaptiveF
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.network.topology import Topology
from repro.rng import default_rng
from repro.workloads.generator import BernoulliWorkload


def demo_adaptive_f() -> None:
    print("=== 1. adaptive f: AIMD against a sleeper phase change ===")
    controller = AdaptiveF(
        target_mistake_rate=0.02, initial_f=0.3, rate_decay=0.9
    )
    collector_ids = [f"c{i}" for i in range(8)]
    policy = ReputationPolicy(
        params=ProtocolParams(f=controller.f), collector_ids=collector_ids
    )
    behaviors = [HonestBehavior()] * 4 + [
        SleeperBehavior(1500) for _ in range(4)  # defect at tx 1500
    ]
    sim = PolicySimulation(behaviors, horizon=4000, seed=5)
    rng = default_rng(6)
    checkpoints = {750: None, 1500: None, 1700: None, 4000: None}
    step = 0
    for truth, labels in sim.stream():
        step += 1
        if not labels:
            continue
        policy.params = controller.apply_to(policy.params)
        decision = policy.screen(labels, rng)
        if not decision.checked:
            controller.observe_reveal(
                was_mistake=(decision.recorded_label is not truth)
            )
        policy.on_truth(labels, truth, decision.checked)
        if step in checkpoints:
            checkpoints[step] = controller.f
    rows = [(t, f"{f:.3f}") for t, f in checkpoints.items()]
    print(format_table(["transactions seen", "controller's f"], rows))
    print("f climbs while everyone is honest, then collapses to the floor")
    print("when the sleepers defect at tx 1500 — and stays conservative")
    print("while the recent mistake rate remains above the 2% target.")
    print(f"all-time mistake rate: {controller.observed_mistake_rate:.4f} "
          f"(target {controller.target_mistake_rate}, "
          f"recent {controller.recent_mistake_rate:.4f})")
    print()


def demo_partial_visibility() -> None:
    print("=== 2. partial visibility: thin governor views still work ===")
    topo = Topology.regular(l=12, n=6, m=4, r=3).random_partial(keep_fraction=0.0, seed=9)
    engine = ProtocolEngine(
        topo,
        ProtocolParams(f=0.6),
        behaviors={"c0": MisreportBehavior(0.6)},
        seed=10,
    )
    workload = BernoulliWorkload(topo.providers, p_valid=0.7, seed=11)
    for _ in range(20):
        engine.run_round(workload.take(24))
    engine.finalize()
    rows = []
    for gid, gov in sorted(engine.governors.items()):
        visible = ", ".join(sorted(topo.view[gid]))
        rows.append((gid, visible, gov.metrics.mistakes))
    print(format_table(["governor", "visible collectors", "mistakes"], rows))
    print(f"mean visibility: {topo.mean_visibility:.2f} "
          f"(coverage constraint keeps every provider screenable)")
    print(f"chain height: {engine.store.height} — agreement holds under partial views")


def main() -> None:
    demo_adaptive_f()
    demo_partial_visibility()


if __name__ == "__main__":
    main()
