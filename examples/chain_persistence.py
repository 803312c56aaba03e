#!/usr/bin/env python3
"""Operational tooling: persistence and counterfactual re-runs.

Two workflows a deployment needs that go beyond the paper:

1. **Chain persistence** — dump a governor's ledger to JSON, reload it,
   verify integrity; tampering is detected at import.
2. **Counterfactual re-run** — re-seed the run's workload generator,
   which replays the exact transaction stream, and re-run it under a
   *different* f to answer "what would the validation bill have been?".

Run:  python examples/chain_persistence.py
"""

from __future__ import annotations

import json

from repro.agents.behaviors import AlwaysInvertBehavior
from repro.analysis.reporting import format_table
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.ledger.codec import dump_chain, load_chain
from repro.network.topology import Topology
from repro.workloads.generator import BernoulliWorkload


def main() -> None:
    topo = Topology.regular(l=8, n=4, m=3, r=2)
    behaviors = {"c0": AlwaysInvertBehavior()}
    params = ProtocolParams(f=0.8)

    # --- the run ------------------------------------------------------
    engine = ProtocolEngine(topo, params, behaviors=behaviors, seed=21)
    workload = BernoulliWorkload(topo.providers, p_valid=0.9, seed=22)
    for _ in range(15):
        engine.run_round(workload.take(12))
    engine.finalize()

    # --- 1. persistence -------------------------------------------------
    print("=== 1. chain persistence (JSON codec) ===")
    text = dump_chain(engine.governors["g0"].ledger)
    restored = load_chain(text)
    restored.verify_integrity()
    print(f"dumped {restored.height} blocks, {len(text):,} bytes of JSON;")
    print("reloaded chain verifies integrity:", restored.height == engine.store.height)
    doc = json.loads(text)
    doc["blocks"][0]["proposer"] = "gX"  # tamper
    try:
        load_chain(json.dumps(doc))
        print("!! tampering NOT detected")
    except Exception as exc:
        print(f"tampered file rejected: {type(exc).__name__}")
    print()

    # --- 2. counterfactual re-run --------------------------------------
    print("=== 2. re-seeded workload: same traffic, different f ===")
    rows = []
    for f in (0.2, 0.8):
        # The same seed draws the same 180 transactions again.
        replay = BernoulliWorkload(topo.providers, p_valid=0.9, seed=22)
        engine2 = ProtocolEngine(
            topo, ProtocolParams(f=f), behaviors=dict(behaviors), seed=21
        )
        for _ in range(15):
            engine2.run_round(replay.take(12))
        engine2.finalize()
        validations = sum(g.metrics.validations for g in engine2.governors.values())
        mistakes = sum(g.metrics.mistakes for g in engine2.governors.values())
        rows.append((f, validations, mistakes))
    print(format_table(["f", "total validations", "mistakes"], rows))
    print("identical 180-tx stream; only the screening aggressiveness differs.")


if __name__ == "__main__":
    main()
