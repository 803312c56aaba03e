#!/usr/bin/env python3
"""Operational tooling: persistence and replay.

Two workflows a deployment needs that go beyond the paper:

1. **Chain persistence** — dump a governor's ledger to JSON, reload it,
   verify integrity; tampering is detected at import.
2. **Workload replay** — capture the exact transaction stream of a run,
   then re-run it under a *different* f to answer "what would the
   validation bill have been?" counterfactually.

Run:  python examples/chain_persistence.py
"""

from __future__ import annotations

import json

from repro.agents.behaviors import AlwaysInvertBehavior
from repro.analysis import format_table
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.ledger.codec import dump_chain, load_chain
from repro.network.topology import Topology
from repro.workloads.generator import BernoulliWorkload
from repro.workloads.replay import RecordingWorkload, ReplayWorkload


def main() -> None:
    topo = Topology.regular(l=8, n=4, m=3, r=2)
    behaviors = {"c0": AlwaysInvertBehavior()}
    params = ProtocolParams(f=0.8)

    # --- run with recording ------------------------------------------
    engine = ProtocolEngine(topo, params, behaviors=behaviors, seed=21)
    recorder = RecordingWorkload(BernoulliWorkload(topo.providers, p_valid=0.9, seed=22))
    for _ in range(15):
        engine.run_round(recorder.take(12))
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

    # --- 2. counterfactual replay ---------------------------------------
    print("=== 2. workload replay: same traffic, different f ===")
    rows = []
    for f in (0.2, 0.8):
        replay = ReplayWorkload(recorder.recorded)
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
