"""Golden matrix: pinned ledgers for every engine that runs the round.

``tests/test_golden.py`` pins three block hashes of one in-process run.
This file pins the *end state* — tip hash, height, and the
``reputation_digest`` of every governor's book (plus the final
simulated clock where there is one) — of a small seeded matrix that
covers each execution shape the paper's round runs under:

* ``ProtocolEngine`` on every ``inproc`` preset of ``SCENARIOS``, plus a
  partial-visibility run and an abusive-provider run;
* ``NetworkedProtocolEngine`` with ``resilience`` off and on (the latter
  under an installed ``FaultPlan`` with loss, duplication and a crash),
  and once through every way a node leaves and rejoins: a collector
  and a governor crash and recover, a second governor equivocates, is
  quarantined on forwarded evidence and is released again;
* ``StreamingApp`` on every ``stream`` preset over a small universe
  with retirement on;
* one ``shard`` preset on the serial backend, and the S=4
  preset with epoch reshuffles under a seeded per-shard ``FaultPlan``
  with ``resilience`` on — once in-process and once on two worker
  processes (two shards each), pinned to the same values;
* one ``net`` preset on a segment log, across a close / reopen.

The expected values live in ``tests/golden_matrix.json``.  A refactor
must leave them byte-for-byte unchanged.  If a change legitimately
alters a draw sequence or a hash input, regenerate the file with::

    PYTHONPATH=src python tests/test_golden_matrix.py --regen

and justify the new values in the commit that carries them.
"""

from __future__ import annotations

import json
import sys
import tempfile
from functools import partial
from pathlib import Path

import pytest

from repro.agents.behaviors import ConcealBehavior, MisreportBehavior
from repro.byzantine.scenario import install_equivocation
from repro.core.netengine import NetworkedProtocolEngine
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.faults.plan import FaultPlan, LinkFaultSpec
from repro.network.topology import Topology
from repro.network.visibility import VisibilityMap
from repro.sharding import ShardCoordinator
from repro.storage.checkpoints import reputation_digest
from repro.workloads.generator import BernoulliWorkload
from repro.workloads.scenarios import SCENARIOS, build
from repro.workloads.xshard import CrossShardWorkload

GOLDEN_FILE = Path(__file__).with_name("golden_matrix.json")
SEED = 7
#: Rounds per in-process preset: enough for argues, forgeries and
#: re-evaluated records to reach a block, short enough for tier-1.
INPROC_ROUNDS = 6
#: Small enough that the book digest (which walks every member) is
#: cheap, and divisible as every streaming preset's link degrees need.
STREAM_UNIVERSE = 240


def _fingerprint(engine, clock: float | None = None) -> dict:
    """Tip hash, height and book digest of one engine's end state."""
    height = engine.store.height
    out = {
        "tip": engine.store.retrieve(height).hash().hex() if height else "",
        "height": height,
        "books": reputation_digest(
            {gid: gov.book for gid, gov in engine.governors.items()}
        ).hex(),
    }
    if clock is not None:
        out["clock"] = repr(clock)
    return out


def _inproc_preset(name: str) -> dict:
    engine, workload, scenario = build(name, seed=SEED)
    for _ in range(INPROC_ROUNDS):
        engine.run_round(workload.take(scenario.batch))
    engine.finalize()
    return _fingerprint(engine)


def _inproc_custom(**kwargs) -> dict:
    topo = Topology.regular(l=8, n=4, m=3, r=2)
    if kwargs.pop("partial_view", False):
        kwargs["visibility"] = VisibilityMap.random_partial(topo, 0.3, seed=SEED)
    engine = ProtocolEngine(
        topo,
        ProtocolParams(f=0.6),
        behaviors={"c0": MisreportBehavior(0.4), "c1": ConcealBehavior(0.4)},
        seed=SEED,
        **kwargs,
    )
    workload = BernoulliWorkload(topo.providers, p_valid=0.6, seed=SEED + 1)
    for _ in range(INPROC_ROUNDS):
        engine.run_round(workload.take(12))
    engine.finalize()
    return _fingerprint(engine)


def _networked(resilience: bool) -> dict:
    topo = Topology.regular(l=8, n=4, m=3, r=2)
    engine = NetworkedProtocolEngine(
        topo,
        ProtocolParams(f=0.6, delta=0.2),
        behaviors={"c0": MisreportBehavior(0.4), "c1": ConcealBehavior(0.4)},
        seed=SEED,
        resilience=resilience,
    )
    if resilience:
        engine.install_faults(
            FaultPlan(seed=SEED + 2)
            .with_default_link(LinkFaultSpec(loss=0.05, duplicate=0.1))
            .with_crash("g1", at=0.5, recover_at=1.3)
        )
    workload = BernoulliWorkload(topo.providers, p_valid=0.6, seed=SEED + 1)
    for _ in range(5):
        engine.run_round(workload.take(8))
    engine.run_round([])
    engine.finalize()
    return _fingerprint(engine, clock=engine.sim.now)


def _networked_churn_quarantine() -> dict:
    """Crash/recover a collector and a governor, quarantine/release another."""
    topo = Topology.regular(l=8, n=4, m=4, r=2)
    engine = NetworkedProtocolEngine(
        topo,
        ProtocolParams(f=0.6, delta=0.2),
        behaviors={"c0": MisreportBehavior(0.4), "c1": ConcealBehavior(0.4)},
        seed=SEED,
        resilience=True,
    )
    engine.install_faults(
        FaultPlan(seed=SEED + 2)
        .with_default_link(LinkFaultSpec(loss=0.05, duplicate=0.1))
        .with_crash("c2", at=0.5, recover_at=1.3)
        .with_crash("g1", at=1.0, recover_at=1.8)
    )
    # g3 sends its real hash to g0 and a signed fake to g1 and g2, so g0
    # can only complete the proof from a vote one of them forwards.
    install_equivocation(engine, "g3", serial=2)
    workload = BernoulliWorkload(topo.providers, p_valid=0.6, seed=SEED + 1)
    for _ in range(3):
        engine.run_round(workload.take(8))
    assert engine.quarantined_nodes == {"g3"}
    for _ in range(2):
        engine.run_round(workload.take(8))
    engine.lifecycle.release_quarantine("g3")
    for _ in range(2):
        engine.run_round(workload.take(8))
    engine.finalize()
    assert not engine.crashed_nodes and not engine.quarantined_nodes
    return {
        **_fingerprint(engine, clock=engine.sim.now),
        "fault_log": [[repr(t), *rest] for t, *rest in engine.fault_log],
        "quarantine_log": [[repr(t), *rest] for t, *rest in engine.quarantine_log],
    }


def _streaming(name: str) -> dict:
    runner, _, scenario = build(name, seed=SEED, universe=STREAM_UNIVERSE)
    runner.run(scenario.rounds)
    runner.finalize()
    assert runner.metrics.retirements > 0, "retirement never exercised"
    return _fingerprint(runner)


def _sharded() -> dict:
    coordinator, workload, scenario = build("sharded-smoke", seed=SEED)
    try:
        for _ in range(scenario.rounds):
            coordinator.submit(workload.take(scenario.batch))
            coordinator.run_super_round()
        coordinator.finalize()
        shards = [_fingerprint(engine) for engine in coordinator.engines]
        return {"shards": shards, "clock": repr(coordinator.now)}
    finally:
        coordinator.close()


def _sharded_quad_faults(workers: int | None) -> dict:
    """What either backend can report: engines may live in other processes."""
    scenario = SCENARIOS["sharded-quad"]
    sharded = Topology.sharded(
        l=scenario.l, n=scenario.n, m=scenario.m, r=scenario.r, shards=scenario.shards
    )
    coordinator = ShardCoordinator(
        sharded,
        scenario.params,
        seed=SEED,
        epoch_rounds=scenario.epoch_rounds,
        resilience=True,
        workers=workers,
    )
    try:
        for k in range(scenario.shards):
            coordinator.install_faults(
                k,
                FaultPlan(seed=SEED + 50 + k).with_default_link(
                    LinkFaultSpec(loss=0.02, duplicate=0.05)
                ),
            )
        providers = [p for topo in sharded.shards for p in topo.providers]
        workload = CrossShardWorkload(
            BernoulliWorkload(providers, p_valid=0.8, seed=SEED + 1),
            sharded.provider_shard,
            p_cross=scenario.p_cross,
            seed=SEED + 2,
        )
        for _ in range(scenario.rounds):
            coordinator.submit(workload.take(scenario.batch))
            coordinator.run_super_round()
        coordinator.finalize()
        assert coordinator.reshuffle_log, "no epoch reshuffle exercised"
        return {
            "tips": coordinator.tip_hashes(),
            "heights": [s.height for s in coordinator.chain_stats()],
            "committed": coordinator.committed_total,
            "clock": repr(coordinator.now),
        }
    finally:
        coordinator.close()


def _durable_reopen() -> dict:
    with tempfile.TemporaryDirectory() as directory:
        first, workload, scenario = build(
            "durable-smoke", seed=SEED, storage_dir=directory
        )
        for _ in range(4):
            first.run_round(workload.take(scenario.batch))
        del first
        engine, _, _ = build("durable-smoke", seed=SEED, storage_dir=directory)
        assert engine.recovery_report.clean
        for _ in range(2):
            engine.run_round(workload.take(scenario.batch))
        engine.finalize()
        return _fingerprint(engine)


def _presets(host: str) -> list[str]:
    return sorted(name for name, s in SCENARIOS.items() if s.host == host)


CASES = {
    **{f"inproc/{name}": partial(_inproc_preset, name) for name in _presets("inproc")},
    "inproc/visibility": partial(_inproc_custom, partial_view=True),
    "inproc/abusive-providers": partial(
        _inproc_custom, abusive_providers={f"p{k}": 0.9 for k in range(8)}
    ),
    "networked/plain": partial(_networked, resilience=False),
    "networked/resilient-faults": partial(_networked, resilience=True),
    "networked/churn-quarantine": _networked_churn_quarantine,
    **{f"streaming/{name}": partial(_streaming, name) for name in _presets("stream")},
    "sharded/sharded-smoke": _sharded,
    "sharded/quad-faults-inprocess": partial(_sharded_quad_faults, None),
    "sharded/quad-faults-workers2": partial(_sharded_quad_faults, 2),
    "durable/durable-smoke-reopen": _durable_reopen,
}


@pytest.mark.parametrize("case", list(CASES))
def test_golden_matrix(case):
    expected = json.loads(GOLDEN_FILE.read_text())
    assert case in expected, f"{case} missing from {GOLDEN_FILE.name}; see header"
    assert CASES[case]() == expected[case]


def test_sharded_quad_is_pinned_identically_on_both_backends():
    expected = json.loads(GOLDEN_FILE.read_text())
    assert (
        expected["sharded/quad-faults-workers2"]
        == expected["sharded/quad-faults-inprocess"]
    )


def test_golden_file_has_no_stale_cases():
    assert sorted(json.loads(GOLDEN_FILE.read_text())) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(__doc__)
    GOLDEN_FILE.write_text(
        json.dumps({case: run() for case, run in CASES.items()}, indent=2, sort_keys=True)
        + "\n"
    )
    print(f"wrote {len(CASES)} cases to {GOLDEN_FILE}")
