"""Parity table: every way of running a seeded case commits the same run.

The paper's Agreement, No-Skipping and Validity properties are checkable
because a seed fixes the ledger.  This module asserts that promise as a
table of **case × column**.  A *case* is one seeded deployment: every
``inproc`` and ``stream`` preset, partial visibility, abusive providers,
the networked engine plain, faulted, and through every way a node leaves
and rejoins, two sharded deployments (S=4 with epoch reshuffles under
link faults) and a durable run across a reopen.  A *column* reruns the
case another way and must reproduce the ``pin`` run's :func:`fingerprint`:

``pin``      the reference run; its pinned view is ``golden_matrix.json``;
``obs``      with a live ``MetricsRegistry()``;
``pool``     on two worker processes (``pool_pin`` holds that run to
             ``golden_matrix.json`` itself);
``disk``     on a segment log that checkpoints, rolls and compacts;
``restart``  dropped after 2 rounds, reopened and filled from a peer
             (chain, replicas and audit: a restart re-seeds every RNG);
``tcp``      over real sockets to two custodian processes;
``reseed``   at seed + 1, which must *differ*.

A failing row writes ``$PARITY_REPORT_DIR/<column>-<case>.json`` (default
``parity-report/``; ``/`` in a case name becomes ``-``) with both
fingerprints.  If a change legitimately alters a draw sequence or a hash
input, regenerate the pins with::

    PYTHONPATH=src python tests/test_parity.py --regen

and justify the new values in the commit that carries them.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from contextlib import closing, contextmanager
from dataclasses import asdict
from functools import cache, partial
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from repro.agents.behaviors import ConcealBehavior, MisreportBehavior
from repro.byzantine.scenario import install_equivocation
from repro.core.netengine import NetworkedProtocolEngine
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.faults.plan import FaultPlan, LinkFaultSpec
from repro.network.cluster import launch_custodians
from repro.network.realnet import RealNetwork
from repro.network.topology import Topology
from repro.network.visibility import VisibilityMap
from repro.obs import MetricsRegistry
from repro.sharding import ShardCoordinator
from repro.storage import StorageConfig
from repro.storage.checkpoints import reputation_digest
from repro.workloads.generator import BernoulliWorkload
from repro.workloads.scenarios import SCENARIOS, build
from repro.workloads.xshard import CrossShardWorkload

GOLDEN_FILE = Path(__file__).with_name("golden_matrix.json")
REPORT_DIR = Path(os.environ.get("PARITY_REPORT_DIR", "parity-report"))
SEED = 7
#: Rounds per in-process preset: enough for argues, forgeries and
#: re-evaluated records to reach a block, short enough for tier-1.
INPROC_ROUNDS = 6
#: Small enough that the book digest (which walks every member) is
#: cheap, and divisible as every streaming preset's link degrees need.
STREAM_UNIVERSE = 240


def _chain(engine) -> dict:
    """Tip hash, height and book digest: what every engine case pins."""
    height = engine.store.height
    books = {gid: gov.book for gid, gov in engine.governors.items()}
    return {
        "tip": engine.store.retrieve(height).hash().hex() if height else "",
        "height": height,
        "books": reputation_digest(books).hex(),
    }


def fingerprint(deployment, report) -> dict:
    """Everything a finished run determines, read the way its host allows.

    For an engine: the chain, every governor replica's (height, tip), the
    audit, the next draw of every governor's RNG and of the master RNG,
    and on the networked engine the clock and the fault and quarantine
    logs.  For a coordinator: what either backend reports, plus each
    shard engine's chain when the engines live in this process.
    """
    audit = [
        [v.type.value, v.culprit, v.round_number, v.serial] for v in report.violations
    ]
    if isinstance(deployment, ShardCoordinator):
        stats = deployment.chain_stats()
        out = {
            "tips": deployment.tip_hashes(),
            "heights": [s.height for s in stats],
            "committed": deployment.committed_total,
            "clock": repr(deployment.now),
            "stats": [asdict(s) for s in stats],
            "faults": sorted(deployment.fault_stats().items()),
            "reshuffles": deployment.reshuffle_log,
            "quarantine": deployment.quarantine_logs(),
            "audit": audit,
        }
        if deployment.backend.kind == "serial":
            out["shards"] = [_chain(engine) for engine in deployment.engines]
        return out
    governors = sorted(deployment.governors.items())
    out = {
        **_chain(deployment),
        "replicas": {
            gid: [g.ledger.height, g.ledger.tip_hash().hex()] for gid, g in governors
        },
        "audit": audit,
        "draws": [repr(float(g.rng.random())) for _, g in governors]
        + [repr(float(deployment._master.random()))],
    }
    if isinstance(deployment, NetworkedProtocolEngine):
        out["clock"] = repr(deployment.sim.now)
        for log in ("fault_log", "quarantine_log"):
            out[log] = [[repr(t), *rest] for t, *rest in getattr(deployment, log)]
    return out


# -- the cases ----------------------------------------------------------------
#
# A runner builds its deployment, drives it to the end and yields it with
# its audit report; the deployment is closed when the ``with`` ends, however
# it ends.  Its keyword options (``obs``, ``workers``, ``storage``,
# ``network_factory``) are the columns' ways of rerunning the case.


@contextmanager
def _inproc_preset(name: str, seed: int, **how):
    engine, workload, scenario = build(name, seed=seed, **how)
    with closing(engine):
        for _ in range(INPROC_ROUNDS):
            engine.run_round(workload.take(scenario.batch))
        engine.finalize()
        yield engine, engine.audit_report


@contextmanager
def _inproc_custom(seed: int, partial_view: bool = False, **how):
    topo = Topology.regular(l=8, n=4, m=3, r=2)
    if partial_view:
        how["visibility"] = VisibilityMap.random_partial(topo, 0.3, seed=seed)
    behaviors = {"c0": MisreportBehavior(0.4), "c1": ConcealBehavior(0.4)}
    engine = ProtocolEngine(topo, ProtocolParams(f=0.6), behaviors, seed=seed, **how)
    workload = BernoulliWorkload(topo.providers, p_valid=0.6, seed=seed + 1)
    with closing(engine):
        for _ in range(INPROC_ROUNDS):
            engine.run_round(workload.take(12))
        engine.finalize()
        yield engine, engine.audit_report


def _net_engine(case: str, seed: int, **how):
    """A ``networked/*`` case's engine, faults installed, and its workload."""
    churn = case == "networked/churn-quarantine"
    topo = Topology.regular(l=8, n=4, m=4 if churn else 3, r=2)
    engine = NetworkedProtocolEngine(
        topo,
        ProtocolParams(f=0.6, delta=0.2),
        behaviors={"c0": MisreportBehavior(0.4), "c1": ConcealBehavior(0.4)},
        seed=seed,
        resilience=case != "networked/plain",
        **how,
    )
    plan = FaultPlan(seed=seed + 2)
    plan.with_default_link(LinkFaultSpec(loss=0.05, duplicate=0.1))
    if churn:
        plan.with_crash("c2", at=0.5, recover_at=1.3)
        engine.install_faults(plan.with_crash("g1", at=1.0, recover_at=1.8))
        # g3 sends its real hash to g0 and a signed fake to g1 and g2, so
        # g0 can only complete the proof from a vote one of them forwards.
        install_equivocation(engine, "g3", serial=2)
    elif case == "networked/resilient-faults":
        engine.install_faults(plan.with_crash("g1", at=0.5, recover_at=1.3))
    return engine, BernoulliWorkload(topo.providers, p_valid=0.6, seed=seed + 1)


@contextmanager
def _networked(case: str, seed: int, **how):
    engine, workload = _net_engine(case, seed, **how)
    with closing(engine):
        for _ in range(5):
            engine.run_round(workload.take(8))
        engine.run_round([])
        engine.finalize()
        yield engine, engine.harness_auditor.report


@contextmanager
def _churn_quarantine(seed: int, **how):
    """Crash/recover a collector and a governor, quarantine/release another."""
    engine, workload = _net_engine("networked/churn-quarantine", seed, **how)
    with closing(engine):
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
        yield engine, engine.harness_auditor.report


@contextmanager
def _streaming(name: str, seed: int, **how):
    app, _, scenario = build(name, seed=seed, universe=STREAM_UNIVERSE, **how)
    with closing(app):
        app.run(scenario.rounds)
        app.finalize()
        assert app.metrics.retirements > 0, "retirement never exercised"
        yield app, app.audit_report


def _sound(coordinator: ShardCoordinator):
    """Finalize, and hold the run to what every sharded deployment promises."""
    report = coordinator.finalize()
    assert report.clean, [str(v) for v in report.violations]
    assert all(s.properties_hold for s in coordinator.chain_stats())
    return coordinator, report


@contextmanager
def _sharded_smoke(seed: int, **how):
    coordinator, workload, scenario = build("sharded-smoke", seed=seed, **how)
    with closing(coordinator):
        for _ in range(scenario.rounds):
            coordinator.run_round(workload.take(scenario.batch))
        yield _sound(coordinator)


@contextmanager
def _sharded_quad_faults(seed: int, **how):
    """S=4 with epoch reshuffles and receipts in flight under link faults."""
    scenario = SCENARIOS["sharded-quad"]
    sharded = scenario.topology()
    coordinator = ShardCoordinator(
        sharded, scenario.params, seed=seed,
        epoch_rounds=scenario.epoch_rounds, resilience=True, **how,
    )
    with closing(coordinator):
        for k in range(scenario.shards):
            plan = FaultPlan(seed=seed + 50 + k)
            plan.with_default_link(LinkFaultSpec(loss=0.02, duplicate=0.05))
            coordinator.install_faults(k, plan)
        providers = [p for topo in sharded.shards for p in topo.providers]
        workload = CrossShardWorkload(
            BernoulliWorkload(providers, p_valid=0.8, seed=seed + 1),
            sharded.provider_shard, p_cross=scenario.p_cross, seed=seed + 2,
        )
        for _ in range(scenario.rounds):
            coordinator.run_round(workload.take(scenario.batch))
        assert coordinator.reshuffle_log, "no epoch reshuffle exercised"
        yield _sound(coordinator)


@contextmanager
def _durable_reopen(seed: int, **how):
    with tempfile.TemporaryDirectory() as directory:
        how["storage_dir"] = directory
        first, workload, scenario = build("durable-smoke", seed=seed, **how)
        for _ in range(4):
            first.run_round(workload.take(scenario.batch))
        del first
        engine, _, _ = build("durable-smoke", seed=seed, **how)
        with closing(engine):
            assert engine.recovery_report.clean
            for _ in range(2):
                engine.run_round(workload.take(scenario.batch))
            engine.finalize()
            yield engine, engine.harness_auditor.report


class Row(NamedTuple):
    runner: Callable
    #: The fingerprint keys ``golden_matrix.json`` pins for this case.
    pin: tuple[str, ...]


def _presets(host: str) -> list[str]:
    return sorted(name for name, s in SCENARIOS.items() if s.host == host)


CHAIN = ("tip", "height", "books")
CASES = {
    **{
        f"inproc/{n}": Row(partial(_inproc_preset, n), CHAIN)
        for n in _presets("inproc")
    },
    "inproc/visibility": Row(partial(_inproc_custom, partial_view=True), CHAIN),
    "inproc/abusive-providers": Row(
        partial(_inproc_custom, abusive_providers={f"p{k}": 0.9 for k in range(8)}),
        CHAIN,
    ),
    **{
        case: Row(partial(_networked, case), (*CHAIN, "clock"))
        for case in ("networked/plain", "networked/resilient-faults")
    },
    "networked/churn-quarantine": Row(
        _churn_quarantine, (*CHAIN, "clock", "fault_log", "quarantine_log")
    ),
    **{
        f"streaming/{n}": Row(partial(_streaming, n), CHAIN)
        for n in _presets("stream")
    },
    "sharded/sharded-smoke": Row(_sharded_smoke, ("shards", "clock")),
    "sharded/quad-faults-inprocess": Row(
        _sharded_quad_faults, ("tips", "heights", "committed", "clock")
    ),
    "durable/durable-smoke-reopen": Row(_durable_reopen, CHAIN),
}
NETWORKED = [case for case in CASES if case.startswith("networked/")]
SHARDED = [case for case in CASES if case.startswith("sharded/")]
#: Sharded cases whose pins a pool run can read: no per-shard engine chain.
POOL_PINNED = [case for case in SHARDED if "shards" not in CASES[case].pin]
RESTART = ["networked/plain", "networked/resilient-faults"]
#: What a restart reproduces: its RNGs, clock and books start afresh.
RESTART_KEYS = ("tip", "height", "replicas", "audit")
#: One case per host family.
RESEED = [
    "inproc/smoke",
    "networked/plain",
    "streaming/stream-smoke",
    "sharded/sharded-smoke",
    "durable/durable-smoke-reopen",
]


def run(case: str, seed: int = SEED, **how) -> dict:
    with CASES[case].runner(seed, **how) as (deployment, report):
        return fingerprint(deployment, report)


@cache
def reference(case: str) -> dict:
    """The ``pin`` run's fingerprint, which every other column reproduces."""
    return run(case)


@cache
def pooled(case: str) -> dict:
    """The case's fingerprint on two worker processes."""
    return run(case, workers=2)


def pinned(case: str, source: Callable[[str], dict] = reference) -> dict:
    return {key: source(case)[key] for key in CASES[case].pin}


def golden(case: str) -> dict | None:
    return json.loads(GOLDEN_FILE.read_text()).get(case)


def check(column: str, case: str, got: dict, expected: dict, same: bool = True):
    """Fail, writing both fingerprints to the report, unless they are ``same``."""
    if (got == expected) == same:
        return
    REPORT_DIR.mkdir(parents=True, exist_ok=True)
    path = REPORT_DIR / f"{column}-{case.replace('/', '-')}.json"
    both = {"case": case, "column": column, "expected": expected, "got": got}
    path.write_text(json.dumps(both, indent=2, sort_keys=True, default=repr) + "\n")
    verdict = "differ" if same else "did not change"
    pytest.fail(f"{column} x {case}: fingerprints {verdict}, both in {path}")


# -- the columns ----------------------------------------------------------------


@pytest.mark.parametrize("case", CASES)
def test_pin(case):
    check("pin", case, pinned(case), golden(case))


def test_golden_file_has_no_stale_cases():
    assert sorted(json.loads(GOLDEN_FILE.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_obs(case):
    check("obs", case, run(case, obs=MetricsRegistry()), reference(case))


@pytest.mark.parallel
@pytest.mark.parametrize("case", SHARDED)
def test_pool(case):
    # The engines live in the workers, so their chains are read as tips.
    expected = {k: v for k, v in reference(case).items() if k != "shards"}
    check("pool", case, pooled(case), expected)


@pytest.mark.parallel
@pytest.mark.parametrize("case", POOL_PINNED)
def test_pool_pin(case):
    check("pool_pin", case, pinned(case, pooled), golden(case))


def _segment_log(directory) -> StorageConfig:
    """Small enough that checkpoints, rolls and compaction all happen."""
    return StorageConfig(directory, checkpoint_interval=2, segment_bytes=4096)


@pytest.mark.parametrize("case", NETWORKED)
def test_disk(case, tmp_path):
    with CASES[case].runner(SEED, storage=_segment_log(tmp_path)) as (engine, report):
        assert engine.store.segments_compacted > 0
        check("disk", case, fingerprint(engine, report), reference(case))


@pytest.mark.parametrize("case", RESTART)
def test_restart(case, tmp_path):
    storage = _segment_log(tmp_path)
    dropped, workload = _net_engine(case, SEED, storage=storage)
    for _ in range(2):
        dropped.run_round(workload.take(8))
    # No finalize and no close: the process is gone, its segment log stays.
    restarted, _ = _net_engine(case, SEED, storage=storage)
    with closing(restarted):
        assert restarted.store.height == 2
        with CASES[case].runner(SEED) as (peer, _):
            pulled = restarted.handoff.sync_from_peer(peer.store)
        assert pulled == peer.store.height - 2
        got = fingerprint(restarted, restarted.harness_auditor.report)
    got, expected = ({k: fp[k] for k in RESTART_KEYS} for fp in (got, reference(case)))
    check("restart", case, got, expected)


@pytest.mark.realnet
@pytest.mark.parametrize("case", NETWORKED)
def test_tcp(case):
    with closing(launch_custodians(2)) as cluster:
        factory = partial(RealNetwork, custodians=cluster.addresses)
        got = run(case, network_factory=factory)
    check("tcp", case, got, reference(case))


@pytest.mark.parametrize("case", RESEED)
def test_reseed(case):
    check("reseed", case, run(case, seed=SEED + 1), reference(case), same=False)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(__doc__)
    pins = {case: pinned(case) for case in CASES}
    GOLDEN_FILE.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN_FILE}")
