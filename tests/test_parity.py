"""Parity table: every way of running a seeded case commits the same run.

The paper's Agreement, No-Skipping and Validity properties are checkable
because a seed fixes the ledger.  This module asserts that promise as a
table of **case × column**.  A *case* is one seeded deployment, given as
a :class:`~repro.workloads.scenarios.Scenario` that ``build()``
materialises: every ``inproc`` and ``stream`` preset, partial
visibility, abusive providers, the networked engine plain, faulted, and
through every way a node leaves and rejoins, two sharded deployments
(S=4 with epoch reshuffles under link faults) and a durable run across a
reopen.  A *column* reruns the case another way, by a ``build()``
option, and must reproduce the ``pin`` run's :func:`fingerprint`:

``pin``      the reference run; its pinned view is ``golden_matrix.json``;
``obs``      with a live ``MetricsRegistry()``;
``pool``     on two worker processes (``pool_pin`` holds that run to
             ``golden_matrix.json`` itself);
``disk``     on a segment log that checkpoints, rolls and compacts;
``restart``  dropped after 2 rounds, reopened and filled from a peer
             (chain, replicas and audit: a restart re-seeds every RNG);
``tcp``      over real sockets to two custodian processes;
``replay``   through ``repro run``, for a registered preset's case: the
             last ``tip=`` it prints, the ``final tip=`` after its
             ``finalize()``, is the pinned tip;
``reseed``   at seed + 1, which must *differ*.

A failing row writes ``$PARITY_REPORT_DIR/<column>-<case>.json`` (default
``parity-report/``; ``/`` in a case name becomes ``-``) with both
fingerprints, or with the traceback when the run raised; a row built
from a registered preset also names the ``python -m repro run`` command
that replays it.  If a change legitimately alters a draw sequence or a
hash input, regenerate the pins with::

    PYTHONPATH=src python tests/test_parity.py --regen

and justify the new values in the commit that carries them.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import traceback
from contextlib import closing, contextmanager
from dataclasses import asdict, replace
from functools import cache
from operator import attrgetter
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from repro.agents.behaviors import ConcealBehavior, MisreportBehavior
from repro.byzantine.scenario import install_equivocation
from repro.cli import main
from repro.core.params import ProtocolParams
from repro.faults.plan import FaultPlan, LinkFaultSpec
from repro.ledger.properties import check_all_properties
from repro.network.cluster import launch_custodians
from repro.network.visibility import VisibilityMap
from repro.obs import MetricsRegistry
from repro.storage.checkpoints import reputation_digest
from repro.workloads.generator import BernoulliWorkload
from repro.workloads.scenarios import SCENARIOS, Scenario, build

GOLDEN_FILE = Path(__file__).with_name("golden_matrix.json")
REPORT_DIR = Path(os.environ.get("PARITY_REPORT_DIR", "parity-report"))
SEED = 7
#: Rounds per in-process preset: enough for argues, forgeries and
#: re-evaluated records to reach a block, short enough for tier-1.
INPROC_ROUNDS = 6
#: Small enough that the book digest (which walks every member) is
#: cheap, and divisible as every streaming preset's link degrees need.
STREAM_UNIVERSE = 240

#: Where a host keeps the audit ``finalize()`` closes, if not in ``audit_report``.
AUDIT = {"net": "harness_auditor.report", "shard": "auditor.report"}


def _chain(engine) -> dict:
    """Tip hash, height and book digest: what every engine case pins."""
    height = engine.store.height
    books = {gid: gov.book for gid, gov in engine.governors.items()}
    return {
        "tip": engine.store.retrieve(height).hash().hex() if height else "",
        "height": height,
        "books": reputation_digest(books).hex(),
    }


def fingerprint(deployment, host: str) -> dict:
    """Everything a finished run determines, read the way its host allows.

    For an engine: the chain, every governor replica's (height, tip), the
    audit, the next draw of every governor's RNG and of the master RNG,
    and on the networked engine the clock and the fault and quarantine
    logs.  For a coordinator: what either backend reports, plus each
    shard engine's chain when the engines live in this process.
    """
    report = attrgetter(AUDIT.get(host, "audit_report"))(deployment)
    audit = [
        [v.type.value, v.culprit, v.round_number, v.serial] for v in report.violations
    ]
    if host == "shard":
        stats = deployment.chain_stats()
        out = {
            "tips": deployment.tip_hashes(),
            "heights": [s.height for s in stats],
            "committed": deployment.committed_total,
            "clock": repr(deployment.now),
            "stats": [asdict(s) for s in stats],
            "faults": sorted(deployment.backend.fault_stats().items()),
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
    if host == "net":
        out["clock"] = repr(deployment.sim.now)
        for log in ("fault_log", "quarantine_log"):
            out[log] = [[repr(t), *rest] for t, *rest in getattr(deployment, log)]
    return out


# -- the cases ----------------------------------------------------------------
#
# A case is a Scenario and the keys it pins.  ``drive`` runs it through its
# script (``_plain``, bar two cases that step between rounds) and yields the
# finished deployment, closed when the ``with`` ends.  Its keyword options
# are ``build()``'s (``obs``, ``workers``, ``storage_dir``, ``custodians``):
# the columns' ways of rerunning the case.


def _liars(_topo) -> dict:
    return {"c0": MisreportBehavior(0.4), "c1": ConcealBehavior(0.4)}


def _partial_view(topo, seed) -> VisibilityMap:
    return VisibilityMap.random_partial(topo, 0.3, seed=seed)


def _lossy(seed: int, *crashes) -> FaultPlan:
    """Link faults drawn at ``seed + 2``, and each ``(node, at, recover_at)``."""
    plan = FaultPlan(seed=seed + 2).with_default_link(
        LinkFaultSpec(loss=0.05, duplicate=0.1)
    )
    for node, at, recover_at in crashes:
        plan.with_crash(node, at=at, recover_at=recover_at)
    return plan


def _lossy_shards(topo, seed: int) -> list[FaultPlan]:
    link = LinkFaultSpec(loss=0.02, duplicate=0.05)
    return [
        FaultPlan(seed=seed + 50 + k).with_default_link(link)
        for k in range(topo.num_shards)
    ]


SMALL = Scenario(
    name="small", description="two adversaries on the smallest regular shape",
    l=8, n=4, m=3, r=2, params=ProtocolParams(f=0.6), rounds=INPROC_ROUNDS, batch=12,
    behavior_factory=_liars,
    workload_factory=lambda topo, seed: BernoulliWorkload(
        topo.providers, p_valid=0.6, seed=seed
    ),
)
#: Small enough that checkpoints, segment rolls and compaction all
#: happen in the ``disk`` and ``restart`` columns.
NETWORKED = replace(
    SMALL, name="networked", host="net", params=ProtocolParams(f=0.6, delta=0.2),
    rounds=5, batch=8, checkpoint_interval=2, segment_bytes=4096,
)


def _sound_shards(coordinator) -> None:
    """What every sharded deployment promises, once finalized."""
    report = coordinator.auditor.report
    assert report.clean, [str(v) for v in report.violations]
    assert all(s.properties_hold for s in coordinator.chain_stats())
    assert coordinator.reshuffle_log or not coordinator.epoch_rounds, "no reshuffle"


def _properties_hold(deployment) -> None:
    """The five properties, Validity included, after a bare ``finalize()``."""
    report = check_all_properties(deployment.ledgers(), deployment.transcript)
    broken = [str(v) for v in report.violations]
    if getattr(deployment, "visibility", None) is not None:
        # A leader that sees none of a transaction's uploaders never packs
        # it, so a partial view loses Validity (test_partial_view_validity).
        broken = [v for v in broken if not v.startswith("validity:")]
    assert not broken, broken


def _sound_stream(app) -> None:
    assert app.metrics.retirements > 0, "retirement never exercised"
    _properties_hold(app)


#: What a finished run on each host must have exercised, and must hold.
SOUND = {"inproc": _properties_hold, "shard": _sound_shards, "stream": _sound_stream}


@contextmanager
def _plain(row: Row, seed: int, **how):
    """``build()``, the scenario's rounds, the row's empty ones, ``finalize()``."""
    deployment, workload, scenario = build(row.scenario, seed, **how)
    with closing(deployment):
        for _ in range(scenario.rounds):
            deployment.run_round(workload.take(scenario.batch))
        for _ in range(row.tail):
            deployment.run_round([])
        deployment.finalize()
        if scenario.host in SOUND:
            SOUND[scenario.host](deployment)
        yield deployment


@contextmanager
def _churn_quarantine(row: Row, seed: int, **how):
    """Crash/recover a collector and a governor, quarantine/release another."""
    engine, workload, scenario = build(row.scenario, seed, **how)
    with closing(engine):
        # g3 sends its real hash to g0 and a signed fake to g1 and g2, so
        # g0 can only complete the proof from a vote one of them forwards.
        install_equivocation(engine, "g3", serial=2)
        for k in range(scenario.rounds):
            if k == 3:
                assert engine.quarantined_nodes == {"g3"}
            elif k == 5:
                engine.lifecycle.release_quarantine("g3")
            engine.run_round(workload.take(scenario.batch))
        engine.finalize()
        assert not engine.crashed_nodes and not engine.quarantined_nodes
        yield engine


@contextmanager
def _durable_reopen(row: Row, seed: int, **how):
    scenario = row.scenario
    with tempfile.TemporaryDirectory() as directory:
        first, workload, _ = build(scenario, seed, storage_dir=directory, **how)
        for _ in range(4):
            first.run_round(workload.take(scenario.batch))
        del first
        engine, _, _ = build(scenario, seed, storage_dir=directory, **how)
        with closing(engine):
            assert engine.recovery_report.clean
            for _ in range(2):
                engine.run_round(workload.take(scenario.batch))
            engine.finalize()
            yield engine


class Row(NamedTuple):
    scenario: Scenario
    #: The fingerprint keys ``golden_matrix.json`` pins for this case.
    pin: tuple[str, ...]
    #: Empty rounds run after the scenario's own, before ``finalize()``.
    tail: int = 0
    script: Callable = _plain


def _presets(host: str) -> list[str]:
    return sorted(name for name, s in SCENARIOS.items() if s.host == host)


CHAIN = ("tip", "height", "books")
NET_PIN = (*CHAIN, "clock")
CASES = {
    **{
        f"inproc/{n}": Row(replace(SCENARIOS[n], rounds=INPROC_ROUNDS), CHAIN)
        for n in _presets("inproc")
    },
    "inproc/visibility": Row(
        replace(SMALL, name="visibility", visibility=_partial_view), CHAIN
    ),
    "inproc/abusive-providers": Row(
        replace(
            SMALL, name="abusive-providers",
            abusive_providers=lambda topo: dict.fromkeys(topo.providers, 0.9),
        ),
        CHAIN,
    ),
    "networked/plain": Row(NETWORKED, NET_PIN, tail=1),
    "networked/resilient-faults": Row(
        replace(
            NETWORKED, name="resilient-faults", resilience=True,
            faults=lambda _topo, seed: _lossy(seed, ("g1", 0.5, 1.3)),
        ),
        NET_PIN, tail=1,
    ),
    "networked/churn-quarantine": Row(
        replace(
            NETWORKED, name="churn-quarantine", m=4, rounds=7, resilience=True,
            faults=lambda _topo, seed: _lossy(seed, ("c2", 0.5, 1.3), ("g1", 1.0, 1.8)),
        ),
        (*NET_PIN, "fault_log", "quarantine_log"), script=_churn_quarantine,
    ),
    **{
        f"streaming/{n}": Row(replace(SCENARIOS[n], l=STREAM_UNIVERSE), CHAIN)
        for n in _presets("stream")
    },
    "sharded/sharded-smoke": Row(SCENARIOS["sharded-smoke"], ("shards", "clock")),
    "sharded/quad-faults-inprocess": Row(
        # S=4 with epoch reshuffles and receipts in flight under link faults.
        replace(
            SCENARIOS["sharded-quad"], name="quad-faults", resilience=True,
            faults=_lossy_shards,
        ),
        ("tips", "heights", "committed", "clock"),
    ),
    "durable/durable-smoke-reopen": Row(
        SCENARIOS["durable-smoke"], CHAIN, script=_durable_reopen
    ),
}
NETWORKED_CASES = [case for case in CASES if case.startswith("networked/")]
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
#: The ``repro run`` flag of each preset field a case may change.
RUN_FLAGS = {"rounds": "--rounds", "l": "--providers"}


def replay(case: str) -> str | None:
    """The ``repro run`` command that reruns a case, if it is a registered
    preset with only ``RUN_FLAGS`` fields changed and no script."""
    row = CASES[case]
    preset = SCENARIOS.get(row.scenario.name)
    changed = {field: getattr(row.scenario, field) for field in RUN_FLAGS}
    registered = preset is not None and replace(preset, **changed) == row.scenario
    if not registered or row.script is not _plain:
        return None
    argv = ["python -m repro run", preset.name, "--seed", str(SEED)]
    argv += [f"{RUN_FLAGS[f]} {v}" for f, v in changed.items() if v != getattr(preset, f)]
    return " ".join(argv)


def write_report(column: str, case: str, **content) -> Path:
    """Write ``content`` to the column's report for ``case``."""
    REPORT_DIR.mkdir(parents=True, exist_ok=True)
    path = REPORT_DIR / f"{column}-{case.replace('/', '-')}.json"
    report = {"case": case, "column": column, "replay": replay(case), **content}
    path.write_text(json.dumps(report, indent=2, sort_keys=True, default=repr) + "\n")
    return path


@contextmanager
def drive(case: str, column: str, seed: int = SEED, **how):
    """Run ``case`` to its end and yield the deployment; a raise, here or
    in the ``with`` body, writes its traceback to the column's report."""
    row = CASES[case]
    try:
        with row.script(row, seed, **how) as deployment:
            yield deployment
    except Exception:
        write_report(column, case, traceback=traceback.format_exc())
        raise


def run(case: str, column: str, seed: int = SEED, **how) -> dict:
    with drive(case, column, seed, **how) as deployment:
        return fingerprint(deployment, CASES[case].scenario.host)


@cache
def reference(case: str) -> dict:
    """The ``pin`` run's fingerprint, which every other column reproduces."""
    return run(case, "pin")


@cache
def pooled(case: str) -> dict:
    """The case's fingerprint on two worker processes."""
    return run(case, "pool", workers=2)


def pinned(case: str, source: Callable[[str], dict] = reference) -> dict:
    return {key: source(case)[key] for key in CASES[case].pin}


def golden(case: str) -> dict | None:
    return json.loads(GOLDEN_FILE.read_text()).get(case)


def check(column: str, case: str, got: dict, expected: dict, same: bool = True):
    """Fail, writing both fingerprints to the report, unless they are ``same``."""
    if (got == expected) == same:
        return
    path = write_report(column, case, expected=expected, got=got)
    verdict = "differ" if same else "did not change"
    pytest.fail(f"{column} x {case}: fingerprints {verdict}, both in {path}")


# -- the columns ----------------------------------------------------------------


@pytest.mark.parametrize("case", CASES)
def test_pin(case):
    check("pin", case, pinned(case), golden(case))


def test_golden_file_has_no_stale_cases():
    assert sorted(json.loads(GOLDEN_FILE.read_text())) == sorted(CASES)


def test_a_raising_case_writes_its_report(monkeypatch, tmp_path):
    def fail(_deployment):
        raise AssertionError("planted")

    monkeypatch.setattr(sys.modules[__name__], "REPORT_DIR", tmp_path)
    monkeypatch.setitem(SOUND, "inproc", fail)
    planted = Row(replace(SCENARIOS["smoke"], rounds=1), CHAIN)
    monkeypatch.setitem(CASES, "planted/raises", planted)
    with pytest.raises(AssertionError, match="planted"):
        run("planted/raises", "obs", obs=MetricsRegistry())
    report = json.loads((tmp_path / "obs-planted-raises.json").read_text())
    assert "AssertionError: planted" in report["traceback"]
    assert report["replay"] == "python -m repro run smoke --seed 7 --rounds 1"


@pytest.mark.parametrize("case", CASES)
def test_obs(case):
    check("obs", case, run(case, "obs", obs=MetricsRegistry()), reference(case))


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


@pytest.mark.parametrize("case", NETWORKED_CASES)
def test_disk(case, tmp_path):
    with drive(case, "disk", storage_dir=tmp_path) as engine:
        assert engine.store.segments_compacted > 0
        check("disk", case, fingerprint(engine, "net"), reference(case))


@pytest.mark.parametrize("case", RESTART)
def test_restart(case, tmp_path):
    scenario = CASES[case].scenario
    dropped, workload, _ = build(scenario, SEED, storage_dir=tmp_path)
    for _ in range(2):
        dropped.run_round(workload.take(scenario.batch))
    # No finalize and no close: the process is gone, its segment log stays.
    restarted, _, _ = build(scenario, SEED, storage_dir=tmp_path)
    with closing(restarted):
        assert restarted.store.height == 2
        with drive(case, "restart") as peer:
            pulled = restarted.handoff.sync_from_peer(peer.store)
        assert pulled == peer.store.height - 2
        got = fingerprint(restarted, "net")
    got, expected = ({k: fp[k] for k in RESTART_KEYS} for fp in (got, reference(case)))
    check("restart", case, got, expected)


@pytest.mark.realnet
@pytest.mark.parametrize("case", NETWORKED_CASES)
def test_tcp(case):
    with closing(launch_custodians(2)) as cluster:
        got = run(case, "tcp", custodians=cluster.addresses)
    check("tcp", case, got, reference(case))


@pytest.mark.parametrize("case", [case for case in CASES if replay(case)])
def test_replay(case, capsys):
    """The command a case's report names reproduces its pinned tip."""
    main(replay(case).split()[3:])  # the argv after ``python -m repro``
    out = capsys.readouterr().out.splitlines()
    got = [line.split("tip=")[1] for line in out if "tip=" in line][-1]
    pins = golden(case)
    expected = ",".join(chain["tip"] for chain in pins.get("shards", [pins]))
    check("replay", case, {"tip": got}, {"tip": expected})


@pytest.mark.xfail(
    strict=True, reason="a leader never packs a transaction whose only uploader it cannot see"
)
def test_partial_view_validity():
    with drive("inproc/visibility", "validity") as engine:
        report = check_all_properties(engine.ledgers(), engine.transcript)
    assert report.validity, [str(v) for v in report.violations]


@pytest.mark.parametrize("case", RESEED)
def test_reseed(case):
    check("reseed", case, run(case, "reseed", seed=SEED + 1), reference(case), same=False)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(__doc__)
    pins = {case: pinned(case) for case in CASES}
    GOLDEN_FILE.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN_FILE}")
