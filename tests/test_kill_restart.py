"""Kill-restart chaos harness: SIGKILL a live node, restart, converge.

A subprocess runs the CLI's ``run durable-smoke --dir`` against a temp
ledger directory, printing a flushed ``round k tip=...`` marker after every
fsynced round. The harness SIGKILLs it mid-run (after at least one
marker, i.e. with durable state guaranteed on disk), then restarts the
node *in-process* on the same directory and lets it rejoin from an
uncrashed reference replica.

Acceptance (ISSUE 6): the restarted node reaches a bit-identical tip
with zero SafetyAuditor violations.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.workloads.scenarios import SCENARIOS, build

SCENARIO = "durable-smoke"
SEED = 11
_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_reference():
    engine, workload, scenario = build(SCENARIO, seed=SEED)
    for _ in range(scenario.rounds):
        engine.run_round(workload.take(scenario.batch))
    engine.finalize()
    assert engine.harness_auditor.report.clean
    return engine, scenario


def _spawn_node(directory):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO, "src")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "run", SCENARIO, "--seed", str(SEED),
            "--dir", str(directory), "--round-delay", "0.25",
        ],
        cwd=_REPO, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def _kill_after_marker(proc, markers_wanted=1, deadline_s=60.0):
    """Read child stdout until enough round markers flush, then SIGKILL."""
    seen = 0
    start = time.monotonic()
    while time.monotonic() - start < deadline_s:
        line = proc.stdout.readline()
        if line == "":  # child exited before we killed it
            break
        if line.startswith("round "):
            seen += 1
            if seen >= markers_wanted:
                break
    try:
        proc.kill()
    except ProcessLookupError:
        pass
    proc.wait(timeout=30)
    proc.stdout.close()
    return seen


@pytest.mark.disk_chaos
def test_sigkill_mid_round_then_restart_reaches_identical_tip(tmp_path):
    reference, scenario = _run_reference()
    ref_tip = reference.store.tip_hash()
    ref_height = reference.store.height

    ledger_dir = tmp_path / "ledger"
    proc = _spawn_node(ledger_dir)
    markers = _kill_after_marker(proc, markers_wanted=2)
    assert markers >= 1, "child died before producing any durable round"

    # Restart on the crash-scarred directory. Recovery must only ever
    # hand back a verified prefix of the reference chain.
    engine, _, _ = build(SCENARIO, seed=SEED, storage_dir=ledger_dir)
    report = engine.recovery_report
    assert report is not None
    assert engine.store.height <= ref_height
    for block in report.blocks:
        assert block.hash() == reference.store.retrieve(block.serial).hash()
    for bad in report.corruptions:
        # A SIGKILL can only tear the tail of the log; anything else
        # would mean recovery misclassified the damage.
        assert bad.kind in ("torn-tail", "dropped-suffix"), bad

    # Rejoin: pull exactly the suffix the disk lacks from the reference.
    pulled = engine.handoff.sync_from_peer(reference.store)
    assert pulled == ref_height - report.height
    assert engine.store.height == ref_height
    assert engine.store.tip_hash() == ref_tip

    # Zero safety violations across recovery + rejoin, replicas aligned.
    assert engine.harness_auditor.report.clean, (
        engine.harness_auditor.report.violations
    )
    for gov in engine.governors.values():
        assert gov.ledger.height == ref_height
        assert gov.ledger.tip_hash() == ref_tip


@pytest.mark.disk_chaos
def test_restarted_node_keeps_committing(tmp_path):
    """After crash + recovery + rejoin, the node makes progress again."""
    reference, scenario = _run_reference()
    ledger_dir = tmp_path / "ledger"
    proc = _spawn_node(ledger_dir)
    assert _kill_after_marker(proc, markers_wanted=1) >= 1

    engine, workload, _ = build(
        SCENARIO, seed=SEED, storage_dir=ledger_dir
    )
    engine.handoff.sync_from_peer(reference.store)
    # Skip the workload prefix the reference already committed so the
    # extra rounds carry fresh (not duplicate-filtered) transactions.
    for _ in range(scenario.rounds):
        workload.take(scenario.batch)
    before = engine.store.height
    for _ in range(2):
        engine.run_round(workload.take(scenario.batch))
    engine.finalize()
    assert engine.store.height > before
    assert engine.harness_auditor.report.clean

    # And those post-recovery blocks are durable in their own right.
    reopened = build(SCENARIO, seed=SEED, storage_dir=ledger_dir)[0]
    assert reopened.store.tip_hash() == engine.store.tip_hash()
    assert reopened.recovery_report.clean


@pytest.mark.disk_chaos
def test_restart_races_in_flight_checkpoint(tmp_path):
    """A crash mid-checkpoint-write must degrade, not derail, recovery.

    Two artefacts of the race are planted: the orphaned ``.json.tmp``
    of a checkpoint that never reached its atomic rename, and a newest
    checkpoint file torn mid-write.  Restart must ignore the former,
    flag the latter as ``checkpoint-corrupt``, fall back to the
    previous verified checkpoint, and still hand back a verified
    prefix that rejoins to the reference tip cleanly.
    """
    reference, scenario = _run_reference()
    ledger_dir = tmp_path / "ledger"
    writer, workload, _ = build(
        SCENARIO, seed=SEED, storage_dir=ledger_dir
    )
    for _ in range(scenario.rounds):
        writer.run_round(workload.take(scenario.batch))
    writer.finalize()
    ckpts = sorted(ledger_dir.glob("checkpoint-*.json"))
    assert len(ckpts) >= 2, "scenario too small to exercise the race"

    (ledger_dir / "checkpoint-99999999.json.tmp").write_text(
        '{"checkpoint": {"serial":'  # crash before os.replace
    )
    torn = ckpts[-1]
    torn.write_bytes(torn.read_bytes()[: torn.stat().st_size // 2])

    engine, _, _ = build(SCENARIO, seed=SEED, storage_dir=ledger_dir)
    report = engine.recovery_report
    assert report is not None
    assert any(
        bad.kind == "checkpoint-corrupt" and bad.target == torn.name
        for bad in report.corruptions
    ), report.corruptions
    assert not any("tmp" in bad.target for bad in report.corruptions)
    # Degraded to the previous *verified* checkpoint, not to garbage.
    assert report.checkpoint is not None
    assert report.checkpoint.serial == int(ckpts[-2].stem.split("-")[1])

    # The recovered prefix is still a verified prefix of the reference.
    assert engine.store.height <= reference.store.height
    for block in report.blocks:
        assert block.hash() == reference.store.retrieve(block.serial).hash()

    engine.handoff.sync_from_peer(reference.store)
    assert engine.store.height == reference.store.height
    assert engine.store.tip_hash() == reference.store.tip_hash()
    assert engine.harness_auditor.report.clean, (
        engine.harness_auditor.report.violations
    )


def test_durable_scenarios_registered():
    assert SCENARIOS[SCENARIO].host == "net"
    assert SCENARIOS[SCENARIO].rounds >= 4