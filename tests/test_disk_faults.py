"""Adversarial disk-fault matrix: every corruption detected, never loaded.

The contract under test (ISSUE 6): for every seeded
:class:`~repro.faults.disk.DiskFaultPlan` kind, at every crash point,

* recovery never silently loads a corrupt block — whatever it returns
  is a verified prefix of the original chain;
* the damage is *visible* — either a ``StorageCorruption`` entry in the
  report or (for the frame-aligned ``lost_fsync`` / ``missing_checkpoint``
  kinds) a recovered height strictly below the pre-crash height;
* the node degrades gracefully: after reopening the faulted directory,
  peer sync rebuilds the exact original tip.

Crash points: height 7 (one checkpoint old, first compaction barely
done) and height 20 (multiple checkpoints, compacted prefix).
"""

from __future__ import annotations

import shutil

import pytest

from repro.crypto.signatures import SigningKey
from repro.exceptions import ConfigurationError
from repro.faults.disk import DISK_FAULT_KINDS, DiskFaultPlan
from repro.ledger.block import Block
from repro.ledger.transaction import CheckStatus, Label, TxRecord, make_signed_transaction
from repro.storage import StorageConfig, open_durable_store, recover

KEY = SigningKey(owner="p0", secret=b"\x33" * 32)
_NONCE = iter(range(1_000_000))

CRASH_POINTS = (7, 20)
CHECKPOINT_INTERVAL = 6


def _grow(store, n):
    prev = store.tip_hash()
    blocks = []
    for serial in range(store.height + 1, store.height + 1 + n):
        tx = make_signed_transaction(KEY, f"b{serial}", 1.0, nonce=next(_NONCE))
        rec = TxRecord(tx=tx, label=Label.VALID, status=CheckStatus.CHECKED)
        block = Block(
            serial=serial, tx_list=(rec,), prev_hash=prev,
            proposer="g0", round_number=serial,
        )
        store.publish(block)
        blocks.append(block)
        prev = block.hash()
    return blocks


def _config(directory) -> StorageConfig:
    return StorageConfig(
        directory=directory,
        checkpoint_interval=CHECKPOINT_INTERVAL,
        segment_bytes=700,
    )


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """height -> (directory, blocks) for each crash point, built once."""
    out = {}
    for height in CRASH_POINTS:
        directory = tmp_path_factory.mktemp(f"ledger-{height}")
        store, _ = open_durable_store(_config(directory))
        out[height] = (directory, _grow(store, height))
    return out


class TestDiskFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            DiskFaultPlan().with_fault("set-disk-on-fire")

    def test_plan_is_deterministic(self, pristine, tmp_path):
        src, _ = pristine[20]
        results = []
        for run in range(2):
            work = tmp_path / f"run{run}"
            shutil.copytree(src, work)
            applied = DiskFaultPlan(seed=5).with_fault("bit_flip").apply(work)
            results.append([(a.kind, a.target, a.detail) for a in applied])
        assert results[0] == results[1]

    def test_apply_on_empty_dir_skips(self, tmp_path):
        plan = DiskFaultPlan(seed=1)
        for kind in DISK_FAULT_KINDS:
            plan = plan.with_fault(kind)
        assert plan.apply(tmp_path) == []


@pytest.mark.disk_chaos
@pytest.mark.parametrize("height", CRASH_POINTS)
@pytest.mark.parametrize("kind", DISK_FAULT_KINDS)
class TestDiskFaultMatrix:
    def _faulted_copy(self, pristine, tmp_path, height, kind, seed=9):
        src, blocks = pristine[height]
        work = tmp_path / "faulted"
        shutil.copytree(src, work)
        applied = DiskFaultPlan(seed=seed).with_fault(kind).apply(work)
        assert applied, f"{kind} found no target at height {height}"
        return work, blocks

    def test_detected_and_prefix_verified(self, pristine, tmp_path, height, kind):
        work, blocks = self._faulted_copy(pristine, tmp_path, height, kind)
        report = recover(work)
        # Never silently loaded: the recovered state is a strict prefix
        # of the original chain, hash-for-hash.
        assert report.height <= height
        by_serial = {b.serial: b for b in blocks}
        for block in report.blocks:
            assert block.hash() == by_serial[block.serial].hash()
        if report.base_serial:
            assert report.base_hash == by_serial[report.base_serial].hash()
        # Visible damage: a corruption entry, or lost durable state.
        assert report.corruptions or report.height < height, (
            f"{kind} at height {height} was silently absorbed"
        )

    def test_degrades_to_peer_sync(self, pristine, tmp_path, height, kind):
        work, blocks = self._faulted_copy(pristine, tmp_path, height, kind)
        store, report = open_durable_store(_config(work))
        # The replay-from-last-good-checkpoint (or genesis, or nothing)
        # store accepts the missing suffix from a peer and converges.
        for block in blocks[store.height :]:
            store.publish(block)
        assert store.height == height
        assert store.tip_hash() == blocks[-1].hash()
        # And the repaired directory reopens clean.
        reopened, second = open_durable_store(_config(work))
        assert second.clean, second.corruptions
        assert reopened.tip_hash() == blocks[-1].hash()


@pytest.mark.disk_chaos
def test_multi_fault_pileup_still_detected(pristine, tmp_path):
    """Several simultaneous faults must not cancel each other out."""
    src, blocks = pristine[20]
    work = tmp_path / "pileup"
    shutil.copytree(src, work)
    plan = (
        DiskFaultPlan(seed=13)
        .with_fault("bit_flip")
        .with_fault("torn_record")
        .with_fault("corrupt_checkpoint")
    )
    # Faults can collide (e.g. torn_record finds no intact final frame
    # after bit_flip hit the same segment) and skip; at least two land.
    assert len(plan.apply(work)) >= 2
    report = recover(work)
    assert report.corruptions
    by_serial = {b.serial: b for b in blocks}
    for block in report.blocks:
        assert block.hash() == by_serial[block.serial].hash()
    store, _ = open_durable_store(_config(work))
    for block in blocks[store.height :]:
        store.publish(block)
    assert store.tip_hash() == blocks[-1].hash()