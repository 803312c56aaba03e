"""Durable storage: segment log, checkpoints, recovery, engine wiring."""

from __future__ import annotations

import json

import pytest

from repro.crypto.signatures import SigningKey
from repro.exceptions import LedgerError
from repro.ledger.block import GENESIS_PREV_HASH, Block
from repro.ledger.chain import Ledger, check_agreement
from repro.ledger.store import BlockStore
from repro.ledger.sync import sync_replica
from repro.ledger.transaction import CheckStatus, Label, TxRecord, make_signed_transaction
from repro.obs import MetricsRegistry
from repro.storage import (
    Checkpoint,
    StorageConfig,
    load_checkpoints,
    open_durable_store,
    recover,
    scan_segments,
)
from repro.storage.checkpoints import write_checkpoint
from repro.storage.segments import SegmentLog, read_manifest

KEY = SigningKey(owner="p0", secret=b"\x21" * 32)
_NONCE = iter(range(1_000_000))


def make_block(serial: int, prev: bytes, payload: str = "x") -> Block:
    tx = make_signed_transaction(KEY, f"{payload}{serial}", 1.0, nonce=next(_NONCE))
    rec = TxRecord(tx=tx, label=Label.VALID, status=CheckStatus.CHECKED)
    return Block(
        serial=serial, tx_list=(rec,), prev_hash=prev,
        proposer="g0", round_number=serial,
    )


def grow(store, n: int) -> list[Block]:
    """Extend ``store`` by ``n`` linked blocks."""
    prev = store.tip_hash()
    blocks = []
    for serial in range(store.height + 1, store.height + 1 + n):
        block = make_block(serial, prev)
        store.publish(block)
        blocks.append(block)
        prev = block.hash()
    return blocks


def durable(tmp_path, **overrides) -> StorageConfig:
    defaults = dict(directory=tmp_path, checkpoint_interval=5, segment_bytes=700)
    defaults.update(overrides)
    return StorageConfig(**defaults)


class TestSegmentLog:
    def test_append_scan_roundtrip(self, tmp_path):
        log = SegmentLog(tmp_path, segment_bytes=128)
        payloads = [f"payload-{i}".encode() for i in range(1, 8)]
        for i, payload in enumerate(payloads, start=1):
            log.append(i, payload)
        records, corruptions = scan_segments(tmp_path)
        assert not corruptions
        assert [r.serial for r in records] == list(range(1, 8))
        assert [r.payload for r in records] == payloads

    def test_segments_roll_at_size(self, tmp_path):
        log = SegmentLog(tmp_path, segment_bytes=64)
        for i in range(1, 6):
            log.append(i, b"z" * 40)
        assert len(log._paths) == 5  # one frame each
        assert log.segments_created == 4

    def test_oversized_record_still_lands(self, tmp_path):
        log = SegmentLog(tmp_path, segment_bytes=32)
        log.append(1, b"a" * 100)  # larger than a whole segment
        records, corruptions = scan_segments(tmp_path)
        assert not corruptions and len(records) == 1

    def test_truncate_before_keeps_covering_segment(self, tmp_path):
        log = SegmentLog(tmp_path, segment_bytes=64)
        for i in range(1, 7):
            log.append(i, b"z" * 40)
        removed = log.truncate_before(4)
        assert removed == 3
        records, _ = scan_segments(tmp_path)
        assert [r.serial for r in records] == [4, 5, 6]

    def test_manifest_roundtrip_and_corruption(self, tmp_path):
        SegmentLog(tmp_path).append(1, b"x")
        body, bad = read_manifest(tmp_path)
        assert bad is None and body["segments"] == ["segment-000001.log"]
        (tmp_path / "manifest.json").write_text("{not json")
        body, bad = read_manifest(tmp_path)
        assert body is None and bad.kind == "manifest-corrupt"

    def test_torn_tail_detected_and_prefix_survives(self, tmp_path):
        log = SegmentLog(tmp_path)
        log.append(1, b"first")
        log.append(2, b"second")
        path = log.active_path
        path.write_bytes(path.read_bytes()[:-3])
        records, corruptions = scan_segments(tmp_path)
        assert [r.serial for r in records] == [1]
        assert [c.kind for c in corruptions] == ["torn-tail"]

    def test_mid_log_corruption_drops_suffix(self, tmp_path):
        log = SegmentLog(tmp_path, segment_bytes=16)  # one frame per segment
        for i in range(1, 4):
            log.append(i, b"p" * 8)
        first = log._paths[0]
        data = bytearray(first.read_bytes())
        data[-1] ^= 0xFF  # payload byte -> CRC mismatch
        first.write_bytes(bytes(data))
        records, corruptions = scan_segments(tmp_path)
        assert records == []  # nothing after the bad frame is trusted
        kinds = [c.kind for c in corruptions]
        assert "crc-mismatch" in kinds and "dropped-suffix" in kinds


class TestCheckpoints:
    def _chain_hashes(self, n):
        store = BlockStore()
        return [b.hash() for b in grow(store, n)], store

    def test_write_load_verify(self, tmp_path):
        hashes, store = self._chain_hashes(4)
        ckpt = Checkpoint(
            serial=4, tip_hash=hashes[-1], book_digest=b"d" * 32,
            window_start=0, window_hashes=tuple(hashes),
            prev_root=b"\x00" * 32,
            root=Checkpoint.compute_root(b"\x00" * 32, hashes),
        )
        write_checkpoint(tmp_path, ckpt)
        loaded, bad = load_checkpoints(tmp_path)
        assert not bad and loaded == [ckpt]

    def test_tampered_file_reported(self, tmp_path):
        hashes, _ = self._chain_hashes(2)
        ckpt = Checkpoint(
            serial=2, tip_hash=hashes[-1], book_digest=b"",
            window_start=0, window_hashes=tuple(hashes),
            prev_root=b"\x00" * 32,
            root=Checkpoint.compute_root(b"\x00" * 32, hashes),
        )
        path = write_checkpoint(tmp_path, ckpt)
        doc = json.loads(path.read_text())
        doc["checkpoint"]["serial"] = 3  # CRC now stale
        path.write_text(json.dumps(doc))
        loaded, bad = load_checkpoints(tmp_path)
        assert loaded == [] and bad[0].kind == "checkpoint-corrupt"

    def test_wrong_merkle_root_rejected(self, tmp_path):
        hashes, _ = self._chain_hashes(2)
        ckpt = Checkpoint(
            serial=2, tip_hash=hashes[-1], book_digest=b"",
            window_start=0, window_hashes=tuple(hashes),
            prev_root=b"\x00" * 32, root=b"\xab" * 32,  # bogus
        )
        assert not ckpt.verify()

    def test_retention_prunes_old_files(self, tmp_path):
        prev_root = b"\x00" * 32
        store = BlockStore()
        start = 0
        for k in range(4):
            hashes = [b.hash() for b in grow(store, 2)]
            ckpt = Checkpoint(
                serial=store.height, tip_hash=hashes[-1], book_digest=b"",
                window_start=start, window_hashes=tuple(hashes),
                prev_root=prev_root,
                root=Checkpoint.compute_root(prev_root, hashes),
            )
            write_checkpoint(tmp_path, ckpt)
            prev_root, start = ckpt.root, store.height
        files = sorted(p.name for p in tmp_path.glob("checkpoint-*.json"))
        assert files == ["checkpoint-00000006.json", "checkpoint-00000008.json"]


class TestDurableStore:
    def test_reopen_restores_identical_chain(self, tmp_path):
        cfg = durable(tmp_path)
        store, report = open_durable_store(cfg)
        assert report.height == 0 and report.clean
        grow(store, 12)
        tip = store.tip_hash()
        reopened, report2 = open_durable_store(cfg)
        assert report2.clean
        assert reopened.height == 12 and reopened.tip_hash() == tip

    def test_compaction_truncates_and_anchors(self, tmp_path):
        cfg = durable(tmp_path)
        store, _ = open_durable_store(cfg)
        grow(store, 17)  # checkpoints at 5, 10, 15
        records, _ = scan_segments(tmp_path)
        assert records[0].serial >= 11  # pre-checkpoint segments compacted
        reopened, report = open_durable_store(cfg)
        assert report.clean
        assert reopened.base_serial == 15
        assert reopened.height == 17 and reopened.tip_hash() == store.tip_hash()

    def test_append_resumes_across_reopen(self, tmp_path):
        cfg = durable(tmp_path)
        store, _ = open_durable_store(cfg)
        grow(store, 7)
        second, _ = open_durable_store(cfg)
        grow(second, 7)
        third, report = open_durable_store(cfg)
        assert report.clean and third.height == 14
        assert third.tip_hash() == second.tip_hash()

    def test_no_checkpoints_replays_from_genesis(self, tmp_path):
        cfg = durable(tmp_path, checkpoint_interval=0)
        store, _ = open_durable_store(cfg)
        grow(store, 9)
        reopened, report = open_durable_store(cfg)
        assert report.clean and reopened.base_serial == 0
        assert reopened.height == 9 and len(report.blocks) == 9

    def test_out_of_order_publish_rejected(self, tmp_path):
        store, _ = open_durable_store(durable(tmp_path))
        blocks = grow(store, 1)
        gap = make_block(3, blocks[-1].hash())
        with pytest.raises(LedgerError):
            store.publish(gap)

    def test_republish_is_noop_on_disk(self, tmp_path):
        store, _ = open_durable_store(durable(tmp_path))
        blocks = grow(store, 3)
        store.publish(blocks[1])  # duplicate
        records, _ = scan_segments(tmp_path)
        assert [r.serial for r in records] == [1, 2, 3]

    def test_metrics_flow(self, tmp_path):
        from repro.storage.durable import storage_metrics

        reg = MetricsRegistry()
        cfg = durable(tmp_path)
        store, _ = open_durable_store(cfg, obs=reg)
        grow(store, 11)
        metrics = storage_metrics(reg)  # idempotent fetch of the same handles
        assert metrics["records"].value == 11
        assert metrics["checkpoints"].value == 2
        assert metrics["bytes"].value > 0
        assert metrics["ckpt_age"].value == 1.0

    def test_recovery_metrics_flow(self, tmp_path):
        from repro.storage.durable import storage_metrics

        cfg = durable(tmp_path, checkpoint_interval=0)
        store, _ = open_durable_store(cfg)
        grow(store, 4)
        path = sorted(tmp_path.glob("segment-*.log"))[-1]
        path.write_bytes(path.read_bytes()[:-2])  # torn tail
        reg = MetricsRegistry()
        reopened, report = open_durable_store(cfg, obs=reg)
        metrics = storage_metrics(reg)
        assert metrics["corruptions"].value_of(kind="torn-tail") == 1
        assert metrics["recovered"].value_of(source="disk") == 3
        assert metrics["replay_s"].value > 0


def anchored_at_two(kind: str, tmp_path) -> tuple[BlockStore, list[Block]]:
    """A store anchored at checkpoint serial 2 with nothing above it.

    The durable one gets there the way a restart does: a checkpoint per
    block, one record per segment (so compaction drops serial 1), and a
    reopen.  Returns the store and the chain it is a prefix of (1..5).
    """
    blocks = [make_block(1, GENESIS_PREV_HASH)]
    for serial in range(2, 6):
        blocks.append(make_block(serial, blocks[-1].hash()))
    if kind == "memory":
        store = BlockStore()
        store.anchor(2, blocks[1].hash())
        return store, blocks
    cfg = durable(tmp_path, checkpoint_interval=1, segment_bytes=1, fsync=False)
    first, _ = open_durable_store(cfg)
    for block in blocks[:2]:
        first.publish(block)
    store, report = open_durable_store(cfg)
    assert report.clean and (store.base_serial, store.height) == (2, 2)
    return store, blocks


class TestStoreParity:
    """The in-memory and the durable store refuse and accept alike."""

    @pytest.mark.parametrize("kind", ["memory", "durable"])
    def test_same_outcomes_and_a_clean_disk(self, kind, tmp_path):
        store, blocks = anchored_at_two(kind, tmp_path)
        b3 = blocks[2]
        steps = [
            ("extend", b3),
            ("gap", blocks[4]),
            ("broken link", make_block(4, b"\x5a" * 32)),
            ("conflict", make_block(3, blocks[1].hash(), payload="other")),
            ("identical republish", b3),
            ("below base", blocks[0]),
            ("different block at base", make_block(2, blocks[0].hash(), "other")),
            ("extend", blocks[3]),
        ]
        outcomes = []
        for name, block in steps:
            try:
                store.publish(block)
                outcomes.append((name, "ok"))
            except LedgerError as exc:
                outcomes.append((name, type(exc).__name__))
        assert outcomes == [
            ("extend", "ok"),
            ("gap", "SkippedBlockError"),
            ("broken link", "ChainIntegrityError"),
            ("conflict", "AgreementError"),
            ("identical republish", "ok"),
            ("below base", "ok"),
            ("different block at base", "ok"),
            ("extend", "ok"),
        ]
        assert (store.base_serial, store.height) == (2, 4)
        assert store.tip_hash() == blocks[3].hash()
        assert [b.serial for b in iter(lambda: store.next_for("r"), None)] == [3, 4]
        if kind == "durable":
            report = recover(tmp_path)
            assert report.clean, report.corruptions
            assert report.height == 4


class TestRecoveryStateMachine:
    def test_tampered_payload_with_fixed_crc_still_detected(self, tmp_path):
        """CRC-valid but hash-invalid records fail at decode_block."""
        import struct
        import zlib

        cfg = durable(tmp_path, checkpoint_interval=0)
        store, _ = open_durable_store(cfg)
        grow(store, 3)
        path = sorted(tmp_path.glob("segment-*.log"))[0]
        data = bytearray(path.read_bytes())
        header = struct.Struct("<IIQ")
        length, _, serial = header.unpack_from(data, 0)
        payload = bytearray(data[header.size : header.size + length])
        # Flip the proposer inside the JSON and "fix" the frame CRC.
        fixed = bytes(payload).replace(b'"g0"', b'"gX"')
        data[header.size : header.size + length] = fixed
        header.pack_into(data, 0, length, zlib.crc32(fixed), serial)
        path.write_bytes(bytes(data))
        report = recover(tmp_path)
        assert any(c.kind == "record-decode" for c in report.corruptions)
        assert report.height == 0  # nothing after the tamper is loaded

    def test_chain_break_truncates_suffix(self, tmp_path):
        cfg = durable(tmp_path, checkpoint_interval=0, segment_bytes=10_000)
        store, _ = open_durable_store(cfg)
        grow(store, 2)
        # Append a validly-framed block that does not link to the tip.
        orphan = make_block(3, b"\x77" * 32)
        store._log.append(
            3,
            json.dumps(
                __import__("repro.ledger.codec", fromlist=["encode_block"]).encode_block(
                    orphan
                ),
                sort_keys=True,
                separators=(",", ":"),
            ).encode(),
        )
        report = recover(tmp_path)
        assert report.height == 2
        assert any(c.kind == "chain-break" for c in report.corruptions)

    def test_crc_valid_frame_of_the_wrong_shape_is_a_decode_corruption(self, tmp_path):
        """A frame whose JSON is well formed but not a block is reported, not raised."""
        from repro.ledger.codec import encode_block

        cfg = durable(tmp_path, checkpoint_interval=0, segment_bytes=10_000)
        store, _ = open_durable_store(cfg)
        blocks = grow(store, 2)
        obj = encode_block(make_block(3, blocks[-1].hash()))
        obj["tx_list"][0]["tx"] = []  # a JSON list where the tx object belongs
        store._log.append(3, json.dumps(obj, sort_keys=True).encode())
        report = recover(tmp_path)
        assert report.height == 2
        assert any(c.kind == "record-decode" for c in report.corruptions)

    def test_unanchored_segments_degrade_to_checkpoint(self, tmp_path):
        cfg = durable(tmp_path)
        store, _ = open_durable_store(cfg)
        grow(store, 12)  # checkpoints at 5, 10; compaction active
        # Delete the newest checkpoint files' segment anchor: wipe all
        # checkpoints, leaving post-compaction segments unanchored.
        for path in tmp_path.glob("checkpoint-*.json"):
            path.unlink()
        report = recover(tmp_path)
        assert any(c.kind == "unanchored-segments" for c in report.corruptions)
        assert report.height == 0  # nothing silently loaded

    def test_recovery_report_summary_mentions_state(self, tmp_path):
        store, _ = open_durable_store(durable(tmp_path))
        grow(store, 3)
        report = recover(tmp_path)
        assert "recovered height 3" in report.summary()
        assert "clean" in report.summary()


class TestAnchoredLedger:
    def test_from_checkpoint_appends_and_verifies(self):
        store = BlockStore()
        blocks = grow(store, 6)
        replica = Ledger.from_checkpoint("late", serial=4, tip_hash=blocks[3].hash())
        assert sync_replica(replica, store) == 2
        assert replica.height == 6 and replica.base_serial == 4
        replica.verify_integrity()
        assert replica.tip_hash() == store.tip_hash()

    def test_retrieve_below_base_raises(self):
        store = BlockStore()
        blocks = grow(store, 5)
        replica = Ledger.from_checkpoint("late", serial=3, tip_hash=blocks[2].hash())
        sync_replica(replica, store)
        from repro.exceptions import BlockNotFoundError

        with pytest.raises(BlockNotFoundError):
            replica.retrieve(2)
        assert replica.retrieve(4).serial == 4

    def test_agreement_across_mixed_bases(self):
        store = BlockStore()
        blocks = grow(store, 8)
        full = Ledger(owner="full")
        for block in blocks:
            full.append(block)
        anchored = Ledger.from_checkpoint("cut", serial=5, tip_hash=blocks[4].hash())
        sync_replica(anchored, store)
        check_agreement([full, anchored])  # must not raise

    def test_malformed_anchor_rejected(self):
        with pytest.raises(LedgerError):
            Ledger.from_checkpoint("bad", serial=0, tip_hash=b"\x00" * 32)
        with pytest.raises(LedgerError):
            Ledger.from_checkpoint("bad", serial=3, tip_hash=b"short")


class TestEngineDurability:
    def test_restart_reanchors_governor_replicas(self, tmp_path):
        from repro.workloads.scenarios import build

        first, wl, sc = build("durable-smoke", seed=7, storage_dir=tmp_path)
        for _ in range(4):
            first.run_round(wl.take(sc.batch))
        restarted, _, _ = build(
            "durable-smoke", seed=7, storage_dir=tmp_path
        )
        assert restarted.recovery_report.clean
        assert restarted.store.height == 4
        assert restarted.store.tip_hash() == first.store.tip_hash()
        for gov in restarted.governors.values():
            assert gov.ledger.height == 4
            gov.ledger.verify_integrity()

    def test_shard_host_reopened_at_a_checkpoint_reads_its_tip(self, tmp_path):
        """A checkpoint per block and one record per segment leave each
        shard's reopened store anchored at its tip with nothing above."""
        from repro.sharding import ShardCoordinator
        from repro.workloads.scenarios import SCENARIOS
        from repro.workloads.xshard import CrossShardWorkload

        smoke = SCENARIOS["sharded-smoke"]
        sharded = smoke.topology()
        storage = [
            durable(tmp_path / f"shard-{k}", checkpoint_interval=1,
                    segment_bytes=1, fsync=False)
            for k in range(smoke.shards)
        ]

        def coordinator() -> ShardCoordinator:
            return ShardCoordinator(sharded, smoke.params, seed=3, storage=storage)

        first = coordinator()
        workload = CrossShardWorkload(
            smoke.workload_factory(sharded, 4), sharded.provider_shard, smoke.p_cross, 5
        )
        for _ in range(3):
            first.submit(workload.take(16))
            first.run_super_round()
        tips = first.tip_hashes()
        reopened = coordinator()
        for engine in reopened.backend.engines.values():
            assert engine.store.base_serial == engine.store.height == 3
        assert reopened.tip_hashes() == tips

    def test_divergent_peer_block_never_reaches_disk(self, tmp_path):
        from repro.exceptions import ChainIntegrityError
        from repro.workloads.scenarios import build

        node, wl, sc = build("durable-smoke", seed=7, storage_dir=tmp_path)
        for _ in range(2):
            node.run_round(wl.take(sc.batch))
        peer, peer_wl, _ = build("durable-smoke", seed=8)
        for _ in range(4):
            peer.run_round(peer_wl.take(sc.batch))
        restarted, _, _ = build("durable-smoke", seed=7, storage_dir=tmp_path)
        with pytest.raises(ChainIntegrityError):
            restarted.handoff.sync_from_peer(peer.store)
        assert restarted.store.height == 2
        report = recover(tmp_path)
        assert report.clean and report.height == 2
