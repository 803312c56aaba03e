"""The remote leg of a cross-shard commit, as one shard engine holds it.

A :class:`ReceiptInbox` makes a
:class:`~repro.core.netengine.NetworkedProtocolEngine` a *shard* engine:
it enrols the shard's receipt-relay identity, buffers the
:class:`~repro.sharding.receipts.CrossShardReceipt` messages the
coordinator relays to each governor, hands the round's leader the
buffered receipts as committable records, and remembers which receipts
are on chain.  Only :func:`repro.parallel.backend.build_shard_engine`
builds one, so a plain deployment carries no receipt state at all (and
draws no relay key).

Exactly-once here is three of the four layers the coordinator's header
lists: per-governor buffer dedup, the engine-wide applied-id set, and a
record whose tx id every governor (and every retry) derives identically,
which the engine's pack-time dedup then filters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.crypto.identity import Role
from repro.ledger.block import Block
from repro.ledger.properties import BROADCAST, UPLOADED
from repro.ledger.transaction import (
    CheckStatus,
    Label,
    TxRecord,
    make_signed_transaction,
)

if TYPE_CHECKING:  # pragma: no cover - the inbox attaches to a built engine
    from repro.core.netengine import NetworkedProtocolEngine
    from repro.sharding.receipts import CrossShardReceipt

__all__ = ["ReceiptInbox"]


class ReceiptInbox:
    """Cross-shard receipts awaiting pack on one shard engine.

    ``relay_id`` becomes a provider-role member of the engine's alliance
    (receipt records carry its signature, so
    ``SafetyAuditor.audit_block`` verifies them like any other on-chain
    record) with a send-only endpoint on the engine's network.
    """

    def __init__(self, engine: NetworkedProtocolEngine, relay_id: str):
        self.engine = engine
        self.relay_id = relay_id
        self._relay_key = engine.im.enroll(relay_id, Role.PROVIDER)
        engine.register(relay_id, lambda message: None)
        # gid -> receipt_id -> receipt awaiting pack at that governor.
        self.buffers: dict[str, dict[str, CrossShardReceipt]] = {
            gid: {} for gid in engine.topology.governors
        }
        # receipt ids already committed here (replay-proofing).
        self._applied: set[str] = set()
        #: Duplicate deliveries discarded (already buffered or applied).
        self.dups = 0
        engine.obs.counter(
            "shard_receipt_dups_total",
            "Duplicate cross-shard receipt deliveries discarded at a governor",
            read=lambda: self.dups,
        )

    def ingest(self, gid: str, receipt: CrossShardReceipt) -> None:
        """Buffer a relayed receipt at ``gid`` for the next pack, deduped.

        Replay-proofing happens here and at pack time: a receipt id that
        is already buffered or already on chain is discarded (and
        counted), so fault-injector duplicates and coordinator
        re-relays can never commit twice.
        """
        rid = receipt.receipt_id
        if rid in self._applied or rid in self.buffers[gid]:
            self.dups += 1
            return
        self.buffers[gid][rid] = receipt

    def forget(self, gid: str) -> None:
        """``gid`` crashed: its buffer is volatile (the relay re-sends)."""
        self.buffers[gid].clear()

    def take(self, gid: str, budget: int) -> list[TxRecord]:
        """The leader's buffered receipts, as records, up to ``budget``.

        Receipts already on chain are skipped (and evicted): a duplicated
        relay message arriving in the window between one leader's pack
        and the block's observation can be re-buffered at the *next*
        round's leader, whose buffer dedup in :meth:`ingest` ran before
        the applied set learned the id. Checking the applied set again
        at pack time closes that replay window.
        """
        if budget <= 0:
            return []
        buffer = self.buffers[gid]
        stale = [rid for rid in buffer if rid in self._applied]
        for rid in stale:
            del buffer[rid]
            self.dups += 1
        buffered = sorted(
            buffer.values(),
            key=lambda r: (r.home_serial, r.receipt_id),
        )
        return [self._record(receipt) for receipt in buffered[:budget]]

    def _record(self, receipt: CrossShardReceipt) -> TxRecord:
        """Materialise a buffered receipt as a committable ledger record.

        The transaction is signed by the shard's relay identity with a
        nonce and timestamp derived from the receipt itself, so every
        governor (and every retry) derives the **same** tx id — the
        engine's pack-time filter then guarantees at-most-once
        commitment even if a duplicate slipped past the buffer dedup.
        """
        tx = make_signed_transaction(
            self._relay_key,
            payload={
                "xshard_receipt": receipt.receipt_id,
                "home_shard": receipt.home_shard,
                "origin_tx": receipt.tx_id,
            },
            timestamp=float(receipt.home_serial),
            nonce=int(receipt.receipt_id[:12], 16),
        )
        engine = self.engine
        engine.oracle.assign(tx, True)
        # The relay is the provider *and* collector of record for the
        # receipt (it was already screened on its home shard), so the
        # Almost-No-Creation transcript sees both broadcast legs.
        engine.transcript.flags[tx.tx_id] |= BROADCAST | UPLOADED
        return TxRecord(tx=tx, label=Label.VALID, status=CheckStatus.CHECKED)

    def committed(self, gid: str, block: Block) -> None:
        """``gid`` appended ``block``: drop the receipts it carries."""
        for record in block.tx_list:
            payload = record.tx.body.payload
            if isinstance(payload, dict) and "xshard_receipt" in payload:
                rid = payload["xshard_receipt"]
                self._applied.add(rid)
                self.buffers[gid].pop(rid, None)
