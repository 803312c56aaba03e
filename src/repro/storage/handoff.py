"""Restart-from-disk hand-off: from a recovered store to a running engine.

:func:`~repro.storage.durable.open_durable_store` *is* crash recovery —
segments replayed and verified, corrupt tails truncated — but it ends
at a store.  :class:`RestartHandoff` carries the recovered state the
rest of the way into a
:class:`~repro.core.netengine.NetworkedProtocolEngine`:

* :meth:`~RestartHandoff.reanchor` re-seeds every governor's replica —
  anchored at the checkpoint when the prefix was compacted, then
  fast-forwarded through the replayed blocks by the ordinary rejoin
  path (:func:`repro.ledger.sync.sync_replica`) — tells the engine
  which blocks are already on chain, and restores the reputation books
  the checkpoint pinned;
* :meth:`~RestartHandoff.sync_from_peer` later pulls only the suffix
  the disk did not have from a live peer's published store.  The local
  store is a :class:`~repro.ledger.chain.Ledger`, so a pulled block that
  does not extend the recovered tip is refused at ``publish``, before
  it reaches the segment log.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

from repro.exceptions import ProtocolViolationError
from repro.ledger.chain import Ledger
from repro.ledger.store import BlockStore
from repro.ledger.sync import sync_replica
from repro.storage.checkpoints import reputation_digest
from repro.storage.durable import storage_metrics

if TYPE_CHECKING:  # pragma: no cover - the engine builds its hand-off
    from repro.core.netengine import NetworkedProtocolEngine

__all__ = ["RestartHandoff"]


class RestartHandoff:
    """One engine's way back from its own disk and, past that, a peer."""

    def __init__(self, engine: NetworkedProtocolEngine):
        self.engine = engine
        #: Restored books the pinned digest rejected, by corruption kind.
        self.corruptions: Counter[str] = Counter()
        #: Blocks :meth:`sync_from_peer` pulled.
        self.peer_blocks = 0
        # The storage_* family registers unconditionally (like audit_*)
        # so the telemetry inventory is identical with durability off.
        storage_metrics(
            engine.obs,
            corruptions=lambda: self.corruptions,
            recovered=lambda: {"peer": self.peer_blocks} if self.peer_blocks else {},
        )

    def reanchor(self) -> None:
        """Bring a freshly built engine up to what its store recovered.

        A no-op on an empty store (every in-memory run, and a durable
        directory's first open).
        """
        engine, store = self.engine, self.engine.store
        base = store.base_serial
        if store.height == 0 and base == 0:
            return
        for gid, gov in engine.governors.items():
            if base > 0:
                gov.ledger = Ledger.from_checkpoint(
                    owner=gid, serial=base, tip_hash=store.base_hash
                )
            sync_replica(gov.ledger, store)
        # Resume the round counter past the recovered tip so freshly
        # packed blocks never reuse a committed round number.
        engine.resume_past(store.blocks(), round_number=base)
        self._restore_books()

    def _restore_books(self) -> None:
        """Re-seed reputation books from the recovered checkpoint payload.

        The checkpoint carries the sparse book state pinned by its
        ``book_digest``; restoring it means a restarted node resumes with
        the reputation it had at checkpoint time instead of re-learning
        from scratch.  The digest is re-verified after the restore — on
        any mismatch (tampered payload, books from a different topology)
        the restore is rolled back to pristine initial books and the
        divergence is surfaced as a storage corruption metric.
        """
        report = self.engine.recovery_report
        ckpt = report.checkpoint if report is not None else None
        if ckpt is None or ckpt.book_state is None:
            return
        governors = self.engine.governors
        pristine = {gid: gov.book.export_state() for gid, gov in governors.items()}
        try:
            for gid, gov in governors.items():
                state = ckpt.book_state.get(gid)
                if state is None:
                    raise KeyError(gid)
                gov.book.restore_state(state)
            digest = reputation_digest(
                {gid: gov.book for gid, gov in governors.items()}
            )
            if ckpt.book_digest and digest != ckpt.book_digest:
                raise ValueError("restored books do not match the pinned digest")
        except (
            AttributeError, KeyError, ValueError, TypeError, ProtocolViolationError
        ):
            for gid, gov in governors.items():
                gov.book.restore_state(pristine[gid])
            self.corruptions["book-state-mismatch"] += 1

    def sync_from_peer(self, peer_store: BlockStore) -> int:
        """Pull the chain suffix this node lacks from a live peer.

        The second half of restart-from-disk: recovery replayed what the
        local segments held, and this fetches only the remainder from a
        peer's published store.  Each pulled block lands through
        ``publish``, which appends it to this node's store under the
        ledger's append rule before a durable store persists it, and then
        through every governor replica's ``append`` — the hash chain, not
        the peer, authenticates the transfer.  Returns the number of
        blocks pulled.

        Raises:
            LedgerError: the peer's chain does not extend this node's
                verified tip (a divergent or corrupt peer).
        """
        engine, store = self.engine, self.engine.store
        pulled = 0
        while store.height < peer_store.height:
            block = peer_store.retrieve(store.height + 1)
            store.publish(block)
            engine.resume_past([block])
            self.peer_blocks += 1
            pulled += 1
        if pulled:
            for gov in engine.governors.values():
                sync_replica(gov.ledger, store)
        return pulled
