"""Replica catch-up: sync a lagging governor from the block store.

The paper's synchronous model assumes governors never miss a block; real
deployments still need a recovery path — a governor that rebooted or was
briefly partitioned must catch up before participating again.  Because
blocks are hash-chained and the store is itself a ledger, catch-up is
just: fetch serials ``height+1 .. store.height`` and append, letting the
replica's own integrity checks reject anything inconsistent.
"""

from __future__ import annotations

from repro.ledger.chain import Ledger

__all__ = ["sync_replica"]


def sync_replica(ledger: Ledger, store: Ledger) -> int:
    """Append the blocks ``ledger`` lacks from ``store``.

    Args:
        ledger: The lagging replica (possibly empty).
        store: The published chain (a block store, or any replica).

    Returns:
        Number of blocks appended.

    Raises:
        LedgerError: if the replica holds a block that conflicts with
            the store (its own append checks fire), which indicates
            local corruption — the caller should rebuild from genesis.
    """
    appended = 0
    while ledger.height < store.height:
        ledger.append(store.retrieve(ledger.height + 1))
        appended += 1
    return appended
