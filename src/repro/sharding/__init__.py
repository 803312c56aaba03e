"""Reputation-aware sharding: S committees, one clock, atomic cross-shard commits.

The scale-out subsystem the ROADMAP's production north-star calls for:
:class:`ShardCoordinator` partitions the provider/collector/governor
population into shards (:meth:`repro.network.topology.Topology.sharded`),
runs one :class:`~repro.core.netengine.NetworkedProtocolEngine` per
shard on a shared simulator clock with overlapping rounds, relays
signed :class:`~repro.sharding.receipts.CrossShardReceipt` certificates
for cross-shard transactions, and rebalances collectors across shards
each epoch by live reputation mass (RepChain-style,
:mod:`repro.sharding.assignment`).  Atomicity of the two-leg commit is
certified by :class:`repro.audit.xshard.CrossShardAuditor`.
"""

from repro.sharding.assignment import (
    Migration,
    migration_moves,
    reshuffle_assignment,
)
from repro.sharding.coordinator import ShardCoordinator, SuperRoundResult
from repro.sharding.receipts import (
    CrossShardReceipt,
    make_receipt,
    receipt_id_for,
    verify_receipt,
)

__all__ = [
    "CrossShardReceipt",
    "Migration",
    "ShardCoordinator",
    "SuperRoundResult",
    "make_receipt",
    "migration_moves",
    "receipt_id_for",
    "reshuffle_assignment",
    "verify_receipt",
]
