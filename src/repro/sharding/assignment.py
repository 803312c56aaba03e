"""Reputation-weighted shard assignment and epoch reshuffling.

RepChain-style placement: collectors are distributed so every shard
hosts an (approximately) equal share of the total reputation mass, and
each epoch the assignment is recomputed from the *live* reputation
books and collectors migrate accordingly.  Everything here is pure and
deterministic — the seeded permutation is the only randomness, derived
from ``(seed, epoch)`` so a reshuffle schedule is reproducible
bit-for-bit and two coordinators with the same seed shuffle
identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.network.topology import balanced_groups
from repro.rng import default_rng

__all__ = ["Migration", "migration_moves", "reshuffle_assignment"]


@dataclass(frozen=True)
class Migration:
    """One collector's move in an epoch reshuffle."""

    collector: str
    source: int
    target: int


def reshuffle_assignment(
    current: dict[str, int],
    masses: dict[str, float],
    shards: int,
    seed: int,
    epoch: int,
) -> dict[str, int]:
    """Recompute the collector -> shard map for a new epoch.

    The collector universe is permuted with an RNG seeded by
    ``(seed, epoch)`` (deterministic, epoch-varying tie-breaking), then
    greedily re-packed into equal-size, reputation-balanced groups by
    :func:`repro.network.topology.balanced_groups`.

    Raises:
        ConfigurationError: when the current map is not evenly sharded.
    """
    if shards < 1:
        raise ConfigurationError(f"shard count must be >= 1, got {shards}")
    ids = sorted(current)
    if len(ids) % shards:
        raise ConfigurationError(
            f"{len(ids)} collectors cannot split evenly into {shards} shards"
        )
    rng = default_rng([seed, epoch])
    permuted = [ids[i] for i in rng.permutation(len(ids))]
    groups = balanced_groups(permuted, masses, shards)
    return {cid: k for k, group in enumerate(groups) for cid in group}


def migration_moves(
    current: dict[str, int], target: dict[str, int]
) -> list[Migration]:
    """The collectors that change shard between two assignments, sorted.

    Raises:
        ConfigurationError: when the two maps cover different collectors
            or per-shard counts differ (migrations must fill exactly the
            slots that departures vacate).
    """
    if set(current) != set(target):
        raise ConfigurationError("assignments cover different collector sets")
    for k in set(current.values()) | set(target.values()):
        before = sum(1 for s in current.values() if s == k)
        after = sum(1 for s in target.values() if s == k)
        if before != after:
            raise ConfigurationError(
                f"shard {k} size changes {before} -> {after}; reshuffles "
                "must preserve per-shard collector counts"
            )
    return [
        Migration(collector=cid, source=current[cid], target=target[cid])
        for cid in sorted(current)
        if current[cid] != target[cid]
    ]
