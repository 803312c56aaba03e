"""Cross-shard traffic mix.

:class:`CrossShardWorkload` wraps any
:class:`~repro.workloads.generator.WorkloadGenerator` and, with
probability ``p_cross`` per transaction, assigns a counterparty
provider drawn uniformly from the *other* shards.  The payload is
wrapped as ``{"xshard_to": counterparty, "body": original}`` — the
marker the :class:`~repro.sharding.ShardCoordinator` scans committed
blocks for when deciding which records need a receipt relayed.  The
protocol engines themselves never inspect it: a cross-shard transaction
is an ordinary transaction on its home shard.

Deterministic: counterparty draws come from this wrapper's own seeded
RNG, independent of the inner workload's validity stream.
"""

from __future__ import annotations

from typing import Mapping

from repro.exceptions import ConfigurationError
from repro.rng import default_rng
from repro.workloads.generator import TxSpec, WorkloadGenerator

__all__ = ["CrossShardWorkload"]


class CrossShardWorkload:
    """Decorate a workload with an ``p_cross`` cross-shard counterparty mix."""

    def __init__(
        self,
        inner: WorkloadGenerator,
        provider_shard: Mapping[str, int],
        p_cross: float = 0.1,
        seed: int = 0,
    ):
        if not 0.0 <= p_cross <= 1.0:
            raise ConfigurationError(f"p_cross must be in [0, 1], got {p_cross}")
        missing = [p for p in inner.providers if p not in provider_shard]
        if missing:
            raise ConfigurationError(f"providers with no shard: {missing}")
        if len(set(provider_shard.values())) < 2 and p_cross > 0:
            raise ConfigurationError("cross-shard traffic needs at least two shards")
        self.inner = inner
        self.p_cross = p_cross
        self.rng = default_rng(seed)
        self.provider_shard = dict(provider_shard)
        # shard -> its providers, in the deterministic map order.
        self._by_shard: dict[int, list[str]] = {}
        for provider, shard in self.provider_shard.items():
            self._by_shard.setdefault(shard, []).append(provider)

    def take(self, n: int) -> list[TxSpec]:
        """The next ``n`` transactions, a ``p_cross`` share cross-shard."""
        specs = []
        for spec in self.inner.take(n):
            if self.p_cross > 0 and self.rng.random() < self.p_cross:
                specs.append(self._crossed(spec))
            else:
                specs.append(spec)
        return specs

    def _crossed(self, spec: TxSpec) -> TxSpec:
        home = self.provider_shard[spec.provider]
        remote = [
            p
            for shard, members in sorted(self._by_shard.items())
            if shard != home
            for p in members
        ]
        counterparty = remote[self.rng.integers(len(remote))]
        return TxSpec(
            provider=spec.provider,
            payload={"xshard_to": counterparty, "body": spec.payload},
            is_valid=spec.is_valid,
            counterparty=counterparty,
        )
