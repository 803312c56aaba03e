"""Synthetic transaction workloads.

A workload is a deterministic (seeded) stream of :class:`TxSpec`
entries: which provider emits the transaction, its application payload,
and its ground-truth validity.  The protocol engine signs and routes
them; the ground truth feeds the shared validity oracle.

Validity models:

* ``bernoulli`` — each transaction is valid i.i.d. with ``p_valid``
  (the theorem setting);
* ``per_provider`` — each provider has his own validity rate, drawn
  once from a Beta distribution (heterogeneous data quality, as in the
  insurance use case where some policyholders systematically misstate);
* ``bursty`` — validity flips between a good and a bad regime with a
  Markov switch (stress for the reputation update).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import ConfigurationError
from repro.rng import default_rng

__all__ = ["TxSpec", "WorkloadGenerator", "BernoulliWorkload", "PerProviderWorkload", "BurstyWorkload"]


@dataclass(frozen=True)
class TxSpec:
    """One workload entry: who sends what, and whether it is valid.

    ``counterparty`` names another provider the transaction settles
    against; when that provider lives on a different shard of a sharded
    deployment the transaction is cross-shard (committed at home, then
    receipt-committed on the counterparty's shard).  ``None`` — the
    default, and the only value non-sharded runs ever see — means the
    transaction is purely local.
    """

    provider: str
    payload: object
    is_valid: bool
    counterparty: str | None = None


class WorkloadGenerator:
    """Base class: round-robin provider choice + a validity model."""

    def __init__(self, providers: Sequence[str], seed: int = 0):
        if not providers:
            raise ConfigurationError("workload needs at least one provider")
        self.providers = list(providers)
        self.rng = default_rng(seed)
        self._count = 0

    def _validity(self, provider: str) -> bool:
        raise NotImplementedError

    def _payload(self, provider: str, index: int) -> object:
        return {"seq": index, "from": provider}

    def take(self, n: int) -> list[TxSpec]:
        """The next ``n`` transactions."""
        return [self._one() for _ in range(n)]

    def _one(self) -> TxSpec:
        provider = self.providers[self._count % len(self.providers)]
        spec = TxSpec(
            provider=provider,
            payload=self._payload(provider, self._count),
            is_valid=self._validity(provider),
        )
        self._count += 1
        return spec


class BernoulliWorkload(WorkloadGenerator):
    """I.i.d. validity with probability ``p_valid`` (the theorem setting)."""

    def __init__(self, providers: Sequence[str], p_valid: float = 0.5, seed: int = 0):
        super().__init__(providers, seed)
        if not 0.0 <= p_valid <= 1.0:
            raise ConfigurationError(f"p_valid must be in [0, 1], got {p_valid}")
        self.p_valid = p_valid

    def _validity(self, provider: str) -> bool:
        return bool(self.rng.random() < self.p_valid)


class PerProviderWorkload(WorkloadGenerator):
    """Each provider has his own validity rate ~ Beta(a, b), drawn once
    (``a`` and ``b`` whole numbers, as :meth:`repro.rng.Generator.beta` draws)."""

    def __init__(
        self,
        providers: Sequence[str],
        alpha: float = 8.0,
        beta: float = 2.0,
        seed: int = 0,
    ):
        super().__init__(providers, seed)
        if min(alpha, beta) < 1 or alpha != int(alpha) or beta != int(beta):
            raise ConfigurationError(
                f"Beta parameters must be whole numbers >= 1, got {alpha}, {beta}"
            )
        # Drawn up-front from the validity stream, as every golden run pins.
        self.rates = {p: self.rng.beta(alpha, beta) for p in self.providers}

    def _validity(self, provider: str) -> bool:
        return bool(self.rng.random() < self.rates[provider])


@dataclass
class _Regime:
    p_valid: float
    stay: float


class BurstyWorkload(WorkloadGenerator):
    """Markov-switching validity: a good regime and a bad regime.

    Args:
        p_good / p_bad: Validity rates in each regime.
        stay: Probability of remaining in the current regime per tx.
    """

    def __init__(
        self,
        providers: Sequence[str],
        p_good: float = 0.95,
        p_bad: float = 0.2,
        stay: float = 0.98,
        seed: int = 0,
    ):
        super().__init__(providers, seed)
        for name, p in (("p_good", p_good), ("p_bad", p_bad), ("stay", stay)):
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {p}")
        self._regimes = (_Regime(p_good, stay), _Regime(p_bad, stay))
        self._state = 0

    def _validity(self, provider: str) -> bool:
        regime = self._regimes[self._state]
        if self.rng.random() >= regime.stay:
            self._state = 1 - self._state
            regime = self._regimes[self._state]
        return bool(self.rng.random() < regime.p_valid)
