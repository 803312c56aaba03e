"""Open-loop streaming workload over a virtual provider population.

:class:`StreamingWorkload` emits :class:`TxSpec` streams whose provider
population is a :class:`~repro.streaming.universe.VirtualUniverse`:
nothing is allocated per provider until a transaction actually names
one.  Each transaction's provider is drawn uniformly from the universe,
and its validity is ``bernoulli`` (one rate for everyone) or
``per_provider`` (a lazy Beta rate per provider).  The validity draws
come from the main seeded stream; provider selection, the lazy rates
and domain payload enrichment each draw from their own tagged
``SeedSequence`` spawn, so however much randomness one of them consumes
never perturbs another.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.exceptions import ConfigurationError
from repro.network.topology import provider_id
from repro.streaming.universe import VirtualUniverse
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.generator import TxSpec

__all__ = ["StreamingWorkload", "provider_rate"]

#: Stream tags for the auxiliary RNGs (``SeedSequence([seed, TAG, ...])``).
#: Frozen constants — changing one changes every seeded streaming run.
_RATE_TAG = 0x53545231  # "STR1": lazy per-provider Beta validity rates
_SELECT_TAG = 0x53545232  # "STR2": uniform provider selection
_DOMAIN_TAG = 0x53545233  # "STR3": domain-oracle payload enrichment

VALIDITY_MODELS = ("bernoulli", "per_provider")


def provider_rate(
    seed: int, index: int, alpha: float = 8.0, beta: float = 2.0
) -> float:
    """Provider ``index``'s validity rate ~ Beta(alpha, beta), lazily.

    Keyed by ``(seed, RATE_TAG, index)`` so the rate of provider k is the
    same whether it is the first or the millionth to arrive — no up-front
    Beta sweep over the universe, and no coupling to the validity stream.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, _RATE_TAG, index]))
    return float(rng.beta(alpha, beta))


class StreamingWorkload:
    """Lazy seeded :class:`TxSpec` stream over a virtual universe.

    Args:
        universe: The virtual population and its link structure.
        arrivals: Per-round offered-load process (:meth:`for_round`).
        validity: ``bernoulli`` (every spec valid with ``p_valid``) or
            ``per_provider`` (provider k valid with its
            :func:`provider_rate` under ``alpha`` / ``beta``).
        seed: Seeds the main validity stream and, via stream tags, the
            auxiliary streams.
        spec_hook: Optional ``(spec, index, rng) -> TxSpec`` transform a
            domain oracle uses to enrich payloads / set counterparties;
            it receives the dedicated domain RNG, so the validity stream
            is untouched by however much randomness the domain consumes.
    """

    def __init__(
        self,
        universe: VirtualUniverse,
        arrivals: ArrivalProcess,
        validity: str = "bernoulli",
        seed: int = 0,
        p_valid: float = 0.5,
        alpha: float = 8.0,
        beta: float = 2.0,
        spec_hook: Callable[[TxSpec, int, np.random.Generator], TxSpec] | None = None,
    ):
        if validity not in VALIDITY_MODELS:
            raise ConfigurationError(
                f"unknown validity model {validity!r}; choose from {VALIDITY_MODELS}"
            )
        if not 0.0 <= p_valid <= 1.0:
            raise ConfigurationError(f"p_valid must be in [0, 1], got {p_valid}")
        if alpha <= 0 or beta <= 0:
            raise ConfigurationError("Beta distribution parameters must be positive")
        self.universe = universe
        self.arrivals = arrivals
        self.validity = validity
        self.seed = seed
        self.p_valid = p_valid
        self.alpha = alpha
        self.beta = beta
        self.spec_hook = spec_hook
        self.rng = np.random.default_rng(seed)
        self._select_rng = np.random.default_rng(
            np.random.SeedSequence([seed, _SELECT_TAG])
        )
        self._domain_rng = np.random.default_rng(
            np.random.SeedSequence([seed, _DOMAIN_TAG])
        )
        self._rates: dict[int, float] = {}
        self._count = 0

    def _rate(self, k: int) -> float:
        rate = self._rates.get(k)
        if rate is None:
            rate = provider_rate(self.seed, k, self.alpha, self.beta)
            self._rates[k] = rate
        return rate

    def _one(self) -> TxSpec:
        k = int(self._select_rng.integers(self.universe.universe))
        provider = provider_id(k)
        rate = self.p_valid if self.validity == "bernoulli" else self._rate(k)
        spec = TxSpec(
            provider=provider,
            payload={"seq": self._count, "from": provider},
            is_valid=bool(self.rng.random() < rate),
        )
        if self.spec_hook is not None:
            spec = self.spec_hook(spec, self._count, self._domain_rng)
        self._count += 1
        return spec

    def take(self, n: int) -> list[TxSpec]:
        """The next ``n`` transactions."""
        return [self._one() for _ in range(n)]

    def for_round(self, round_number: int) -> list[TxSpec]:
        """One round's arrivals: ``arrivals.count_for_round`` then take."""
        return self.take(self.arrivals.count_for_round(round_number))

    @property
    def emitted(self) -> int:
        """Transactions emitted so far."""
        return self._count
