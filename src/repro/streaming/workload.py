"""Open-loop streaming workload over a virtual provider population.

:class:`StreamingWorkload` emits :class:`TxSpec` streams whose provider
population is a :class:`~repro.streaming.universe.VirtualUniverse`:
nothing is allocated per provider until a transaction actually names
one.  Each transaction's provider is drawn uniformly from the universe
and is valid with one rate, ``p_valid``, for everyone.  The validity
draws come from the main seeded stream; provider selection and payload
enrichment each draw from their own tagged stream
(``default_rng([seed, TAG])``), so however much randomness one of them
consumes never perturbs another.
"""

from __future__ import annotations

from typing import Callable

from repro.exceptions import ConfigurationError
from repro.network.topology import provider_id
from repro.rng import Generator, default_rng
from repro.streaming.universe import VirtualUniverse
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.generator import TxSpec

__all__ = ["StreamingWorkload"]

#: Stream tags for the auxiliary RNGs (``default_rng([seed, TAG])``).
#: Frozen constants — changing one changes every seeded streaming run.
_SELECT_TAG = 0x53545232  # "STR2": uniform provider selection
_DOMAIN_TAG = 0x53545233  # "STR3": payload enrichment (``spec_hook``)


class StreamingWorkload:
    """Lazy seeded :class:`TxSpec` stream over a virtual universe.

    Args:
        universe: The virtual population and its link structure.
        arrivals: Per-round offered-load process (:meth:`for_round`).
        seed: Seeds the main validity stream and, via stream tags, the
            auxiliary streams.
        p_valid: Every spec's chance of being valid.
        spec_hook: Optional ``(spec, index, rng) -> TxSpec`` transform
            that enriches payloads / sets counterparties; it receives
            the dedicated enrichment RNG, so the validity stream is
            untouched by however much randomness the hook consumes.
    """

    def __init__(
        self,
        universe: VirtualUniverse,
        arrivals: ArrivalProcess,
        seed: int = 0,
        p_valid: float = 0.5,
        spec_hook: Callable[[TxSpec, int, Generator], TxSpec] | None = None,
    ):
        if not 0.0 <= p_valid <= 1.0:
            raise ConfigurationError(f"p_valid must be in [0, 1], got {p_valid}")
        self.universe = universe
        self.arrivals = arrivals
        self.p_valid = p_valid
        self.spec_hook = spec_hook
        self.rng = default_rng(seed)
        self._select_rng = default_rng([seed, _SELECT_TAG])
        self._domain_rng = default_rng([seed, _DOMAIN_TAG])
        self._count = 0

    def _one(self) -> TxSpec:
        k = self._select_rng.integers(self.universe.universe)
        provider = provider_id(k)
        spec = TxSpec(
            provider=provider,
            payload={"seq": self._count, "from": provider},
            is_valid=bool(self.rng.random() < self.p_valid),
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
