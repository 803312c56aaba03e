"""Virtual provider populations for streaming workloads.

A :class:`VirtualUniverse` describes the same circulant link structure
:meth:`repro.network.topology.Topology.regular` builds — provider ``k``
feeds collectors ``(k*r % n + offset) % n`` — but *analytically*: no id
tuples or link dicts are materialized, so a universe of 10^6 registered
providers costs O(n) memory.  :class:`CollectorMembers` is the per-
collector membership view the reputation books index against: O(1)
containment, O(1) length, lazy iteration in exactly the order the
materialized ``providers_of`` tuple would list — which is what keeps
small-N streaming runs bit-identical to a materialized topology
(``tests/test_streaming.py`` locks the two structures against each
other).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterator

from repro.exceptions import TopologyError
from repro.network.topology import (
    check_circulant_shape,
    circulant_indices,
    collector_id,
    governor_id,
    provider_id,
)

__all__ = ["VirtualUniverse", "CollectorMembers", "parse_provider_index"]


def parse_provider_index(pid: str) -> int | None:
    """The ``k`` of a canonical ``p{k}`` id, or None for anything else."""
    if len(pid) < 2 or pid[0] != "p":
        return None
    digits = pid[1:]
    if not digits.isdigit():
        return None
    k = int(digits)
    # Reject non-canonical spellings like "p007": every id in the system
    # is produced by provider_id(), so anything else is foreign.
    if digits != str(k):
        return None
    return k


class CollectorMembers:
    """Lazy view of one collector's provider membership.

    The circulant membership predicate — provider ``k`` belongs to
    collector ``i`` iff ``(i - k*r) mod n < r`` — is periodic in ``k``
    with period ``n // gcd(r, n)``, so one precomputed boolean pattern
    answers containment for any universe size.  Iteration yields
    ascending provider indices, the same order ``Topology.regular``
    appends them in; indexing (``members[j]``) serves the collector
    agent's deterministic forgery-victim pick.
    """

    __slots__ = ("universe", "n", "r", "index", "_period", "_pattern", "_positions", "_prefix", "_length")

    def __init__(self, universe: int, n: int, r: int, collector_index: int):
        self.universe = universe
        self.n = n
        self.r = r
        self.index = collector_index
        period = n // gcd(r, n)
        self._period = period
        pattern = tuple(
            ((collector_index - k * r) % n) < r for k in range(period)
        )
        self._pattern = pattern
        self._positions = tuple(k for k in range(period) if pattern[k])
        prefix = [0]
        for flag in pattern:
            prefix.append(prefix[-1] + (1 if flag else 0))
        self._prefix = tuple(prefix)
        full, rem = divmod(universe, period)
        self._length = full * len(self._positions) + self._prefix[rem]

    def __contains__(self, pid: object) -> bool:
        if not isinstance(pid, str):
            return False
        k = parse_provider_index(pid)
        if k is None or not 0 <= k < self.universe:
            return False
        return self._pattern[k % self._period]

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[str]:
        for base in range(0, self.universe, self._period):
            for pos in self._positions:
                k = base + pos
                if k >= self.universe:
                    return
                yield provider_id(k)

    def __getitem__(self, j: int) -> str:
        """The ``j``-th member in iteration (ascending-index) order."""
        if not 0 <= j < self._length:
            raise IndexError(f"member index {j} out of range [0, {self._length})")
        per_period = len(self._positions)
        full, rem = divmod(j, per_period)
        return provider_id(full * self._period + self._positions[rem])


@dataclass(frozen=True)
class VirtualUniverse:
    """An un-materialized ``(universe, n, m, r)`` circulant deployment.

    ``universe`` registered providers exist *in potentia*; agents and
    reputation overrides are only instantiated for those that actually
    arrive.  At any ``universe == l`` the structure is link-for-link the
    topology :meth:`Topology.regular` builds (locked by a test), so the
    streaming path is a strict lazification, not a new graph family.  It
    answers an engine's enrolment questions the way a ``Topology`` does:
    :attr:`providers` names none up front, and :meth:`providers_of` is a
    collector's lazy membership view.
    """

    universe: int
    n: int
    m: int
    r: int
    #: Every governor sees every collector (a class constant, not a field).
    view = None

    def __post_init__(self) -> None:
        check_circulant_shape(self.universe, self.n, self.m, self.r)

    @property
    def providers(self) -> tuple[str, ...]:
        """None: a streaming population enrols each provider on its first arrival."""
        return ()

    @property
    def collectors(self) -> tuple[str, ...]:
        """Ordered collector ids (the only materialized role tuples)."""
        return tuple(collector_id(i) for i in range(self.n))

    @property
    def governors(self) -> tuple[str, ...]:
        """Ordered governor ids."""
        return tuple(governor_id(j) for j in range(self.m))

    def contains_provider(self, pid: str) -> bool:
        """Whether ``pid`` names a registered (virtual) provider."""
        k = parse_provider_index(pid)
        return k is not None and 0 <= k < self.universe

    def collectors_of_index(self, k: int) -> tuple[str, ...]:
        """The ``r`` collector ids provider ``k`` feeds (circulant)."""
        if not 0 <= k < self.universe:
            raise TopologyError(
                f"provider index {k} outside universe [0, {self.universe})"
            )
        return tuple([collector_id(i) for i in circulant_indices(k, self.n, self.r)])

    def providers_of(self, collector: str) -> CollectorMembers:
        """The lazy membership view of the providers ``collector`` oversees."""
        try:
            return self._members[collector]
        except KeyError:
            raise TopologyError(f"unknown collector {collector!r}") from None

    @cached_property
    def _members(self) -> dict[str, CollectorMembers]:
        return {
            collector_id(i): CollectorMembers(self.universe, self.n, self.r, i)
            for i in range(self.n)
        }
