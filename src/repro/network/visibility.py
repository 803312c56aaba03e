"""Partial governor visibility — adjusting the structure (Section 3.1).

The paper defaults to every governor being connected to all collectors,
but notes: *"in real cases, a governor may only perceive partial
information. Under such conditions, the structure of the network can be
adjusted."*  :class:`VisibilityMap` is that adjustment: a per-governor
subset of collectors whose uploads he receives.

For the protocol to stay live the map must satisfy a **coverage**
constraint: for every (governor, provider) pair, the governor must see
at least one collector linked with that provider — otherwise that
governor can never screen that provider's transactions (and, if leader,
would silently drop them).  :meth:`validate` enforces it;
:meth:`random_partial` constructs random maps that respect it by always
keeping one covering collector per (governor, provider) before thinning
the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import TopologyError
from repro.network.topology import Topology
from repro.rng import default_rng

__all__ = ["VisibilityMap"]


@dataclass(frozen=True)
class VisibilityMap:
    """governor id -> frozenset of visible collector ids."""

    visible: dict[str, frozenset[str]]

    @staticmethod
    def random_partial(
        topology: Topology, keep_fraction: float, seed: int = 0
    ) -> "VisibilityMap":
        """A random coverage-preserving partial map.

        Each governor first builds a *small* covering set greedily (the
        collector covering the most still-uncovered providers wins, ties
        broken randomly), then keeps each remaining collector
        independently with probability ``keep_fraction``.  At
        ``keep_fraction = 0`` the view is a near-minimal set cover; at 1
        it is the full view.
        """
        if not 0.0 <= keep_fraction <= 1.0:
            raise TopologyError(f"keep_fraction must be in [0, 1], got {keep_fraction}")
        rng = default_rng(seed)
        visible: dict[str, frozenset[str]] = {}
        for governor in topology.governors:
            uncovered = set(topology.providers)
            keep: set[str] = set()
            while uncovered:
                best_gain = 0
                candidates: list[str] = []
                for collector in topology.collectors:
                    if collector in keep:
                        continue
                    gain = len(uncovered & set(topology.providers_of(collector)))
                    if gain > best_gain:
                        best_gain, candidates = gain, [collector]
                    elif gain == best_gain and gain > 0:
                        candidates.append(collector)
                chosen = candidates[rng.integers(len(candidates))]
                keep.add(chosen)
                uncovered -= set(topology.providers_of(chosen))
            for collector in topology.collectors:
                if collector not in keep and rng.random() < keep_fraction:
                    keep.add(collector)
            visible[governor] = frozenset(keep)
        vmap = VisibilityMap(visible)
        vmap.validate(topology)
        return vmap

    def collectors_for(self, governor: str) -> frozenset[str]:
        """The collectors ``governor`` receives uploads from."""
        try:
            return self.visible[governor]
        except KeyError:
            raise TopologyError(f"no visibility entry for governor {governor!r}") from None

    def sees(self, governor: str, collector: str) -> bool:
        """Whether the governor receives this collector's uploads."""
        return collector in self.collectors_for(governor)

    def validate(self, topology: Topology) -> None:
        """Check shape and the coverage constraint.

        Raises:
            TopologyError: missing governors, unknown collectors, or a
                (governor, provider) pair with no visible linked collector.
        """
        missing = set(topology.governors) - set(self.visible)
        if missing:
            raise TopologyError(f"no visibility entry for governors {sorted(missing)}")
        all_collectors = set(topology.collectors)
        for governor, collectors in self.visible.items():
            unknown = set(collectors) - all_collectors
            if unknown:
                raise TopologyError(
                    f"governor {governor!r} lists unknown collectors {sorted(unknown)}"
                )
            if not collectors:
                raise TopologyError(f"governor {governor!r} sees no collectors")
            for provider in topology.providers:
                linked = set(topology.collectors_of(provider))
                if not (linked & set(collectors)):
                    raise TopologyError(
                        f"coverage violated: governor {governor!r} sees no "
                        f"collector linked with provider {provider!r}"
                    )

    def mean_visibility(self, topology: Topology) -> float:
        """Average fraction of collectors visible per governor."""
        n = topology.n
        fractions = [len(self.visible[g]) / n for g in topology.governors]
        return sum(fractions) / len(fractions)
