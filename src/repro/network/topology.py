"""Hierarchical topology builder (Figure 1 of the paper).

The model links ``l`` providers, ``n`` collectors and ``m`` governors:
each provider submits to ``r`` collectors, each collector receives from
``s`` providers, hence ``r * l == s * n``; every governor connects to
all collectors (the default the paper assumes).

:class:`Topology` constructs and validates such a structure.  Two
builders are offered:

* :meth:`Topology.regular` — a deterministic circulant design where
  provider ``k`` links to collectors ``k*r//s ... `` in a balanced way,
  guaranteeing *exact* degrees ``r`` and ``s``;
* :meth:`Topology.random_regular` — a seeded random bipartite regular
  graph via configuration-model shuffling, for experiments that need
  varied overlap patterns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import TopologyError
from repro.rng import default_rng

__all__ = [
    "Topology",
    "ShardedTopology",
    "balanced_groups",
    "check_circulant_shape",
    "circulant_indices",
    "provider_id",
    "collector_id",
    "governor_id",
]


def provider_id(k: int) -> str:
    """Canonical node id of provider ``p_k`` (0-based)."""
    return f"p{k}"


def collector_id(i: int) -> str:
    """Canonical node id of collector ``c_i`` (0-based)."""
    return f"c{i}"


def governor_id(j: int) -> str:
    """Canonical node id of governor ``g_j`` (0-based)."""
    return f"g{j}"


def check_circulant_shape(l: int, n: int, m: int, r: int) -> None:
    """Reject a shape no circulant design realises.

    Every size must be >= 1, ``r <= n``, and ``r * l % n == 0`` so that
    ``s = r * l / n`` is integral (the paper's ``r*l == s*n``).

    Raises:
        TopologyError: naming the first condition that fails.
    """
    if min(l, n, m, r) < 1:
        raise TopologyError(f"all sizes must be >= 1, got l={l} n={n} m={m} r={r}")
    if r > n:
        raise TopologyError(f"provider degree r={r} exceeds collector count n={n}")
    if (r * l) % n != 0:
        raise TopologyError(
            f"r*l = {r * l} is not divisible by n = {n}; "
            "the paper requires r*l == s*n with integral s"
        )


def circulant_indices(k: int, n: int, r: int) -> list[int]:
    """The collector indices provider index ``k`` links to.

    The circulant rule: start at ``(k * r) % n`` and take the next ``r``
    collectors (mod ``n``), which keeps every collector's load at exactly
    ``s = r * l / n``.
    """
    start = k * r
    return [(start + offset) % n for offset in range(r)]


@dataclass(frozen=True)
class Topology:
    """An immutable provider/collector/governor link structure.

    Attributes:
        providers: Ordered provider ids (length ``l``).
        collectors: Ordered collector ids (length ``n``).
        governors: Ordered governor ids (length ``m``).
        provider_links: provider id -> tuple of its ``r`` collector ids.
        collector_links: collector id -> tuple of its ``s`` provider ids.
    """

    providers: tuple[str, ...]
    collectors: tuple[str, ...]
    governors: tuple[str, ...]
    provider_links: dict[str, tuple[str, ...]] = field(hash=False)
    collector_links: dict[str, tuple[str, ...]] = field(hash=False)

    def __post_init__(self) -> None:
        self.validate()

    # -- constructors ---------------------------------------------------

    @staticmethod
    def regular(l: int, n: int, m: int, r: int) -> "Topology":
        """Build the deterministic circulant topology.

        Provider ``k`` links to collectors ``(k + 0) % n, ..., (k + r - 1) % n``
        scaled so degrees balance.  Requires ``r * l % n == 0`` so that
        ``s = r * l / n`` is integral, and ``r <= n``.

        Raises:
            TopologyError: when the degree equation cannot be satisfied.
        """
        check_circulant_shape(l, n, m, r)
        providers = tuple(provider_id(k) for k in range(l))
        collectors = tuple(collector_id(i) for i in range(n))
        governors = tuple(governor_id(j) for j in range(m))
        provider_links: dict[str, tuple[str, ...]] = {}
        collector_links: dict[str, list[str]] = {c: [] for c in collectors}
        for k in range(l):
            chosen = tuple([collectors[i] for i in circulant_indices(k, n, r)])
            provider_links[providers[k]] = chosen
            for c in chosen:
                collector_links[c].append(providers[k])
        return Topology(
            providers=providers,
            collectors=collectors,
            governors=governors,
            provider_links=provider_links,
            collector_links={c: tuple(ps) for c, ps in collector_links.items()},
        )

    @staticmethod
    def random_regular(l: int, n: int, m: int, r: int, seed: int = 0) -> "Topology":
        """Random bipartite (r, s)-biregular topology.

        Built as a randomly relabeled circulant: the deterministic
        balanced design of :meth:`regular` composed with independent
        random permutations of the provider and collector index spaces.
        Always simple (no multi-edges), always exactly biregular, and
        deterministic in ``seed``; overlap patterns vary with the seed,
        which is what the sensitivity experiments need.
        """
        check_circulant_shape(l, n, m, r)
        rng = default_rng(seed)
        providers = tuple(provider_id(k) for k in range(l))
        collectors = tuple(collector_id(i) for i in range(n))
        governors = tuple(governor_id(j) for j in range(m))
        provider_perm = rng.permutation(l)
        collector_perm = rng.permutation(n)
        provider_links = {}
        for k in range(l):
            chosen = [
                collectors[collector_perm[i]]
                for i in circulant_indices(provider_perm[k], n, r)
            ]
            provider_links[providers[k]] = tuple(sorted(chosen))
        collector_links: dict[str, list[str]] = {c: [] for c in collectors}
        for p, cs in provider_links.items():
            for c in cs:
                collector_links[c].append(p)
        return Topology(
            providers=providers,
            collectors=collectors,
            governors=governors,
            provider_links=provider_links,
            collector_links={c: tuple(ps) for c, ps in collector_links.items()},
        )

    @staticmethod
    def sharded(
        l: int,
        n: int,
        m: int,
        r: int,
        shards: int,
        seed: int | None = None,
    ) -> "ShardedTopology":
        """Partition an ``(l, n, m, r)`` deployment into ``shards`` shards.

        Node counts split evenly: each shard gets ``l/shards`` providers,
        ``n/shards`` collectors and ``m/shards`` governors, with the
        global id spaces (``p*``, ``c*``, ``g*``) preserved.  Providers
        and governors are dealt round-robin by index; collectors are
        placed by :func:`balanced_groups` at the genesis state's uniform
        reputation (epoch reshuffles rebalance by mass:
        :mod:`repro.sharding.assignment`).  Links within each shard follow
        the same ergonomics as the flat builders: the deterministic
        circulant of :meth:`regular`, or :meth:`random_regular` graphs
        (and a permuted collector placement) when ``seed`` is given.

        Raises:
            TopologyError: when any role count is not divisible by
                ``shards`` or a per-shard degree equation fails.
        """
        if shards < 1:
            raise TopologyError(f"shard count must be >= 1, got {shards}")
        if l % shards or n % shards or m % shards:
            raise TopologyError(
                f"node counts l={l} n={n} m={m} must all divide by shards={shards}"
            )
        providers = [provider_id(k) for k in range(l)]
        collectors = [collector_id(i) for i in range(n)]
        governors = [governor_id(j) for j in range(m)]
        rng = default_rng(seed) if seed is not None else None
        if rng is not None:
            collectors = [collectors[i] for i in rng.permutation(n)]
        groups = balanced_groups(collectors, {}, shards)
        shard_topos = []
        provider_shard: dict[str, int] = {}
        collector_shard: dict[str, int] = {}
        governor_shard: dict[str, int] = {}
        for k in range(shards):
            shard_providers = providers[k::shards]
            shard_governors = governors[k::shards]
            shard_collectors = sorted(groups[k], key=collectors.index)
            if rng is None:
                base = Topology.regular(l // shards, n // shards, m // shards, r)
            else:
                base = Topology.random_regular(
                    l // shards, n // shards, m // shards, r, seed=seed + k + 1
                )
            shard_topos.append(
                _relabel(base, shard_providers, shard_collectors, shard_governors)
            )
            for pid in shard_providers:
                provider_shard[pid] = k
            for cid in shard_collectors:
                collector_shard[cid] = k
            for gid in shard_governors:
                governor_shard[gid] = k
        return ShardedTopology(
            shards=tuple(shard_topos),
            provider_shard=provider_shard,
            collector_shard=collector_shard,
            governor_shard=governor_shard,
        )

    # -- derived quantities ----------------------------------------------

    @property
    def n(self) -> int:
        """Number of collectors."""
        return len(self.collectors)

    @property
    def m(self) -> int:
        """Number of governors."""
        return len(self.governors)

    @property
    def r(self) -> int:
        """Collectors per provider."""
        return len(next(iter(self.provider_links.values())))

    def collectors_of(self, provider: str) -> tuple[str, ...]:
        """The ``r`` collectors a provider broadcasts to."""
        try:
            return self.provider_links[provider]
        except KeyError:
            raise TopologyError(f"unknown provider {provider!r}") from None

    def providers_of(self, collector: str) -> tuple[str, ...]:
        """The ``s`` providers a collector oversees."""
        try:
            return self.collector_links[collector]
        except KeyError:
            raise TopologyError(f"unknown collector {collector!r}") from None

    def validate(self) -> None:
        """Check the degree equation r*l == s*n and link consistency.

        Raises:
            TopologyError: on any inconsistency.
        """
        if not self.providers or not self.collectors or not self.governors:
            raise TopologyError("topology must have at least one node of each role")
        # Node ids must be unique within a role *and* across roles:
        # every id is a network endpoint, a signing identity, and a
        # reputation-book key, so a duplicate (e.g. a governor reusing a
        # collector id) silently merges two nodes downstream.
        for role, ids in (
            ("provider", self.providers),
            ("collector", self.collectors),
            ("governor", self.governors),
        ):
            if len(set(ids)) != len(ids):
                dupes = sorted({i for i in ids if ids.count(i) > 1})
                raise TopologyError(f"duplicate {role} ids: {dupes}")
        all_ids = (*self.providers, *self.collectors, *self.governors)
        if len(set(all_ids)) != len(all_ids):
            dupes = sorted({i for i in all_ids if all_ids.count(i) > 1})
            raise TopologyError(f"node ids reused across roles: {dupes}")
        degrees_r = {len(cs) for cs in self.provider_links.values()}
        degrees_s = {len(ps) for ps in self.collector_links.values()}
        if len(degrees_r) != 1:
            raise TopologyError(f"provider degrees are not uniform: {sorted(degrees_r)}")
        if len(degrees_s) != 1:
            raise TopologyError(f"collector degrees are not uniform: {sorted(degrees_s)}")
        r, s = degrees_r.pop(), degrees_s.pop()
        if r * len(self.providers) != s * len(self.collectors):
            raise TopologyError(
                f"degree equation violated: r*l = {r * len(self.providers)} "
                f"!= s*n = {s * len(self.collectors)}"
            )
        for p, cs in self.provider_links.items():
            if len(set(cs)) != len(cs):
                raise TopologyError(f"provider {p!r} linked twice to a collector")
            for c in cs:
                if p not in self.collector_links.get(c, ()):
                    raise TopologyError(f"asymmetric link: {p!r} -> {c!r} not mirrored")
        for c, ps in self.collector_links.items():
            for p in ps:
                if c not in self.provider_links.get(p, ()):
                    raise TopologyError(f"asymmetric link: {c!r} -> {p!r} not mirrored")


def _relabel(
    base: Topology,
    providers: list[str],
    collectors: list[str],
    governors: list[str],
) -> Topology:
    """Rename ``base``'s canonical ids onto the given member lists."""
    pmap = dict(zip(base.providers, providers))
    cmap = dict(zip(base.collectors, collectors))
    return Topology(
        providers=tuple(providers),
        collectors=tuple(collectors),
        governors=tuple(governors),
        provider_links={
            pmap[p]: tuple(cmap[c] for c in cs) for p, cs in base.provider_links.items()
        },
        collector_links={
            cmap[c]: tuple(pmap[p] for p in ps) for c, ps in base.collector_links.items()
        },
    )


def balanced_groups(
    ids: list[str], masses: dict[str, float], groups: int
) -> list[list[str]]:
    """Partition ``ids`` into ``groups`` equal-size bins balancing mass.

    Greedy LPT: rank ids by descending ``masses`` (missing entries count
    as 1.0 — genesis weight), then place each into the lightest bin that
    still has capacity, breaking ties by bin index.  Deterministic: the
    ranking sort is stable in the input order, so callers vary placement
    by permuting ``ids`` with their own seeded RNG.  This is the
    RepChain-style reputation-balanced shard assignment.

    Raises:
        TopologyError: when ``len(ids)`` is not divisible by ``groups``.
    """
    if groups < 1:
        raise TopologyError(f"group count must be >= 1, got {groups}")
    if len(ids) % groups:
        raise TopologyError(
            f"{len(ids)} ids cannot split evenly into {groups} groups"
        )
    capacity = len(ids) // groups
    ranked = sorted(ids, key=lambda i: -masses.get(i, 1.0))
    bins: list[list[str]] = [[] for _ in range(groups)]
    totals = [0.0] * groups
    for node in ranked:
        open_bins = [g for g in range(groups) if len(bins[g]) < capacity]
        target = min(open_bins, key=lambda g: (totals[g], g))
        bins[target].append(node)
        totals[target] += masses.get(node, 1.0)
    return bins


@dataclass(frozen=True)
class ShardedTopology:
    """A disjoint family of per-shard :class:`Topology` structures.

    Produced by :meth:`Topology.sharded`; consumed by
    :class:`repro.sharding.ShardCoordinator`, which runs one protocol
    engine per entry of :attr:`shards` over a shared simulator clock.
    The ``*_shard`` maps give each node's home shard index.
    """

    shards: tuple[Topology, ...]
    provider_shard: dict[str, int] = field(hash=False)
    collector_shard: dict[str, int] = field(hash=False)
    governor_shard: dict[str, int] = field(hash=False)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for topo in self.shards:
            ids = {*topo.providers, *topo.collectors, *topo.governors}
            overlap = seen & ids
            if overlap:
                raise TopologyError(f"node ids appear on multiple shards: {sorted(overlap)}")
            seen |= ids

    @property
    def num_shards(self) -> int:
        """How many shards the deployment is split into."""
        return len(self.shards)

    @property
    def providers(self) -> tuple[str, ...]:
        """Every provider, shard by shard (what a deployment-wide workload draws from)."""
        return tuple(p for topo in self.shards for p in topo.providers)

    @property
    def collectors(self) -> tuple[str, ...]:
        """Every collector, shard by shard (what a behaviour map is keyed by)."""
        return tuple(c for topo in self.shards for c in topo.collectors)
