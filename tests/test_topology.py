"""Unit and property tests for the hierarchical topology."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import TopologyError
from repro.network.topology import Topology, balanced_groups
from repro.streaming.universe import VirtualUniverse


def l_of(topo) -> int:
    """``l``: providers."""
    return len(topo.providers)


def s_of(topo) -> int:
    """``s``: providers per collector."""
    return len(topo.providers_of(topo.collectors[0]))


class TestRegular:
    def test_basic_shape(self):
        topo = Topology.regular(l=8, n=4, m=3, r=2)
        assert l_of(topo) == 8 and topo.n == 4 and topo.m == 3
        assert topo.r == 2 and s_of(topo) == 4

    def test_degree_equation(self):
        topo = Topology.regular(l=12, n=6, m=2, r=3)
        assert topo.r * l_of(topo) == s_of(topo) * topo.n

    def test_every_provider_has_r_distinct_collectors(self):
        topo = Topology.regular(l=10, n=5, m=2, r=3)
        for p in topo.providers:
            cs = topo.collectors_of(p)
            assert len(cs) == 3
            assert len(set(cs)) == 3

    def test_every_collector_has_s_providers(self):
        topo = Topology.regular(l=10, n=5, m=2, r=3)
        for c in topo.collectors:
            assert len(topo.providers_of(c)) == s_of(topo)

    def test_links_are_symmetric(self):
        topo = Topology.regular(l=8, n=4, m=2, r=2)
        for p, c in ((p, c) for p in topo.providers for c in topo.collectors_of(p)):
            assert p in topo.providers_of(c)
            assert c in topo.collectors_of(p)

    def test_indivisible_degrees_rejected(self):
        with pytest.raises(TopologyError):
            Topology.regular(l=7, n=4, m=2, r=2)  # 14 not divisible by 4
        with pytest.raises(TopologyError, match="not divisible"):
            VirtualUniverse(universe=7, n=4, m=2, r=2)

    def test_r_exceeding_n_rejected(self):
        with pytest.raises(TopologyError):
            Topology.regular(l=4, n=2, m=2, r=3)
        with pytest.raises(TopologyError, match="exceeds collector count"):
            VirtualUniverse(universe=4, n=2, m=2, r=3)

    def test_zero_sizes_rejected(self):
        with pytest.raises(TopologyError):
            Topology.regular(l=0, n=2, m=2, r=1)
        with pytest.raises(TopologyError, match=">= 1"):
            VirtualUniverse(universe=0, n=2, m=2, r=1)

    def test_full_overlap_case(self):
        # r == n: every provider feeds every collector (paper's default
        # "governor connects to all collectors" analogue at tier 1).
        topo = Topology.regular(l=4, n=4, m=2, r=4)
        for p in topo.providers:
            assert set(topo.collectors_of(p)) == set(topo.collectors)

    def test_unknown_lookups_raise(self):
        topo = Topology.regular(l=4, n=2, m=2, r=1)
        with pytest.raises(TopologyError):
            topo.collectors_of("p99")
        with pytest.raises(TopologyError):
            topo.providers_of("c99")


class TestRandomRegular:
    def test_shape_and_degrees(self):
        topo = Topology.random_regular(l=12, n=6, m=3, r=3, seed=4)
        assert topo.r == 3 and s_of(topo) == 6
        topo.validate()

    def test_deterministic_in_seed(self):
        t1 = Topology.random_regular(l=12, n=6, m=3, r=3, seed=4)
        t2 = Topology.random_regular(l=12, n=6, m=3, r=3, seed=4)
        assert t1.provider_links == t2.provider_links

    def test_different_seeds_differ(self):
        t1 = Topology.random_regular(l=24, n=12, m=3, r=3, seed=4)
        t2 = Topology.random_regular(l=24, n=12, m=3, r=3, seed=5)
        assert t1.provider_links != t2.provider_links

    def test_no_duplicate_links(self):
        topo = Topology.random_regular(l=20, n=10, m=2, r=4, seed=1)
        for p in topo.providers:
            cs = topo.collectors_of(p)
            assert len(set(cs)) == len(cs)


class TestValidation:
    def test_asymmetric_links_rejected(self):
        topo = Topology.regular(l=4, n=2, m=2, r=1)
        broken = Topology.__new__(Topology)
        object.__setattr__(broken, "providers", topo.providers)
        object.__setattr__(broken, "collectors", topo.collectors)
        object.__setattr__(broken, "governors", topo.governors)
        object.__setattr__(broken, "provider_links", dict(topo.provider_links))
        # Point p0 at c1 without mirroring.
        links = dict(topo.provider_links)
        links["p0"] = ("c1",) if links["p0"] == ("c0",) else ("c0",)
        object.__setattr__(broken, "provider_links", links)
        object.__setattr__(broken, "collector_links", dict(topo.collector_links))
        with pytest.raises(TopologyError):
            broken.validate()


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.integers(min_value=r, max_value=10),  # n >= r
            st.integers(min_value=1, max_value=8),   # multiplier for l
            st.integers(min_value=1, max_value=5),   # m
        )
    )
)
def test_property_regular_topology_valid(args):
    """Every constructible regular topology satisfies its invariants."""
    r, n, mult, m = args
    l = n * mult  # guarantees r*l divisible by n
    topo = Topology.regular(l=l, n=n, m=m, r=r)
    topo.validate()
    assert topo.r * l_of(topo) == s_of(topo) * topo.n


class TestDuplicateIds:
    def _rebuild(self, topo, **overrides):
        broken = Topology.__new__(Topology)
        for name in ("providers", "collectors", "governors",
                     "provider_links", "collector_links"):
            object.__setattr__(broken, name, overrides.get(name, getattr(topo, name)))
        return broken

    def test_duplicate_within_role_rejected(self):
        topo = Topology.regular(l=4, n=2, m=2, r=1)
        broken = self._rebuild(topo, governors=("g0", "g0"))
        with pytest.raises(TopologyError, match="duplicate governor ids"):
            broken.validate()

    def test_id_reuse_across_roles_rejected(self):
        topo = Topology.regular(l=4, n=2, m=2, r=1)
        # A governor reusing a collector id would merge two identities.
        broken = self._rebuild(topo, governors=("c0", "g1"))
        with pytest.raises(TopologyError, match="reused across roles"):
            broken.validate()


class TestSharded:
    def test_shapes_and_global_ids(self):
        sharded = Topology.sharded(l=8, n=4, m=4, r=2, shards=2)
        assert sharded.num_shards == 2
        for topo in sharded.shards:
            assert (l_of(topo), topo.n, topo.m, topo.r) == (4, 2, 2, 2)
        all_providers = sorted(p for t in sharded.shards for p in t.providers)
        assert all_providers == sorted(f"p{k}" for k in range(8))

    def test_partition_is_disjoint_and_total(self):
        sharded = Topology.sharded(l=12, n=6, m=3, r=2, shards=3)
        assert sorted(sharded.provider_shard) == sorted(f"p{k}" for k in range(12))
        assert sorted(sharded.collector_shard) == sorted(f"c{i}" for i in range(6))
        assert sorted(sharded.governor_shard) == sorted(f"g{j}" for j in range(3))
        for node, shard in sharded.collector_shard.items():
            assert node in sharded.shards[shard].collectors

    def test_each_shard_satisfies_degree_equation(self):
        sharded = Topology.sharded(l=24, n=8, m=8, r=2, shards=4)
        for topo in sharded.shards:
            topo.validate()
            assert topo.r * l_of(topo) == s_of(topo) * topo.n

    def test_masses_balance_reputation(self):
        # The LPT placement behind sharded builds and epoch reshuffles:
        # one heavy collector per pair, so it must split the heavies apart.
        masses = {"c0": 10.0, "c1": 10.0, "c2": 1.0, "c3": 1.0}
        groups = balanced_groups(list(masses), masses, 2)
        assert [sum(masses[c] for c in group) for group in groups] == [11.0, 11.0]

    def test_seeded_build_is_deterministic(self):
        a = Topology.sharded(l=8, n=4, m=4, r=2, shards=2, seed=5)
        b = Topology.sharded(l=8, n=4, m=4, r=2, shards=2, seed=5)
        assert [t.collectors for t in a.shards] == [t.collectors for t in b.shards]
        assert [t.provider_links for t in a.shards] == [
            t.provider_links for t in b.shards
        ]

    def test_indivisible_counts_rejected(self):
        with pytest.raises(TopologyError, match="divide by shards"):
            Topology.sharded(l=9, n=4, m=4, r=2, shards=2)

    def test_zero_shards_rejected(self):
        with pytest.raises(TopologyError, match="shard count"):
            Topology.sharded(l=8, n=4, m=4, r=2, shards=0)

    def test_single_shard_matches_flat_shape(self):
        sharded = Topology.sharded(l=8, n=4, m=3, r=2, shards=1)
        flat = Topology.regular(l=8, n=4, m=3, r=2)
        (only,) = sharded.shards
        assert only.providers == flat.providers
        assert only.provider_links == flat.provider_links


class TestBalancedGroups:
    def test_uneven_split_rejected(self):

        with pytest.raises(TopologyError):
            balanced_groups(["a", "b", "c"], {}, 2)

    def test_equal_capacity_enforced(self):

        # Even with one dominant mass, bins stay equal-size.
        groups = balanced_groups(
            ["a", "b", "c", "d"], {"a": 100.0}, 2
        )
        assert sorted(len(g) for g in groups) == [2, 2]
