"""Tests for partial governor visibility."""

from __future__ import annotations

import pytest

from repro.agents.behaviors import MisreportBehavior
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.exceptions import TopologyError
from repro.ledger.chain import check_agreement
from repro.network.topology import Topology
from repro.network.visibility import VisibilityMap
from repro.workloads.generator import BernoulliWorkload


@pytest.fixture
def topo():
    return Topology.regular(l=8, n=4, m=3, r=2)


class TestVisibilityMap:
    def test_full_map(self, topo):
        vmap = VisibilityMap({g: frozenset(topo.collectors) for g in topo.governors})
        vmap.validate(topo)
        assert vmap.mean_visibility(topo) == 1.0
        assert vmap.sees("g0", "c3")

    def test_random_partial_respects_coverage(self, topo):
        vmap = VisibilityMap.random_partial(topo, keep_fraction=0.0, seed=4)
        vmap.validate(topo)  # coverage built in even at keep = 0
        assert 0 < vmap.mean_visibility(topo) <= 1.0

    def test_random_partial_deterministic(self, topo):
        a = VisibilityMap.random_partial(topo, 0.3, seed=5)
        b = VisibilityMap.random_partial(topo, 0.3, seed=5)
        assert a.visible == b.visible

    def test_keep_one_is_full(self, topo):
        vmap = VisibilityMap.random_partial(topo, keep_fraction=1.0, seed=6)
        assert vmap.mean_visibility(topo) == 1.0

    def test_invalid_fraction(self, topo):
        with pytest.raises(TopologyError):
            VisibilityMap.random_partial(topo, 1.5)

    def test_missing_governor_rejected(self, topo):
        vmap = VisibilityMap({"g0": frozenset(topo.collectors)})
        with pytest.raises(TopologyError):
            vmap.validate(topo)

    def test_unknown_collector_rejected(self, topo):
        vmap = VisibilityMap(
            {g: frozenset(topo.collectors) | {"ghost"} for g in topo.governors}
        )
        with pytest.raises(TopologyError):
            vmap.validate(topo)

    def test_coverage_violation_rejected(self, topo):
        # g0 sees only collectors not linked with p0.
        linked_to_p0 = set(topo.collectors_of("p0"))
        others = frozenset(set(topo.collectors) - linked_to_p0)
        vis = {g: frozenset(topo.collectors) for g in topo.governors}
        vis["g0"] = others
        with pytest.raises(TopologyError):
            VisibilityMap(vis).validate(topo)

    def test_unknown_governor_lookup(self, topo):
        with pytest.raises(TopologyError):
            VisibilityMap({g: frozenset(topo.collectors) for g in topo.governors}).collectors_for("g99")


class TestEngineWithVisibility:
    def test_engine_runs_under_partial_visibility(self, topo):
        vmap = VisibilityMap.random_partial(topo, keep_fraction=0.3, seed=7)
        engine = ProtocolEngine(
            topo, ProtocolParams(f=0.5), seed=8, visibility=vmap
        )
        workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=9)
        for _ in range(5):
            engine.run_round(workload.take(8))
        engine.finalize()
        check_agreement(engine.ledgers())
        assert engine.store.height == 5

    def test_invisible_collector_not_in_book(self, topo):
        vis = {g: frozenset(topo.collectors) for g in topo.governors}
        # g0 keeps coverage but drops one collector it can spare.
        drop = None
        for candidate in topo.collectors:
            trial = frozenset(set(topo.collectors) - {candidate})
            try:
                VisibilityMap({**vis, "g0": trial}).validate(topo)
            except TopologyError:
                continue
            drop = candidate
            vis["g0"] = trial
            break
        if drop is None:
            pytest.skip("no sparable collector in this topology")
        engine = ProtocolEngine(
            topo, ProtocolParams(f=0.5), seed=8, visibility=VisibilityMap(vis)
        )
        assert drop not in set(engine.governors["g0"].book.collectors())
        assert drop in set(engine.governors["g1"].book.collectors())

    def test_partial_governor_still_learns(self, topo):
        """A governor that sees the misreporter still demotes it."""
        vmap = VisibilityMap({g: frozenset(topo.collectors) for g in topo.governors})
        engine = ProtocolEngine(
            topo, ProtocolParams(f=0.7),
            behaviors={"c0": MisreportBehavior(0.8)},
            seed=10,
            visibility=vmap,
        )
        workload = BernoulliWorkload(topo.providers, p_valid=0.7, seed=11)
        for _ in range(20):
            engine.run_round(workload.take(8))
        engine.finalize()
        gov = engine.governors["g0"]
        provider = topo.providers_of("c0")[0]
        assert gov.book.weight("c0", provider) < 1.0
