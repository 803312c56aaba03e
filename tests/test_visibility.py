"""Tests for partial governor visibility: a topology's view, on both engines."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.agents.behaviors import MisreportBehavior
from repro.core.netengine import NetworkedProtocolEngine
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.exceptions import TopologyError
from repro.ledger.chain import check_agreement
from repro.network.topology import Topology
from repro.workloads.generator import BernoulliWorkload

@pytest.fixture
def topo():
    return Topology.regular(l=8, n=4, m=3, r=2)


def _full(topo) -> dict:
    return {g: frozenset(topo.collectors) for g in topo.governors}


def _sparing_g0(topo) -> tuple[Topology, str]:
    """``topo`` with g0 blind to the first collector it can spare."""
    for candidate in topo.collectors:
        view = {**_full(topo), "g0": frozenset(topo.collectors) - {candidate}}
        try:
            return replace(topo, view=view), candidate
        except TopologyError:
            continue
    pytest.skip("no sparable collector in this topology")


class TestVisibilityMap:
    """The view a topology carries (its governor -> collectors map)."""

    def test_full_map(self, topo):
        viewed = replace(topo, view=_full(topo))
        assert viewed.mean_visibility == 1.0
        assert "c3" in viewed.view["g0"]
        assert topo.view is None and topo.mean_visibility == 1.0

    def test_random_partial_respects_coverage(self, topo):
        viewed = topo.random_partial(keep_fraction=0.0, seed=4)
        viewed.validate()  # coverage built in even at keep = 0
        assert 0 < viewed.mean_visibility <= 1.0

    def test_random_partial_deterministic(self, topo):
        a = topo.random_partial(0.3, seed=5)
        b = topo.random_partial(0.3, seed=5)
        assert a.view == b.view

    def test_keep_one_is_full(self, topo):
        assert topo.random_partial(keep_fraction=1.0, seed=6).mean_visibility == 1.0

    def test_invalid_fraction(self, topo):
        with pytest.raises(TopologyError):
            topo.random_partial(1.5)

    def test_missing_governor_rejected(self, topo):
        with pytest.raises(TopologyError, match="the view names governors"):
            replace(topo, view={"g0": frozenset(topo.collectors)})

    def test_unknown_governor_in_view_rejected(self, topo):
        with pytest.raises(TopologyError, match="the view names governors"):
            replace(topo, view={**_full(topo), "g99": frozenset(topo.collectors)})

    def test_unknown_collector_rejected(self, topo):
        view = {g: frozenset(topo.collectors) | {"ghost"} for g in topo.governors}
        with pytest.raises(TopologyError, match="unknown collectors"):
            replace(topo, view=view)

    def test_coverage_violation_rejected(self, topo):
        # g0 sees only collectors not linked with p0.
        others = frozenset(topo.collectors) - set(topo.collectors_of("p0"))
        with pytest.raises(TopologyError, match="coverage violated"):
            replace(topo, view={**_full(topo), "g0": others})


class TestEngineWithVisibility:
    """Each case on the in-process engine; ``...Networked`` reruns it there."""

    engine_cls = ProtocolEngine

    def test_engine_runs_under_partial_visibility(self, topo):
        engine = self.engine_cls(topo.random_partial(0.3, seed=7), ProtocolParams(f=0.5), seed=8)
        workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=9)
        for _ in range(5):
            engine.run_round(workload.take(8))
        engine.finalize()
        check_agreement(engine.ledgers())
        assert engine.store.height == 5

    def test_invisible_collector_not_in_book(self, topo):
        viewed, drop = _sparing_g0(topo)
        engine = self.engine_cls(viewed, ProtocolParams(f=0.5), seed=8)
        assert drop not in set(engine.governors["g0"].book.collectors())
        assert drop in set(engine.governors["g1"].book.collectors())

    def test_partial_governor_still_learns(self, topo):
        """A governor that sees the misreporter still demotes it."""
        engine = self.engine_cls(
            replace(topo, view=_full(topo)), ProtocolParams(f=0.7),
            behaviors={"c0": MisreportBehavior(0.8)},
            seed=10,
        )
        workload = BernoulliWorkload(topo.providers, p_valid=0.7, seed=11)
        for _ in range(20):
            engine.run_round(workload.take(8))
        engine.finalize()
        gov = engine.governors["g0"]
        provider = topo.providers_of("c0")[0]
        assert gov.book.weight("c0", provider) < 1.0


class TestEngineWithVisibilityNetworked(TestEngineWithVisibility):
    engine_cls = NetworkedProtocolEngine

    def test_unseen_upload_is_never_counted_audited_or_ingested(self, topo):
        viewed, drop = _sparing_g0(topo)
        engine = NetworkedProtocolEngine(viewed, ProtocolParams(f=0.5), seed=12)
        workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=13)
        for _ in range(4):
            engine.run_round(workload.take(8))
        blind, full = engine.governors["g0"], engine.governors["g1"]
        slots = engine.slots.values()
        uploads = [u for slot in slots for u in slot.uploads]
        from_drop = [u for u in uploads if u.collector == drop]
        assert from_drop, "the spared collector uploaded nothing"
        # g1 sees every collector: it audited and counted every upload once,
        # and g0 every one but the spared collector's.
        checks = {gid: a.report.checks["upload-label"] for gid, a in engine.auditors.items()}
        assert checks["g1"] == full.metrics.uploads_received == len(uploads)
        assert checks["g0"] == blind.metrics.uploads_received == len(uploads) - len(from_drop)
        seen = [slot for slot in slots if any(u.collector != drop for u in slot.uploads)]
        assert engine.auditors["g0"].tx_evidence == len(seen)
        assert engine.auditors["g1"].tx_evidence == len(engine.slots)

    def test_recovered_collector_is_readmitted_only_where_seen(self, topo):
        viewed, drop = _sparing_g0(topo)
        engine = NetworkedProtocolEngine(viewed, ProtocolParams(f=0.5), seed=12)
        engine.lifecycle.crash(drop)
        assert not any(g.book.is_registered(drop) for g in engine.governors.values())
        engine.lifecycle.recover(drop)
        seen = {gid for gid, g in engine.governors.items() if g.book.is_registered(drop)}
        assert seen == {"g1", "g2"}
        blind = engine.governors["g0"]
        assert all(drop not in linked for linked in blind._linked.values())
        workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=13)
        engine.run_round(workload.take(8))
        assert drop not in set(blind.book.collectors())
