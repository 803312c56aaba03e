"""Tests for the named scenario registry."""

from __future__ import annotations

import inspect
from dataclasses import fields, replace

import pytest

from repro.agents.behaviors import AlwaysInvertBehavior
from repro.exceptions import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.ledger.properties import check_all_properties
from repro.workloads.scenarios import (
    HOST_READS,
    SCENARIOS,
    Deployment,
    Scenario,
    build,
    scenario_names,
)

#: Stream presets are built over a small universe, as the parity table does.
STREAM_UNIVERSE = 240
FIELDS = {field.name for field in fields(Scenario)}
#: Presets whose adversaries get argues admitted, some in the last round.
ARGUED = ("paper-default", "hostile-majority", "carsharing-rush", "insurance-fraud")


def _build(name, seed=1):
    """A registered preset; ``NAME@HOST`` runs its shape on another host."""
    name, _, host = name.partition("@")
    scenario = SCENARIOS[name]
    if host:
        scenario = replace(scenario, host=host)
    if scenario.host == "stream":
        scenario = replace(scenario, l=STREAM_UNIVERSE)
    return build(scenario, seed=seed)


class TestRegistry:
    def test_names_sorted_and_nonempty(self):
        names = scenario_names()
        assert names == sorted(SCENARIOS) and len(names) == 12
        assert {s.host for s in SCENARIOS.values()} == set(HOST_READS)
        for name in ("paper-default", "smoke", "sharded-smoke", "durable-smoke",
                     "stream-smoke"):
            assert name in names

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            build("no-such-scenario")

    @pytest.mark.parametrize(
        "name, option",
        [
            ("smoke", {"workers": 2}),
            ("smoke", {"storage_dir": "x"}),
            ("sharded-quad", {"storage_dir": "x"}),
            ("durable-smoke", {"workers": 2}),
            ("stream-smoke", {"workers": 2}),
            ("smoke", {"faults": lambda topo, seed: None}),
            ("stream-smoke", {"resilience": True}),
            ("smoke", {"custodians": [("custodian-0", "127.0.0.1", 1)]}),
            ("sharded-smoke", {"visibility": lambda topo, seed: topo}),
            ("smoke", {"epoch_rounds": 2}),
            ("durable-smoke", {"epoch_rounds": 2}),
        ],
    )
    def test_option_the_host_does_not_read_rejected(self, name, option):
        # A preset field is set on the preset, a build option passed to build().
        changes = {k: v for k, v in option.items() if k in FIELDS}
        options = {k: v for k, v in option.items() if k not in FIELDS}
        with pytest.raises(ConfigurationError, match="does not read " + [*option][0]):
            build(replace(SCENARIOS[name], **changes), **options)

    def test_every_read_names_a_field_or_a_build_option(self):
        options = set(inspect.signature(build).parameters) - {"preset", "seed", "obs"}
        for host, names in HOST_READS.items():
            assert names <= FIELDS | options, (host, names - FIELDS - options)

    def test_every_optional_engine_field_is_read_by_a_host(self):
        optional = {
            f.name for f in fields(Scenario) if f.default is None or f.default is False
        }
        unread = optional - set().union(*HOST_READS.values())
        assert not unread, unread

    def test_one_fault_plan_per_shard(self):
        one = [FaultPlan(seed=1)]
        short = replace(SCENARIOS["sharded-smoke"], faults=lambda _topo, _seed: one)
        with pytest.raises(ConfigurationError, match="1 fault plans for 2 shards"):
            build(short, workers=2)

    def test_every_scenario_topology_valid(self):
        for scenario in SCENARIOS.values():
            if scenario.host == "stream":
                continue  # a virtual universe: checked by building it, below
            topo = scenario.topology()
            for flat in getattr(topo, "shards", [topo]):
                flat.validate()
            assert len(topo.providers) == scenario.l
            assert len(topo.collectors) == scenario.n

    def test_every_scenario_buildable(self):
        """Every preset builds on its host and commits one round."""
        for name in scenario_names():
            deployment, workload, scenario = _build(name)
            try:
                assert isinstance(deployment, Deployment)
                assert len(workload.take(4)) == 4
                deployment.run_round(workload.take(scenario.batch))
                deployment.finalize()
                if scenario.host == "shard":
                    heights = [s.height for s in deployment.chain_stats()]
                else:
                    heights = [deployment.store.height]
                assert all(h >= 1 for h in heights), name
            finally:
                deployment.close()


class TestExecution:
    def test_smoke_scenario_runs_clean(self):
        engine, workload, scenario = build("smoke", seed=2)
        for _ in range(scenario.rounds):
            engine.run_round(workload.take(scenario.batch))
        engine.finalize()
        report = check_all_properties(engine.ledgers(), engine.transcript)
        assert report.all_hold

    def test_hostile_scenario_short_slice(self):
        engine, workload, _scenario = build("hostile-majority", seed=3)
        for _ in range(5):
            engine.run_round(workload.take(16))
        engine.finalize()
        # Some damage is expected, but the chain stays consistent.
        from repro.ledger.chain import check_agreement

        check_agreement(engine.ledgers())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", [preset + host for host in ("", "@net") for preset in ARGUED])
    def test_bare_finalize_closes_the_books(self, name, seed):
        """The preset's rounds, then ``finalize()`` and no flush round: an
        argue admitted in the last round still reaches a block (Validity),
        in-process and on the networked engine."""
        engine, workload, scenario = _build(name, seed=seed)
        for _ in range(scenario.rounds):
            engine.run_round(workload.take(scenario.batch))
        engine.finalize()
        report = check_all_properties(engine.ledgers(), engine.transcript)
        assert report.all_hold, report.violations

    @pytest.mark.parametrize("name", ["paper-default", "paper-default@net", "stream-smoke"])
    def test_second_finalize_changes_nothing(self, name):
        deployment, workload, scenario = _build(name)
        if scenario.host == "stream":
            # The stream app enrols honest collectors only; inverters make
            # argues, and at seed 1 one is admitted in the last round.
            for cid in ("c0", "c1", "c2"):
                deployment.collectors[cid].behavior = AlwaysInvertBehavior()
        for _ in range(scenario.rounds):
            deployment.run_round(workload.take(scenario.batch))
        assert deployment._reevaluated_queue  # so a closing block lands

        def closed():
            deployment.finalize()
            store = deployment.store
            report = deployment.audit_report
            return store.height, store.tip_hash(), report.violations[:], dict(report.checks)

        first = closed()
        assert first[0] == scenario.rounds + 1
        assert closed() == first
        report = check_all_properties(deployment.ledgers(), deployment.transcript)
        assert report.validity, report.violations

    def test_forgery_scenario_catches_everything(self):
        engine, workload, _scenario = build("forgery-storm", seed=4)
        for _ in range(5):
            engine.run_round(workload.take(16))
        caught = [g.metrics.forgeries_caught for g in engine.governors.values()]
        assert all(c == engine.metrics.forged_uploads for c in caught)
        assert engine.metrics.forged_uploads > 0
