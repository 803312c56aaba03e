"""Tests for the named scenario registry."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.ledger.properties import check_all_properties
from repro.workloads.scenarios import HOST_READS, SCENARIOS, build, scenario_names

#: Stream presets are built over a small universe, as the golden matrix does.
STREAM_UNIVERSE = 240


def _build(name, seed=1, **options):
    if SCENARIOS[name].host == "stream":
        options.setdefault("universe", STREAM_UNIVERSE)
    return build(name, seed=seed, **options)


class TestRegistry:
    def test_names_sorted_and_nonempty(self):
        names = scenario_names()
        assert names == sorted(SCENARIOS) and len(names) == 15
        assert {s.host for s in SCENARIOS.values()} == set(HOST_READS)
        for name in ("paper-default", "smoke", "sharded-smoke", "durable-smoke",
                     "stream-smoke", "flash-sale"):
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
            ("durable-smoke", {"universe": 100}),
            ("stream-smoke", {"workers": 2}),
        ],
    )
    def test_option_the_host_does_not_read_rejected(self, name, option):
        with pytest.raises(ConfigurationError, match="does not read"):
            build(name, **option)

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

    def test_deterministic_per_seed(self):
        def run(seed):
            engine, workload, scenario = build("smoke", seed=seed)
            hashes = []
            for _ in range(scenario.rounds):
                hashes.append(engine.run_round(workload.take(scenario.batch)).block.hash())
            return hashes

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_hostile_scenario_short_slice(self):
        engine, workload, _scenario = build("hostile-majority", seed=3)
        for _ in range(5):
            engine.run_round(workload.take(16))
        engine.finalize()
        # Some damage is expected, but the chain stays consistent.
        from repro.ledger.chain import check_agreement

        check_agreement(engine.ledgers())

    def test_forgery_scenario_catches_everything(self):
        engine, workload, _scenario = build("forgery-storm", seed=4)
        for _ in range(5):
            engine.run_round(workload.take(16))
        caught = [g.metrics.forgeries_caught for g in engine.governors.values()]
        assert all(c == engine.metrics.forged_uploads for c in caught)
        assert engine.metrics.forged_uploads > 0
