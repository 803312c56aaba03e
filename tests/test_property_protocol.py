"""Hypothesis property tests over whole protocol runs.

Randomised small configurations (topology shape, f, adversary mix,
workload validity rate) must always preserve the run-level invariants:

* the five Section-3.1 properties;
* Lemma 2 in expectation (unchecked count bounded);
* conservation of rewards (payouts sum to pool per round, on every
  host, and the run record and its ``engine_*`` export add them up);
* determinism (same config + seed => identical chains).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.agents.behaviors import (
    AlwaysInvertBehavior,
    ConcealBehavior,
    HonestBehavior,
    MisreportBehavior,
)
from repro.core.params import ProtocolParams
from repro.core.netengine import NetworkedProtocolEngine
from repro.core.protocol import ProtocolEngine
from repro.ledger.properties import check_all_properties
from repro.network.topology import Topology
from repro.obs.registry import MetricsRegistry
from repro.streaming.app import StreamingApp
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.generator import BernoulliWorkload

_engine_configs = st.fixed_dictionaries(
    {
        "n": st.sampled_from([4, 6]),
        "mult": st.integers(min_value=1, max_value=3),
        "r": st.integers(min_value=2, max_value=3),
        "m": st.integers(min_value=2, max_value=4),
        "f": st.floats(min_value=0.1, max_value=0.9),
        "p_valid": st.floats(min_value=0.2, max_value=1.0),
        "adversaries": st.integers(min_value=0, max_value=2),
        "seed": st.integers(min_value=0, max_value=10_000),
    }
)

_slow = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class _OfferedOnly(StreamingApp):
    """A stream host that draws no arrivals: a round takes what it is offered."""

    def offered_load(self) -> dict:
        return {"arrivals": PoissonArrivals(0.0)}


def _build(config, host="inproc", obs=None):
    n = config["n"]
    topo = Topology.regular(l=n * config["mult"], n=n, m=config["m"], r=config["r"])
    kinds = [MisreportBehavior(0.5), ConcealBehavior(0.5), AlwaysInvertBehavior()]
    behaviors = {
        topo.collectors[i]: kinds[i % len(kinds)] for i in range(config["adversaries"])
    }
    params = ProtocolParams(f=config["f"])
    if host == "stream":  # a lazy population of the same shape, no adversaries
        engine = _OfferedOnly(
            universe=len(topo.providers), n=n, m=config["m"], r=config["r"],
            params=params, seed=config["seed"], obs=obs,
        )
    else:
        engine = {"inproc": ProtocolEngine, "net": NetworkedProtocolEngine}[host](
            topo, params, behaviors=behaviors, seed=config["seed"], obs=obs
        )
    workload = BernoulliWorkload(
        topo.providers, p_valid=config["p_valid"], seed=config["seed"] + 1
    )
    return engine, workload


@given(_engine_configs)
@_slow
def test_property_five_properties_always_hold(config):
    """Any small configuration keeps the Section-3.1 properties."""
    engine, workload = _build(config)
    for _ in range(4):
        engine.run_round(workload.take(8))
    engine.finalize()
    report = check_all_properties(engine.ledgers(), engine.transcript)
    assert report.all_hold, report.violations


def _check_rewards(config, host):
    obs = MetricsRegistry()
    engine, workload = _build(config, host, obs)
    pool = engine.params.reward_pool_per_block
    paid: dict[str, float] = {}
    for _ in range(3):
        result = engine.run_round(workload.take(8))
        assert sum(result.rewards.values()) == pytest.approx(pool)
        for cid, amount in result.rewards.items():
            paid[cid] = paid.get(cid, 0.0) + amount
    record = engine.metrics
    assert record.rewards_paid == pytest.approx(paid)
    readings = {
        "engine_rounds_total": record.rounds,
        "engine_tx_offered_total": record.transactions_offered,
        "engine_argues_total": record.argues_total,
    }
    assert {name: obs._metrics[name].value for name in readings} == readings
    assert (record.rounds, record.transactions_offered) == (3, 24)


@given(_engine_configs)
@_slow
def test_property_rewards_conserved(config):
    """Every round's payouts sum to the configured pool; the run record
    sums the payouts, and the ``engine_*`` counters read the record."""
    _check_rewards(config, "inproc")


@given(_engine_configs)
@_slow
def test_property_rewards_conserved_net(config):
    """The same on the networked engine, which closes a round the same way."""
    _check_rewards(config, "net")


@given(_engine_configs)
@_slow
def test_property_rewards_conserved_stream(config):
    """The same on the stream host, whose books are lazy membership views."""
    _check_rewards(config, "stream")


@given(_engine_configs)
@_slow
def test_property_deterministic_chains(config):
    """Identical configuration and seed produce identical block hashes."""
    hashes = []
    for _attempt in range(2):
        engine, workload = _build(config)
        run = [engine.run_round(workload.take(8)).block.hash() for _ in range(3)]
        hashes.append(run)
    assert hashes[0] == hashes[1]


@given(_engine_configs)
@_slow
def test_property_unchecked_bounded_by_f(config):
    """Lemma 2 in aggregate: per-governor unchecked rate <= f + noise."""
    engine, workload = _build(config)
    for _ in range(6):
        engine.run_round(workload.take(8))
    for gov in engine.governors.values():
        screened = gov.metrics.transactions_screened
        if screened >= 20:
            rate = gov.metrics.unchecked / screened
            # Small-sample slack: binomial noise at 48 transactions.
            assert rate <= config["f"] + 0.25
