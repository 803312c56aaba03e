"""The option surface, pinned: every parameter of the public entry points
and every field of the configuration dataclasses.

A change that adds, drops or renames an option edits the table below,
where its review sees it.  An option that no preset, benchmark,
experiment or tool sets belongs in a test's ``monkeypatch`` of a module
or class constant, not here.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.core.netengine import NetworkedProtocolEngine
from repro.core.protocol import ProtocolEngine
from repro.network.broadcast import AtomicBroadcast
from repro.network.cluster import ClusterScenario
from repro.network.realnet import TransportConfig
from repro.network.reliable import ReliableChannel
from repro.obs.registry import MetricsRegistry
from repro.sharding.coordinator import ShardCoordinator
from repro.storage.durable import StorageConfig
from repro.workloads.scenarios import Scenario, build

#: Callable -> its parameters, in signature order.
PARAMETERS = {
    ProtocolEngine: (
        "topology", "params", "behaviors", "seed", "stake", "obs",
    ),
    NetworkedProtocolEngine: (
        "topology", "params", "behaviors", "seed", "min_delay", "max_delay",
        "stake", "resilience", "obs", "sim", "storage", "network_factory",
    ),
    ShardCoordinator: (
        "topology", "params", "behaviors", "seed", "epoch_rounds", "resilience",
        "obs", "workers", "storage",
    ),
    build: ("preset", "seed", "storage_dir", "workers", "custodians", "obs"),
    AtomicBroadcast: ("network", "obs"),
    ReliableChannel: ("network", "obs"),
    MetricsRegistry: ("enabled",),
}

#: Configuration dataclass -> its fields, in declaration order.
FIELDS = {
    Scenario: (
        "name", "description", "l", "n", "m", "r", "params", "rounds", "batch",
        "behavior_factory", "workload_factory", "host", "shards", "p_cross",
        "epoch_rounds", "checkpoint_interval", "segment_bytes", "faults",
        "visibility", "resilience",
    ),
    ClusterScenario: (
        "l", "n", "m", "r", "rounds", "batch", "seed", "p_valid", "min_delay",
        "max_delay", "resilience", "plan", "behaviors", "workload_factory",
    ),
    StorageConfig: ("directory", "checkpoint_interval", "segment_bytes", "fsync"),
    TransportConfig: (
        "connect_timeout", "connect_attempts", "backoff_base", "backoff_max",
        "send_deadline", "max_retries", "stall_timeout",
    ),
}


@pytest.mark.parametrize("target", PARAMETERS, ids=lambda t: t.__name__)
def test_parameters_match_the_table(target):
    assert tuple(inspect.signature(target).parameters) == PARAMETERS[target]


@pytest.mark.parametrize("config", FIELDS, ids=lambda c: c.__name__)
def test_fields_match_the_table(config):
    assert tuple(f.name for f in dataclasses.fields(config)) == FIELDS[config]
