"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.params import ProtocolParams
from repro.crypto.identity import IdentityManager, Role
from repro.network.topology import Topology
from repro.rng import Generator, default_rng


@pytest.fixture
def rng() -> Generator:
    """A fresh, seeded RNG per test."""
    return default_rng(12345)


@pytest.fixture
def im() -> IdentityManager:
    """An Identity Manager with a small enrolled population."""
    manager = IdentityManager(seed=1)
    for k in range(3):
        manager.enroll(f"p{k}", Role.PROVIDER)
    for i in range(4):
        manager.enroll(f"c{i}", Role.COLLECTOR)
    for j in range(4):
        manager.enroll(f"g{j}", Role.GOVERNOR)
    for i in range(4):
        for k in range(3):
            manager.register_link(f"c{i}", f"p{k}")
    return manager


@pytest.fixture
def small_topology() -> Topology:
    """The default small hierarchy: 8 providers, 4 collectors, 4 governors."""
    return Topology.regular(l=8, n=4, m=4, r=2)


@pytest.fixture
def params() -> ProtocolParams:
    """Default protocol parameters."""
    return ProtocolParams(f=0.5, beta=0.9)


@pytest.fixture(autouse=True)
def _no_worker_left_behind(request):
    """A ``parallel`` test reaps every shard worker it started, and a
    ``realnet`` test every custodian.

    The driver forks both itself, so a live one is a live child of this
    process.
    """
    yield
    for marker, prefix in (("parallel", "shard-worker-"), ("realnet", "custodian-")):
        if request.node.get_closest_marker(marker) is None:
            continue
        left = [
            proc.name
            for proc in multiprocessing.active_children()  # the live ones
            if proc.name.startswith(prefix)
        ]
        assert not left, f"{request.node.nodeid} left {prefix}* behind: {left}"
