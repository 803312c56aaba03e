"""What a deployment keeps per offered transaction stays inside a budget.

The figures come from ``tools/heap_per_tx.py`` (``tracemalloc`` snapshots
at window boundaries) on the ``paper-default`` shape, 32 tx per round.
Windows are short here to keep tier-1 quick, so they read above the
40-round windows PERFORMANCE.md quotes; each budget is a quarter over what
this configuration reads on Python 3.11 (1,543 and 3,805–3,843 B since
the per-replica tx index, the transcript's id sets and the providers' sent
sets went; 1,713 and 4,430 B before), and the parent commit of the PR that
introduced them read 3.2 KB and 9.3 KB.  The nightly soak checks that the
figure stays flat as history grows.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import pathlib

import pytest

from repro.crypto.identity import IdentityManager
from repro.obs import MetricsRegistry
from repro.workloads.scenarios import SCENARIOS, build

ROOT = pathlib.Path(__file__).parent.parent
PAPER_DEFAULT = SCENARIOS["paper-default"]


@pytest.fixture(scope="module")
def heap():
    path = ROOT / "tools" / "heap_per_tx.py"
    spec = importlib.util.spec_from_file_location("heap_per_tx", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_inproc_host_budget(heap):
    # The last window (rounds 61-80) starts after the verify cache has
    # filled (round 58): before that the cache itself is still growing.
    engine, windows = heap.measure(PAPER_DEFAULT, rounds=20, windows=3)
    assert len(engine.im._verify_cache) == IdentityManager.VERIFY_CACHE_SIZE
    assert windows[-1].bytes_per_tx <= 1_930


def test_net_host_budget(heap):
    # In-memory store; rounds 11-20, so the verify cache is still filling.
    scenario = dataclasses.replace(PAPER_DEFAULT, host="net")
    _engine, (window,) = heap.measure(scenario, rounds=10)
    assert window.bytes_per_tx <= 4_800


def test_verify_cache_is_bounded_and_costs_no_hmac(monkeypatch):
    """The LRU never outgrows ``VERIFY_CACHE_SIZE``, and at that size the
    run recomputes exactly the HMACs it does with room for every verdict."""

    def misses(size: int) -> float:
        monkeypatch.setattr(IdentityManager, "VERIFY_CACHE_SIZE", size)
        obs = MetricsRegistry()
        engine, workload, scenario = build(PAPER_DEFAULT, seed=0, obs=obs)
        for _ in range(80):
            engine.run_round(workload.take(scenario.batch))
            assert len(engine.im._verify_cache) <= size
        return obs.get("crypto_sig_cache_misses").value

    size = IdentityManager.VERIFY_CACHE_SIZE
    bounded = misses(size)
    assert bounded > size  # verdicts were evicted, so the bound was exercised
    assert bounded == misses(1 << 16)
