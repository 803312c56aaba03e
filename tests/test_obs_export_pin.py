"""The Prometheus export of five seeded runs, pinned by digest.

What a live registry exports is a function of the seed for every family
that measures the simulated protocol.  This file pins that function: the
sha256 of ``to_prometheus(obs)``, restricted to the seed-determined
families, for one run of each execution shape.  It was written against
the code that *pushed* every count into the registry and must stay
byte-identical under any change to how a family gets its value — it is
the test that catches a count that is summed where it used to be
overwritten, or a zero series that used to be absent.

Left out are the families that read the host, not the seed: wall-clock
durations, process RSS and the real-socket transport.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.agents.behaviors import ConcealBehavior, ForgeBehavior, MisreportBehavior
from repro.core.netengine import NetworkedProtocolEngine
from repro.core.params import ProtocolParams
from repro.faults.plan import FaultPlan, LinkFaultSpec
from repro.network.topology import Topology
from repro.obs import MetricsRegistry, to_prometheus
from repro.workloads.generator import BernoulliWorkload
from repro.workloads.scenarios import build

#: Families (by name prefix) whose values depend on the host.
HOST_DEPENDENT = (
    "storage_recovery_replay_seconds",
    "stream_peak_rss_bytes",
    "par_barrier_wait_seconds",
    "par_worker_round_seconds",
    "par_worker_boot_seconds",
    "tpt_",
)


def _family(line: str) -> str:
    if line.startswith("#"):  # "# HELP name ..." / "# TYPE name ..."
        return line.split(" ", 3)[2]
    return line.partition(" ")[0].partition("{")[0]


def export_digest(obs: MetricsRegistry) -> str:
    kept = [
        line
        for line in to_prometheus(obs).splitlines()
        if not _family(line).startswith(HOST_DEPENDENT)
    ]
    assert kept, "a live registry exported nothing"
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def _drive(preset: str, obs: MetricsRegistry, rounds: int | None = None, **options):
    deployment, workload, scenario = build(preset, seed=1, obs=obs, **options)
    try:
        for _ in range(scenario.rounds if rounds is None else rounds):
            deployment.run_round(workload.take(scenario.batch))
        deployment.finalize()
    finally:
        deployment.close()


def _paper_default(obs, _tmp_path):
    _drive("paper-default", obs)


def _networked_faulted(obs, _tmp_path):
    """``tests/test_obs_integration.py``'s ``_run_networked(faults=True)``."""
    topo = Topology.regular(l=8, n=4, m=3, r=2)
    engine = NetworkedProtocolEngine(
        topo,
        ProtocolParams(f=0.6, delta=0.2),
        behaviors={
            "c0": MisreportBehavior(0.4),
            "c1": ForgeBehavior(0.4),
            "c2": ConcealBehavior(0.3),
        },
        seed=11,
        max_delay=0.05,
        resilience=True,
        obs=obs,
    )
    engine.install_faults(FaultPlan(seed=12).with_default_link(LinkFaultSpec(loss=0.08)))
    workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=13)
    for _ in range(5):
        engine.run_round(workload.take(8))
    engine.finalize()
    engine.drain_recovery()


def _sharded_quad_serial(obs, _tmp_path):
    _drive("sharded-quad", obs)


def _stream_smoke(obs, _tmp_path):
    _drive("stream-smoke", obs)


def _durable_reopened(obs, tmp_path):
    """Two engines in a row on one directory and one registry."""
    _drive("durable-smoke", obs, rounds=3, storage_dir=tmp_path)
    _drive("durable-smoke", obs, rounds=4, storage_dir=tmp_path)


PINNED = {
    _paper_default: "251faee4dd8ee7c6bc7ca14eec116075a4ab6603783370d6354b49cddb916fb8",
    _networked_faulted: "63dd73bff2f516a4f89e6822911d5eb3d25f4bfdf94fe09b1a5121bbd1601cc3",
    _sharded_quad_serial: "a1d9d25b626baabe5edc02740045343ede25299ce529b08f8464fcf6bbcd57ee",
    _stream_smoke: "daa0467d194df35286675832d5f987ff7846beeb6270f23957392201d8656179",
    _durable_reopened: "b8e891547961619be43189c849a5393f19f7e0826bd4d44bbd71b9e7a744deaf",
}



@pytest.mark.parametrize("run", PINNED, ids=lambda run: run.__name__.lstrip("_"))
def test_export_digest_is_pinned(run, tmp_path):
    obs = MetricsRegistry()
    run(obs, tmp_path)
    assert export_digest(obs) == PINNED[run]
