"""Integration: protocol message flow over the packet-level substrate.

The in-process engine accounts messages analytically; these tests push
real payloads through :class:`SyncNetwork` + :class:`AtomicBroadcast`
to check the distributed-systems assumptions the engine relies on:

* every governor delivers the *same ordered sequence* of collector
  uploads (so screening inputs agree);
* the screening window Delta is sufficient under the synchrony bound;
* a crashed collector silently disappears without stalling others'
  deliveries (its uploads simply never arrive).
"""

from __future__ import annotations

import pytest

from repro.agents.behaviors import HonestBehavior
from repro.agents.collector import Collector
from repro.agents.provider import Provider
from repro.crypto.identity import IdentityManager, Role
from repro.ledger.transaction import LabeledTransaction
from repro.ledger.validation import GroundTruthOracle
from repro.network.broadcast import AtomicBroadcast
from repro.network.simnet import Simulator, SyncNetwork
from repro.network.topology import Topology


@pytest.fixture
def wired_world():
    """Topology + IM + network + broadcast groups, fully wired."""
    topo = Topology.regular(l=4, n=4, m=3, r=2)
    im = IdentityManager(seed=13)
    oracle = GroundTruthOracle()
    sim = Simulator()
    net = SyncNetwork(sim, min_delay=0.001, max_delay=0.05, seed=17)
    ab = AtomicBroadcast(net)

    providers = {}
    for pid in topo.providers:
        key = im.enroll(pid, Role.PROVIDER)
        providers[pid] = Provider(
            provider_id=pid, key=key, linked_collectors=topo.collectors_of(pid)
        )
    collectors = {}
    for cid in topo.collectors:
        key = im.enroll(cid, Role.COLLECTOR)
        collectors[cid] = Collector(
            collector_id=cid,
            key=key,
            linked_providers=topo.providers_of(cid),
            behavior=HonestBehavior(),
            seed=5,
        )
        for pid in topo.providers_of(cid):
            im.register_link(cid, pid)
    for gid in topo.governors:
        im.enroll(gid, Role.GOVERNOR)

    # One broadcast group per collector (its provider feed), one group
    # for uploads to governors.
    for cid in topo.collectors:
        ab.create_group(f"feed:{cid}", [cid])
    ab.create_group("uploads", list(topo.governors))

    return topo, im, oracle, sim, net, ab, providers, collectors


class TestUploadFlow:
    def test_governors_deliver_identical_upload_sequences(self, wired_world):
        topo, im, oracle, sim, net, ab, providers, collectors = wired_world
        governor_logs = {g: [] for g in topo.governors}

        # Collector side: on delivery of a provider tx, label and upload.
        def collector_handler(cid):
            def handle(sender, tx):
                for labeled in collectors[cid].process_all(tx, oracle):
                    ab.broadcast("uploads", cid, labeled)
            return handle

        for cid in topo.collectors:
            net.register(cid, lambda msg, cid=cid: ab.on_message(cid, msg))
            ab.register_handler(f"feed:{cid}", cid, collector_handler(cid))

        for gid in topo.governors:
            net.register(gid, lambda msg, gid=gid: ab.on_message(gid, msg))
            ab.register_handler(
                "uploads",
                gid,
                lambda sender, labeled, gid=gid: governor_logs[gid].append(
                    (sender, labeled.tx.tx_id, int(labeled.label))
                ),
            )

        # Providers broadcast transactions into their collectors' feeds.
        for i, (pid, provider) in enumerate(sorted(providers.items())):
            tx = provider.create_transaction({"n": i}, timestamp=float(i))
            oracle.assign(tx, True)
            for cid in provider.linked_collectors:
                ab.broadcast(f"feed:{cid}", pid, tx)
        sim.run()

        logs = list(governor_logs.values())
        assert logs[0] == logs[1] == logs[2]
        # Each of 4 providers' txs reaches 2 collectors -> 8 uploads.
        assert len(logs[0]) == 8

    def test_uploads_verify_at_governor(self, wired_world):
        topo, im, oracle, sim, net, ab, providers, collectors = wired_world
        received: list[LabeledTransaction] = []

        for cid in topo.collectors:
            net.register(cid, lambda msg, cid=cid: ab.on_message(cid, msg))
            ab.register_handler(
                f"feed:{cid}",
                cid,
                lambda sender, tx, cid=cid: ab.broadcast(
                    "uploads", cid, collectors[cid].process_all(tx, oracle)[0]
                ),
            )
        gid0 = topo.governors[0]
        for gid in topo.governors:
            net.register(gid, lambda msg, gid=gid: ab.on_message(gid, msg))
        ab.register_handler("uploads", gid0, lambda s, up: received.append(up))

        pid = topo.providers[0]
        tx = providers[pid].create_transaction("x", 0.0)
        oracle.assign(tx, True)
        for cid in providers[pid].linked_collectors:
            ab.broadcast(f"feed:{cid}", pid, tx)
        sim.run()

        assert len(received) == 2
        for upload in received:
            assert im.verify(upload)
            assert im.verify(upload.tx)

    def test_delta_window_covers_report_spread(self, wired_world):
        """All copies of one tx arrive within the network synchrony bound,
        so a screening timer of Delta >= max_delay spread suffices."""
        topo, im, oracle, sim, net, ab, providers, collectors = wired_world
        arrivals: dict[str, list[float]] = {}

        for cid in topo.collectors:
            net.register(cid, lambda msg, cid=cid: ab.on_message(cid, msg))
            ab.register_handler(
                f"feed:{cid}",
                cid,
                lambda sender, tx, cid=cid: ab.broadcast(
                    "uploads", cid, collectors[cid].process_all(tx, oracle)[0]
                ),
            )
        gid0 = topo.governors[0]
        for gid in topo.governors:
            net.register(gid, lambda msg, gid=gid: ab.on_message(gid, msg))
        ab.register_handler(
            "uploads",
            gid0,
            lambda s, up: arrivals.setdefault(up.tx.tx_id, []).append(sim.now),
        )

        for i, pid in enumerate(topo.providers):
            tx = providers[pid].create_transaction({"i": i}, timestamp=0.0)
            oracle.assign(tx, True)
            for cid in providers[pid].linked_collectors:
                ab.broadcast(f"feed:{cid}", pid, tx)
        sim.run()

        for times in arrivals.values():
            spread = max(times) - min(times)
            # Two network hops of at most max_delay each bound the spread.
            assert spread <= 2 * net.max_delay + 1e-9

    def test_crashed_collector_does_not_stall_others(self, wired_world):
        topo, im, oracle, sim, net, ab, providers, collectors = wired_world
        received = []

        for cid in topo.collectors:
            net.register(cid, lambda msg, cid=cid: ab.on_message(cid, msg))
            ab.register_handler(
                f"feed:{cid}",
                cid,
                lambda sender, tx, cid=cid: ab.broadcast(
                    "uploads", cid, collectors[cid].process_all(tx, oracle)[0]
                ),
            )
        gid0 = topo.governors[0]
        for gid in topo.governors:
            net.register(gid, lambda msg, gid=gid: ab.on_message(gid, msg))
        ab.register_handler("uploads", gid0, lambda s, up: received.append(up))

        crashed = topo.collectors[0]
        net.partition(crashed)

        pid = topo.providers[0]
        tx = providers[pid].create_transaction("x", 0.0)
        oracle.assign(tx, True)
        for cid in providers[pid].linked_collectors:
            ab.broadcast(f"feed:{cid}", pid, tx)
        sim.run()

        # The crashed collector (if linked) contributes nothing; the
        # other linked collector's upload still arrives.
        linked = set(providers[pid].linked_collectors)
        expected = len(linked - {crashed})
        assert len(received) == expected
