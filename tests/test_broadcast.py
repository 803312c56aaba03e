"""Unit tests for atomic (total-order) broadcast."""

from __future__ import annotations

import pytest

from repro.exceptions import SimulationError
from repro.network import broadcast
from repro.network.broadcast import AtomicBroadcast
from repro.network.simnet import Simulator, SyncNetwork


def build(members=("x", "y", "z"), max_delay=0.5, seed=3):
    sim = Simulator()
    net = SyncNetwork(sim, min_delay=0.0, max_delay=max_delay, seed=seed)
    ab = AtomicBroadcast(net)
    ab.create_group("G", list(members))
    delivered = {m: [] for m in members}
    for m in members:
        net.register(m, lambda msg, m=m: ab.on_message(m, msg))
        ab.register_handler("G", m, lambda sender, body, m=m: delivered[m].append((sender, body)))
    return sim, net, ab, delivered


class TestGroups:
    def test_duplicate_group_rejected(self):
        sim = Simulator()
        ab = AtomicBroadcast(SyncNetwork(sim))
        ab.create_group("G", ["a"])
        with pytest.raises(SimulationError):
            ab.create_group("G", ["a"])

    def test_duplicate_members_rejected(self):
        sim = Simulator()
        ab = AtomicBroadcast(SyncNetwork(sim))
        with pytest.raises(SimulationError):
            ab.create_group("G", ["a", "a"])

    def test_unknown_group_broadcast_rejected(self):
        sim = Simulator()
        ab = AtomicBroadcast(SyncNetwork(sim))
        with pytest.raises(SimulationError):
            ab.broadcast("nope", "a", "x")

    def test_members_of(self):
        sim = Simulator()
        ab = AtomicBroadcast(SyncNetwork(sim))
        ab.create_group("G", ["a", "b"])
        assert list(ab._members["G"]) == ["a", "b"]

    def test_handler_for_non_member_rejected(self):
        sim = Simulator()
        ab = AtomicBroadcast(SyncNetwork(sim))
        ab.create_group("G", ["a"])
        with pytest.raises(SimulationError):
            ab.register_handler("G", "z", lambda s, b: None)


class TestTotalOrder:
    def test_all_members_deliver_same_sequence(self):
        sim, _net, ab, delivered = build()
        # Interleave broadcasts from two senders with random delays.
        for i in range(20):
            sender = "x" if i % 2 == 0 else "y"
            ab.broadcast("G", sender, f"m{i}")
        sim.run()
        assert delivered["x"] == delivered["y"] == delivered["z"]
        assert len(delivered["x"]) == 20

    def test_delivery_respects_sequence_numbers(self):
        sim, _net, ab, delivered = build()
        seqnos = [ab.broadcast("G", "x", f"m{i}") for i in range(5)]
        assert seqnos == [0, 1, 2, 3, 4]
        sim.run()
        assert [body for _s, body in delivered["z"]] == [f"m{i}" for i in range(5)]

    def test_out_of_order_arrival_buffered(self):
        # Large delay spread: later-seqno messages can arrive first, yet
        # delivery order must follow seqno.
        sim, _net, ab, delivered = build(max_delay=2.0, seed=99)
        for i in range(30):
            ab.broadcast("G", "x", i)
        sim.run()
        assert [body for _s, body in delivered["y"]] == list(range(30))

    def test_non_member_sender_allowed(self):
        sim, _net, ab, delivered = build()
        # Providers broadcast into collector groups without membership.
        ab.network.register("outsider", lambda m: None)
        ab.broadcast("G", "outsider", "hello")
        sim.run()
        assert delivered["x"] == [("outsider", "hello")]

    def test_delivered_count(self):
        sim, _net, ab, delivered = build()
        for i in range(7):
            ab.broadcast("G", "x", i)
        sim.run()
        assert [payload for _sender, payload in delivered["y"]] == list(range(7))
        assert "nobody" not in delivered

    def test_independent_groups_have_independent_orders(self):
        sim = Simulator()
        net = SyncNetwork(sim, min_delay=0.0, max_delay=0.1, seed=5)
        ab = AtomicBroadcast(net)
        ab.create_group("G1", ["a"])
        ab.create_group("G2", ["a"])
        got = {"G1": [], "G2": []}
        net.register("a", lambda msg: ab.on_message("a", msg))
        ab.register_handler("G1", "a", lambda s, b: got["G1"].append(b))
        ab.register_handler("G2", "a", lambda s, b: got["G2"].append(b))
        ab.broadcast("G1", "s", 1)
        ab.broadcast("G2", "s", 2)
        ab.broadcast("G1", "s", 3)
        sim.run()
        assert got["G1"] == [1, 3]
        assert got["G2"] == [2]

    def test_non_broadcast_message_passes_through(self):
        sim, net, ab, _delivered = build()
        other = []
        def route(msg):
            if not ab.on_message("x", msg):
                other.append(msg.payload)
        net.register("x", route)
        net.send("y", "x", "raw-payload")
        sim.run()
        assert other == ["raw-payload"]


class TestMisroutedPayloads:
    def test_foreign_group_payload_dropped_not_passed_through(self):
        """A SequencedPayload for a group the member is not in must be
        consumed (and counted) by the broadcast layer, never handed to
        the application's non-broadcast route."""
        from repro.network.broadcast import SequencedPayload

        sim, net, ab, delivered = build()
        other = []

        def route(msg):
            if not ab.on_message("x", msg):
                other.append(msg.payload)

        net.register("x", route)
        foreign = SequencedPayload(group="nope", seqno=0, sender="y", body="evil")
        net.send("y", "x", foreign)
        sim.run()
        assert other == []
        assert delivered["x"] == []
        assert ab.misrouted_dropped == 1

    def test_nonmember_of_known_group_also_dropped(self):
        from repro.network.broadcast import SequencedPayload

        sim, net, ab, _delivered = build()
        ab.create_group("H", ["y"])
        other = []

        def route(msg):
            if not ab.on_message("x", msg):
                other.append(msg.payload)

        net.register("x", route)
        net.send("y", "x", SequencedPayload(group="H", seqno=0, sender="y", body=1))
        sim.run()
        assert other == []
        assert ab.misrouted_dropped == 1


class TestGapRepair:
    def build_repair(self, members=("x", "y", "z")):
        sim = Simulator()
        net = SyncNetwork(sim, min_delay=0.0, max_delay=0.05, seed=3)
        ab = AtomicBroadcast(net)
        ab.create_group("G", list(members))
        delivered = {m: [] for m in members}
        for m in members:
            net.register(m, lambda msg, m=m: ab.on_message(m, msg))
            ab.register_handler(
                "G", m, lambda sender, body, m=m: delivered[m].append(body)
            )
        ab.enable_gap_repair("seq0", "seq1")
        return sim, net, ab, delivered

    def test_lost_payload_repaired_via_nack(self):
        sim, net, ab, delivered = self.build_repair()
        # Drop exactly the first broadcast payload sent to z.
        dropped = {"n": 0}

        def drop_first_to_z(sender, receiver, payload):
            from repro.faults.plan import FaultAction
            from repro.network.broadcast import SequencedPayload

            if (
                receiver == "z"
                and isinstance(payload, SequencedPayload)
                and dropped["n"] == 0
            ):
                dropped["n"] += 1
                return FaultAction(drop=True)
            return None

        net.fault_filter = drop_first_to_z
        ab.broadcast("G", "x", "m0")
        ab.broadcast("G", "x", "m1")  # reveals the gap at z
        sim.run()
        assert delivered["z"] == ["m0", "m1"]
        assert ab.repairs_requested >= 1
        assert ab.repairs_served >= 1
        assert ab.pending_gap_total() == 0

    def test_repair_timeout_required_positive(self):
        """The first NACK waits ``4 * max_delay``: a zero bound has no timer."""
        net = SyncNetwork(Simulator(), min_delay=0.0, max_delay=0.0)
        with pytest.raises(SimulationError):
            AtomicBroadcast(net).enable_gap_repair("seq0", "seq1")

    def test_sequencer_failover_to_backup(self, monkeypatch):
        monkeypatch.setattr(broadcast, "REPAIR_FAILOVER_AFTER", 1)
        sim, net, ab, delivered = self.build_repair()
        net.partition("seq0")  # primary sequencer endpoint is dead
        dropped = {"n": 0}

        def drop_first_to_z(sender, receiver, payload):
            from repro.faults.plan import FaultAction
            from repro.network.broadcast import SequencedPayload

            if (
                receiver == "z"
                and isinstance(payload, SequencedPayload)
                and dropped["n"] == 0
            ):
                dropped["n"] += 1
                return FaultAction(drop=True)
            return None

        net.fault_filter = drop_first_to_z
        ab.broadcast("G", "x", "m0")
        ab.broadcast("G", "x", "m1")
        sim.run()
        # First NACK died with the primary; the retry failed over.
        assert delivered["z"] == ["m0", "m1"]
        assert ab.repairs_requested >= 2
        assert ab.pending_gap_total() == 0

    def test_gap_closed_by_duplicate_needs_no_repair(self):
        sim, net, ab, delivered = self.build_repair()
        ab.broadcast("G", "x", "m0")
        sim.run()
        assert ab.repairs_requested == 0

    def test_force_repair_scan_finds_invisible_gap(self):
        """A member whose *last* payload was lost has nothing buffered —
        timer detection is blind, the scan is not."""
        sim, net, ab, delivered = self.build_repair()

        def drop_abcast_to_z(sender, receiver, payload):
            from repro.faults.plan import FaultAction
            from repro.network.broadcast import SequencedPayload

            if receiver == "z" and isinstance(payload, SequencedPayload):
                return FaultAction(drop=True)
            return None

        net.fault_filter = drop_abcast_to_z
        ab.broadcast("G", "x", "m0")
        sim.run()
        assert delivered["z"] == []
        net.fault_filter = None  # link heals
        assert ab.force_repair_scan() == 1
        sim.run()
        assert delivered["z"] == ["m0"]

    def test_retention_eviction_counts_expired(self, monkeypatch):
        monkeypatch.setattr(AtomicBroadcast, "RETENTION", 2)
        sim = Simulator()
        net = SyncNetwork(sim, min_delay=0.0, max_delay=0.05, seed=3)
        ab = AtomicBroadcast(net)
        ab.create_group("G", ["z"])
        got = []
        net.register("z", lambda msg: ab.on_message("z", msg))
        ab.register_handler("G", "z", lambda s, b: got.append(b))
        ab.enable_gap_repair("seq0", "seq1")
        net.partition("z")
        for i in range(5):
            ab.broadcast("G", "x", f"m{i}")
        sim.run()
        net.heal("z")
        assert ab.force_repair_scan() == 1
        sim.run()
        # Only the last two payloads survive retention; requests for the
        # evicted prefix are counted (the member re-NACKs until its
        # attempt budget runs dry), delivery stays blocked until a
        # skip_to (out-of-band sync) clears the gap.
        assert ab.repairs_expired >= 3
        assert got == []
        ab.skip_to("G", "z", 3)
        sim.run()
        assert got == ["m3", "m4"]

    def test_full_log_holds_exactly_the_newest_retention_seqnos(self, monkeypatch):
        retention = 64
        monkeypatch.setattr(AtomicBroadcast, "RETENTION", retention)
        sim = Simulator()
        net = SyncNetwork(sim, min_delay=0.0, max_delay=0.05, seed=3)
        ab = AtomicBroadcast(net)
        ab.create_group("G", ["z"])
        net.register("z", lambda msg: ab.on_message("z", msg))
        ab.enable_gap_repair("seq0", "seq1")
        net.partition("z")
        total = retention + 50
        for i in range(total):
            assert ab.broadcast("G", "x", f"m{i}") == i
        sim.run()
        assert list(ab._sent["G"]) == list(range(total - retention, total))
        # A request reaching below the horizon is served where it can be
        # and counted where it cannot.
        net.heal("z")
        assert ab.force_repair_scan() == 1
        sim.run()
        assert ab.repairs_expired >= total - retention
        assert ab.repairs_served >= 1
