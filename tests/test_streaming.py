"""Streaming subsystem: sparse reputation, virtual universe, the stream deployment.

The load-bearing claims, each locked by a test class here:

* ``SparseWeightMap`` — the only weight-map representation — behaves
  as a plain ``dict`` over its members: registration-order iteration,
  left-to-right float reductions, ``KeyError`` for non-members, one
  version bump per mutation (a hypothesis model test);
* ``CollectorMembers`` answers membership queries for the circulant
  topology in O(1) memory, agreeing exactly with ``Topology.regular``;
* ``StreamingWorkload``'s payload hook never perturbs provider
  selection or validity;
* ``StreamingApp`` instantiates on arrival, retires on idleness, spills
  past ``b_limit`` into a backlog, and keeps signing continuity across
  retire/re-arrive cycles;
* durable checkpoints carry the sparse book payload, so a restarted
  engine resumes with equal books, and a tampered payload is rejected
  whole;
* the flash-sale chaos soak holds tip parity through socket chaos
  (``chaos``+``realnet`` marked, wall-clock budgeted).
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.behaviors import MisreportBehavior
from repro.core.params import ProtocolParams
from repro.core.reputation import (
    ReputationBook,
    ReputationVector,
    SparseWeightMap,
)
from repro.exceptions import (
    ConfigurationError,
    ProtocolViolationError,
    TopologyError,
)
from repro.ledger.block import GENESIS_PREV_HASH, Block
from repro.ledger.properties import check_all_properties
from repro.ledger.transaction import CheckStatus, Label, TxRecord
from repro.network.topology import Topology, provider_id
from repro.obs import MetricsRegistry
from repro.streaming.app import StreamingApp
from repro.streaming.universe import (
    CollectorMembers,
    VirtualUniverse,
    parse_provider_index,
)
from repro.streaming.workload import StreamingWorkload
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.generator import BernoulliWorkload, TxSpec
from repro.workloads.scenarios import SCENARIOS, build, scenario_names

STREAM_PRESETS = sorted(n for n, s in SCENARIOS.items() if s.host == "stream")

# ---------------------------------------------------------------------------
# SparseWeightMap


class TestSparseWeightMap:
    def _map(self, members=("p0", "p1", "p2"), default=1.0):
        return SparseWeightMap(list(members), default)

    def test_default_readback_and_len(self):
        m = self._map()
        assert len(m) == 3
        assert m["p1"] == 1.0
        assert m.touched == 0

    def test_override_and_reset(self):
        m = self._map()
        m["p1"] = 0.25
        assert m["p1"] == 0.25
        assert m.touched == 1
        del m["p1"]  # resets to the default row, stays a member
        assert m["p1"] == 1.0
        assert m.touched == 0
        assert "p1" in m

    def test_unknown_member_raises(self):
        m = self._map()
        with pytest.raises(KeyError):
            m["p99"]

    def test_iteration_is_registration_order(self):
        members = ["p4", "p0", "p2"]
        m = SparseWeightMap(members, 1.0)
        m["p2"] = 0.5
        assert list(m) == members
        assert list(m.values()) == [1.0, 1.0, 0.5]

    def test_nonpositive_default_rejected(self):
        with pytest.raises(ConfigurationError):
            SparseWeightMap(["p0"], 0.0)

    def test_mutation_bumps_owner_version(self):
        book = ReputationBook(governor="g0", initial=1.0)
        book.register_collector("c0", ["p0", "p1"])
        vec = book.vector("c0")
        before = vec._version
        vec.provider_weights["p0"] = 0.5
        assert vec._version > before

    def test_export_restore_roundtrip_sparse(self):
        book = ReputationBook(governor="g0", initial=1.0)
        book.register_collector("c0", ["p0", "p1", "p2"])
        book.vector("c0").provider_weights["p2"] = 0.125
        state = book.export_state()
        assert state["collectors"]["c0"]["overrides"] == {"p2": 0.125}
        other = ReputationBook(governor="g0", initial=1.0)
        other.register_collector("c0", ["p0", "p1", "p2"])
        other.restore_state(state)
        assert dict(other.vector("c0").provider_weights) == {
            "p0": 1.0, "p1": 1.0, "p2": 0.125,
        }

    def test_export_restore_roundtrip_dense(self):
        book = ReputationBook(governor="g0", initial=1.0)
        book.register_collector("c0", ["p0", "p1"])
        book.vector("c0").provider_weights["p1"] = 0.75
        state = book.export_state()
        other = ReputationBook(governor="g0", initial=1.0)
        other.register_collector("c0", ["p0", "p1"])
        other.restore_state(state)
        assert dict(other.vector("c0").provider_weights) == {
            "p0": 1.0, "p1": 0.75,
        }


    @pytest.mark.parametrize(
        "row",
        [
            {"overrides": {"p9": 0.5}},  # a provider c0 does not oversee
            {"overrides": {"p1": float("nan")}},
            {"overrides": {"p1": 0.0}},
            {"overrides": {"p1": -0.25}},
            {"overrides": {"p1": float("inf")}},
            {"default": float("nan")},
            {"default": 0.0},
            {"overrides": ["p1"]},  # wrong shape
        ],
    )
    def test_restore_rejects_untrusted_rows(self, row):
        book = ReputationBook(governor="g0", initial=1.0)
        book.register_collector("c0", ["p0", "p1", "p2"])
        with pytest.raises(ProtocolViolationError):
            book.restore_state({"collectors": {"c0": row}})
        # Nothing of the rejected row is served or summed.
        assert dict(book.vector("c0").provider_weights) == {
            "p0": 1.0, "p1": 1.0, "p2": 1.0,
        }
        with pytest.raises(ProtocolViolationError):
            book.weight("c0", "p9")


_MEMBERS = [f"p{k}" for k in (4, 0, 2, 7, 1)]
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["set", "reset", "get"]),
        st.sampled_from(_MEMBERS + ["p9", "x"]),
        st.floats(min_value=1e-300, max_value=4.0, allow_nan=False),
    ),
    max_size=40,
)


class TestSparseWeightMapModel:
    """``SparseWeightMap`` against a plain ``dict`` of its members."""

    @settings(max_examples=150, deadline=None)
    @given(default=st.floats(min_value=1e-3, max_value=4.0), ops=_OPS)
    def test_behaves_as_a_dict_over_its_members(self, default, ops):
        vec = ReputationVector.fresh(_MEMBERS, default)
        sparse = vec.provider_weights
        model = dict.fromkeys(_MEMBERS, default)
        for op, key, value in ops:
            before = vec._version
            bumps = 0
            if key not in model:
                with pytest.raises(KeyError):
                    if op == "set":
                        sparse[key] = value
                    elif op == "reset":
                        del sparse[key]
                    else:
                        sparse[key]
            elif op == "set":
                sparse[key] = model[key] = value
                bumps = 1
            elif op == "reset":
                if key in sparse.overrides:
                    del sparse[key]
                    model[key] = default
                    bumps = 1
            else:
                assert sparse[key] == model[key]
            assert vec._version == before + bumps
            assert list(sparse) == list(model)
            assert list(sparse.items()) == list(model.items())
            assert sum(sparse.values()) == sum(model.values())
            assert len(sparse) == len(model)
            assert (key in sparse) == (key in model)
            assert sparse.touched <= len(model)


# ---------------------------------------------------------------------------
# CollectorMembers / VirtualUniverse vs the materialized circulant


class TestCollectorMembers:
    @pytest.mark.parametrize("l,n,r", [(8, 4, 2), (12, 4, 2), (16, 8, 4),
                                       (24, 6, 3), (64, 8, 4)])
    def test_agrees_with_topology_regular(self, l, n, r):
        topo = Topology.regular(l=l, n=n, m=3, r=r)
        universe = VirtualUniverse(universe=l, n=n, m=3, r=r)
        for i, cid in enumerate(topo.collectors):
            dense = topo.providers_of(cid)
            members = universe.collector_members()[cid]
            assert isinstance(members, CollectorMembers)
            assert len(members) == len(dense)
            assert list(members) == list(dense)
            assert all(pid in members for pid in dense)
            absent = [provider_id(k) for k in range(l)
                      if provider_id(k) not in dense]
            assert not any(pid in members for pid in absent)
            for j in range(len(members)):
                assert members[j] == dense[j]
        for pid in topo.providers:
            k = parse_provider_index(pid)
            assert universe.collectors_of_index(k) == topo.collectors_of(pid)

    def test_contains_rejects_noncanonical_ids(self):
        universe = VirtualUniverse(universe=8, n=4, m=2, r=2)
        members = universe.collector_members()["c0"]
        assert "p007" not in members
        assert "x3" not in members
        assert "p999999" not in members

    def test_parse_provider_index_strict(self):
        assert parse_provider_index("p0") == 0
        assert parse_provider_index("p41") == 41
        assert parse_provider_index("p007") is None
        assert parse_provider_index("c3") is None
        assert parse_provider_index("p") is None

    def test_degree_equation_enforced(self):
        with pytest.raises(TopologyError):
            VirtualUniverse(universe=10, n=4, m=2, r=3)  # 3*10 % 4 != 0

    def test_index_out_of_range(self):
        universe = VirtualUniverse(universe=8, n=4, m=2, r=2)
        members = universe.collector_members()["c0"]
        with pytest.raises(IndexError):
            members[len(members)]

    def test_million_scale_is_lazy(self):
        universe = VirtualUniverse(universe=1_000_000, n=8, m=4, r=4)
        members = universe.collector_members()["c3"]
        assert len(members) == 500_000  # r/n of the universe
        assert members[0] in members
        assert universe.contains_provider("p999999")
        assert not universe.contains_provider("p1000000")


# ---------------------------------------------------------------------------
# StreamingWorkload


class TestStreamingWorkload:
    def test_domain_hook_leaves_selection_and_validity_alone(self):
        universe = VirtualUniverse(universe=64, n=4, m=2, r=2)

        def hungry(spec, index, rng):
            [rng.random() for _ in range(index + 1)]  # a domain that consumes a lot
            return spec

        plain, hooked = (
            StreamingWorkload(
                universe, PoissonArrivals(0.0), seed=9, spec_hook=hook
            )
            for hook in (None, hungry)
        )
        assert plain.take(16) == hooked.take(16)


# ---------------------------------------------------------------------------
# StreamingApp: the provider lifecycle of a streaming session


@dataclass
class _Offered(StreamingApp):
    """Draws no arrivals: a round packs only the specs offered to it."""

    idle: int = 2

    def __post_init__(self) -> None:
        self.retirement_rounds = self.idle
        super().__post_init__()

    def offered_load(self) -> dict:
        return {"arrivals": PoissonArrivals(0.0)}


def _session(universe=64, retirement_rounds=2, seed=0, **kwargs):
    return _Offered(
        universe=universe, n=4, m=2, r=2,
        params=ProtocolParams(f=0.5, b_limit=8),
        seed=seed, idle=retirement_rounds, **kwargs,
    )


def _specs(*pids, valid=True):
    return [
        TxSpec(provider=pid, payload={"seq": i, "from": pid}, is_valid=valid)
        for i, pid in enumerate(pids)
    ]


class TestStreamingSession:
    """One stream deployment run round by round: a streaming session."""

    def test_instantiation_on_first_arrival(self):
        session = _session()
        assert not session.providers
        session.run_round(_specs("p0", "p5"))
        assert len(session.providers) == 2
        assert session.metrics.instantiations == 2
        assert session.metrics.reinstantiations == 0

    def test_retirement_after_idle_window(self):
        session = _session(retirement_rounds=2)
        session.run_round(_specs("p0"))
        session.run_round(_specs("p1"))
        session.run_round(_specs("p1"))  # p0 idle for 2 rounds -> retired
        assert list(session.providers) == ["p1"]
        assert session.metrics.retirements == 1

    def test_retirement_window_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="retirement_rounds"):
            _session(retirement_rounds=0)

    def test_rearrival_restores_signing_continuity(self):
        session = _session(retirement_rounds=1)
        session.run_round(_specs("p0"))
        nonce_before = session.providers["p0"]._nonce
        session.run_round(_specs("p1"))
        session.run_round(_specs("p1"))
        assert "p0" not in session.providers  # retired
        block = session.run_round(_specs("p0"))  # re-arrival
        assert session.metrics.reinstantiations == 1
        assert session.providers["p0"]._nonce > nonce_before
        # The re-arrived provider's transaction committed, i.e. its
        # signature verified against the original enrolment key.
        assert any(
            rec.tx.body.provider == "p0" for rec in block.tx_list
        )

    def test_rearrived_provider_argues_only_about_its_own_new_tx(self):
        session = _session(retirement_rounds=1)
        before = session.run_round(_specs("p0")).tx_list[0].tx
        session.run_round(_specs("p1"))
        session.run_round(_specs("p1"))
        assert "p0" not in session.providers  # retired
        after = session.run_round(_specs("p0")).tx_list[0].tx
        assert before.body.provider == after.body.provider == "p0"
        # Both truly valid, both recorded invalid and unchecked: the new
        # object claims only what it signed itself.
        block = Block(
            serial=99,
            tx_list=tuple(
                TxRecord(tx=tx, label=Label.INVALID, status=CheckStatus.UNCHECKED)
                for tx in (before, after)
            ),
            prev_hash=GENESIS_PREV_HASH, proposer="g0", round_number=99,
        )
        provider = session.providers["p0"]
        assert provider.review_block(block, session.oracle) == [after.tx_id]

    def test_backlog_spills_and_drains(self):
        session = _session(retirement_rounds=8)
        burst = _specs(*[f"p{k}" for k in range(20)])
        session.run_round(burst)  # b_limit=8
        assert len(session._backlog) == 12
        session.run_round()
        session.run_round()
        assert len(session._backlog) == 0
        assert session.metrics.transactions == 20
        assert session.metrics.peak_backlog == 20

    def test_outside_universe_arrival_rejected(self):
        session = _session(universe=8)
        with pytest.raises(ConfigurationError):
            session.run_round(_specs("p8"))

    def test_full_run_audits_clean_and_properties_hold(self):
        session = StreamingApp(
            universe=128, n=4, m=2, r=2,
            params=ProtocolParams(f=0.5, b_limit=16), seed=3,
        )
        session.run(10)
        assert session.metrics.retirements > 0
        session.finalize()
        assert session.audit_report is not None
        assert not session.audit_report.violations
        report = check_all_properties(session.ledgers(), session.transcript)
        assert report.all_hold

    def test_metrics_registry_mirrors_counters(self):
        reg = MetricsRegistry()
        session = _session(obs=reg)
        session.run_round(_specs("p0", "p1"))
        names = set(reg.names())
        assert {"stream_active_providers", "stream_instantiations_total",
                "stream_retirements_total", "stream_backlog",
                "stream_tx_total", "stream_peak_rss_bytes"} <= names


# ---------------------------------------------------------------------------
# Scenario registry


class TestStreamPresets:
    def test_registry_names(self):
        assert {"stream-smoke"} == set(STREAM_PRESETS) <= set(scenario_names())

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            build("nope")

    @pytest.mark.parametrize("name", STREAM_PRESETS)
    def test_preset_smoke(self, name):
        runner, _, _ = build(replace(SCENARIOS[name], l=2_000), seed=2)
        runner.run(4)
        assert runner.report()["audit_clean"]
        assert runner.round_number >= 4


# ---------------------------------------------------------------------------
# Books ride durable checkpoints across restarts


class TestBookCheckpointRestart:
    def _build(self, directory, seed=7):
        from repro.core.netengine import NetworkedProtocolEngine
        from repro.storage.durable import StorageConfig

        topo = Topology.regular(l=12, n=4, m=3, r=2)
        engine = NetworkedProtocolEngine(
            topo,
            ProtocolParams(f=0.5, delta=0.2, b_limit=16),
            seed=seed,
            behaviors={topo.collectors[0]: MisreportBehavior(0.8)},
            storage=StorageConfig(directory=str(directory), checkpoint_interval=4),
        )
        return topo, engine

    def _books(self, topo, engine):
        return {
            gid: {
                cid: dict(gov.book.vector(cid).provider_weights)
                for cid in topo.collectors
            }
            for gid, gov in engine.governors.items()
        }

    def test_restart_restores_equal_books(self, tmp_path):
        topo, engine = self._build(tmp_path)
        workload = BernoulliWorkload(topo.providers, p_valid=0.7, seed=7)
        for _ in range(8):  # height 8 = 2 checkpoint intervals
            engine.run_round(workload.take(10))
        books_before = self._books(topo, engine)
        touched = sum(
            1 for g in books_before.values() for row in g.values()
            for w in row.values() if w != 1.0
        )
        assert touched > 0  # the misreporter was actually penalised
        assert engine.store.last_checkpoint_serial == engine.store.height

        topo2, restarted = self._build(tmp_path)
        assert restarted.store.height == engine.store.height
        # The guaranteed invariant: restored books match the digest the
        # checkpoint pinned at block-append time.  (Argue penalties that
        # land later in the same round drift live books past the pin;
        # this seed has none in the tail window, so full equality with
        # the live books also holds.)
        from repro.storage.checkpoints import reputation_digest

        ckpt = restarted.recovery_report.checkpoint
        restored_digest = reputation_digest(
            {gid: gov.book for gid, gov in restarted.governors.items()}
        )
        assert restored_digest == ckpt.book_digest
        assert self._books(topo2, restarted) == books_before

    def test_tampered_book_state_falls_back_to_initial(self, tmp_path):
        import json

        topo, engine = self._build(tmp_path)
        workload = BernoulliWorkload(topo.providers, p_valid=0.7, seed=7)
        for _ in range(8):
            engine.run_round(workload.take(10))

        # Corrupt one restored weight while keeping the file's CRC valid:
        # the digest check must reject the payload wholesale.
        import zlib

        ckpts = sorted(tmp_path.glob("checkpoint-*.json"))
        doc = json.loads(ckpts[-1].read_text())
        body = doc["checkpoint"]
        gid = next(iter(body["book_state"]))
        cid = next(iter(body["book_state"][gid]["collectors"]))
        body["book_state"][gid]["collectors"][cid]["overrides"] = {"p0": 0.001}
        encoded = json.dumps(body, sort_keys=True, separators=(",", ":"))
        doc["crc"] = zlib.crc32(encoded.encode())
        ckpts[-1].write_text(json.dumps(doc, sort_keys=True))

        topo2, restarted = self._build(tmp_path)
        books = self._books(topo2, restarted)
        assert all(
            w == 1.0
            for g in books.values() for row in g.values() for w in row.values()
        )

    @pytest.mark.parametrize("tamper", ["non-member-override", "wrong-shape"])
    def test_untrusted_book_state_is_rejected_and_counted(self, tmp_path, tamper):
        # A planted override for a provider the collector does not
        # oversee leaves the pinned digest intact (digests iterate
        # members), so the digest check alone would accept it.
        from repro.core.netengine import NetworkedProtocolEngine
        from repro.storage.durable import StorageConfig
        sc = SCENARIOS["durable-smoke"]
        topo = Topology.regular(l=sc.l, n=sc.n, m=sc.m, r=sc.r)

        def open_engine():
            return NetworkedProtocolEngine(
                topo, sc.params, seed=7,
                storage=StorageConfig(
                    directory=str(tmp_path),
                    checkpoint_interval=sc.checkpoint_interval,
                    segment_bytes=sc.segment_bytes,
                ),
                obs=MetricsRegistry(),
            )

        engine = open_engine()
        workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=8)
        for _ in range(sc.rounds):
            engine.run_round(workload.take(sc.batch))
        mismatches = lambda e: e.obs._metrics[  # noqa: E731
            "storage_corruptions_detected_total"
        ].value_of(kind="book-state-mismatch")
        assert mismatches(open_engine()) == 0  # the untampered reopen is clean

        ckpt = sorted(tmp_path.glob("checkpoint-*.json"))[-1]
        doc = json.loads(ckpt.read_text())
        body = doc["checkpoint"]
        gid = topo.governors[0]
        cid = topo.collectors[0]
        foreign = next(
            p for p in topo.providers if p not in topo.providers_of(cid)
        )
        if tamper == "wrong-shape":
            body["book_state"] = [gid]
        else:
            body["book_state"][gid]["collectors"][cid]["overrides"][foreign] = 0.001
        encoded = json.dumps(body, sort_keys=True, separators=(",", ":"))
        doc["crc"] = zlib.crc32(encoded.encode())
        ckpt.write_text(json.dumps(doc, sort_keys=True))

        restarted = open_engine()
        assert restarted.store.height == engine.store.height
        assert mismatches(restarted) == 1
        with pytest.raises(ProtocolViolationError):
            restarted.governors[gid].book.weight(cid, foreign)
        assert all(
            w == sc.params.initial_reputation
            for g in self._books(topo, restarted).values()
            for row in g.values() for w in row.values()
        )

    def test_old_checkpoints_without_book_state_still_load(self, tmp_path):
        # Backwards compatibility: a checkpoint written before the
        # payload existed (book_state absent) must restore chain state
        # and leave the books at their initial values.
        import json

        topo, engine = self._build(tmp_path)
        workload = BernoulliWorkload(topo.providers, p_valid=0.7, seed=7)
        for _ in range(8):
            engine.run_round(workload.take(10))
        for path in sorted(tmp_path.glob("checkpoint-*.json")):
            import zlib

            doc = json.loads(path.read_text())
            body = doc["checkpoint"]
            body.pop("book_state", None)
            encoded = json.dumps(body, sort_keys=True, separators=(",", ":"))
            doc["crc"] = zlib.crc32(encoded.encode())
            path.write_text(json.dumps(doc, sort_keys=True))

        topo2, restarted = self._build(tmp_path)
        assert restarted.store.height == engine.store.height
        assert restarted.recovery_report.checkpoint.book_state is None


# ---------------------------------------------------------------------------
# Flash-sale chaos soak (nightly; tiny default budget here)


@pytest.mark.chaos
@pytest.mark.realnet
def test_flash_sale_chaos_soak_holds_tip_parity():
    from repro.streaming.soak import chaos_soak

    budget = float(os.environ.get("STREAM_SOAK_BUDGET_S", "5"))
    report = chaos_soak(budget_s=budget, seed=3)
    assert report.iterations >= 1
    assert report.tips_matched == report.iterations
    assert report.audits_clean == report.iterations
    assert report.all_ok
