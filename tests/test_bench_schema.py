"""The benchmark harness's machine-readable BENCH_*.json twins."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

from repro.analysis.reporting import format_table
from repro.obs import MetricsRegistry


@pytest.fixture(scope="module")
def helpers():
    path = pathlib.Path(__file__).parent.parent / "benchmarks" / "_helpers.py"
    spec = importlib.util.spec_from_file_location("_bench_helpers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestParseTables:
    def test_single_table_types(self, helpers):
        table = format_table(
            ["f", "agreement", "rate", "note"],
            [(0.5, True, 1234.5, "ok run"), (0.9, False, 2, "-")],
        )
        (parsed,) = helpers.parse_tables(table)
        assert parsed["caption"] is None
        assert parsed["columns"] == ["f", "agreement", "rate", "note"]
        assert parsed["rows"][0] == {
            "f": 0.5,
            "agreement": True,
            "rate": 1234.5,
            "note": "ok run",
        }
        assert parsed["rows"][1]["agreement"] is False
        assert parsed["rows"][1]["rate"] == 2

    def test_captioned_multi_table(self, helpers):
        one = format_table(["a"], [(1,)])
        two = format_table(["b"], [(2,)])
        text = f"-- first --\n{one}\n\n-- second --\n{two}"
        parsed = helpers.parse_tables(text)
        assert [t["caption"] for t in parsed] == ["-- first --", "-- second --"]
        assert parsed[0]["rows"] == [{"a": 1}]
        assert parsed[1]["rows"] == [{"b": 2}]

    def test_cells_with_single_spaces_survive(self, helpers):
        table = format_table(
            ["scenario", "latency (s)"],
            [("governor crash-recovery", 1.1), ("sequencer failover", 0.4)],
        )
        (parsed,) = helpers.parse_tables(table)
        assert parsed["rows"][0]["scenario"] == "governor crash-recovery"
        assert parsed["rows"][1]["latency (s)"] == 0.4

    def test_trailer_lines_end_the_table(self, helpers):
        table = format_table(["universe", "ok"], [(10_000, True), (100_000, False)])
        text = (
            f"{table}\nopen-loop arrivals; identities retire after 6 idle rounds.\n"
            "all tips bit-identical: yes\n"
        )
        (parsed,) = helpers.parse_tables(text)
        assert parsed["rows"] == [
            {"universe": 10_000, "ok": True},
            {"universe": 100_000, "ok": False},
        ]

    def test_scientific_and_grouped_numbers(self, helpers):
        table = format_table(["x"], [(123456.789,), (0.0000123,)])
        (parsed,) = helpers.parse_tables(table)
        assert parsed["rows"][0]["x"] == pytest.approx(123456.789, rel=1e-3)
        assert parsed["rows"][1]["x"] == pytest.approx(1.23e-5, rel=1e-2)


class TestEmit:
    def test_writes_txt_and_schema_versioned_json(self, helpers, tmp_path, monkeypatch):
        monkeypatch.setattr(helpers, "RESULTS_DIR", tmp_path)
        table = format_table(["f", "ok"], [(0.5, True)])
        reg = MetricsRegistry()
        reg.counter("hits_total", "hits", read=lambda: 3)
        helpers.emit(
            "T1_demo",
            "demo experiment",
            table,
            metrics={"all_ok": True},
            registry=reg,
        )
        assert (tmp_path / "T1_demo.txt").read_text().startswith("demo experiment\n")
        doc = json.loads((tmp_path / "BENCH_T1_demo.json").read_text())
        assert doc["schema"] == helpers.BENCH_SCHEMA == "repro.bench.v1"
        assert doc["name"] == "T1_demo"
        assert doc["tables"][0]["rows"] == [{"f": 0.5, "ok": True}]
        assert doc["metrics"] == {"all_ok": True}
        assert doc["observability"]["metrics"]["hits_total"]["samples"][0]["value"] == 3

    def test_optional_fields_omitted(self, helpers, tmp_path, monkeypatch):
        monkeypatch.setattr(helpers, "RESULTS_DIR", tmp_path)
        helpers.emit("T2_demo", "demo", format_table(["x"], [(1,)]))
        doc = json.loads((tmp_path / "BENCH_T2_demo.json").read_text())
        assert "metrics" not in doc and "observability" not in doc

    def test_quick_scale_leaves_the_tracked_twins_alone(self, helpers, tmp_path, monkeypatch):
        monkeypatch.setattr(helpers, "RESULTS_DIR", tmp_path)
        helpers.emit("T6_demo", "demo", format_table(["x"], [(1,)]), quick=True)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["quick"]
        assert sorted(p.name for p in (tmp_path / "quick").iterdir()) == [
            "BENCH_T6_demo.json", "T6_demo.txt",
        ]

    def test_emit_is_deterministic_outside_meta(self, helpers, tmp_path, monkeypatch):
        monkeypatch.setattr(helpers, "RESULTS_DIR", tmp_path)
        table = format_table(["x"], [(1,)])
        helpers.emit("T3_demo", "demo", table)
        first = json.loads((tmp_path / "BENCH_T3_demo.json").read_text())
        helpers.emit("T3_demo", "demo", table)
        second = json.loads((tmp_path / "BENCH_T3_demo.json").read_text())
        # meta carries wall-clock duration, which legitimately differs
        # between reruns; everything else must be identical.
        first.pop("meta")
        second.pop("meta")
        assert first == second

    def test_emit_stamps_runtime_meta(self, helpers, tmp_path, monkeypatch):
        monkeypatch.setattr(helpers, "RESULTS_DIR", tmp_path)
        helpers.emit("T4_demo", "demo", format_table(["x"], [(1,)]), duration_s=1.25)
        doc = json.loads((tmp_path / "BENCH_T4_demo.json").read_text())
        assert doc["meta"]["duration_s"] == 1.25
        assert doc["meta"]["python"].count(".") == 2
        assert set(doc["meta"]) == {"duration_s", "python"}
        # Default duration: elapsed since the helpers module was loaded.
        helpers.emit("T5_demo", "demo", format_table(["x"], [(1,)]))
        doc = json.loads((tmp_path / "BENCH_T5_demo.json").read_text())
        assert doc["meta"]["duration_s"] >= 0.0


class TestShippedResults:
    def test_every_result_has_a_json_twin(self, helpers):
        results = helpers.RESULTS_DIR
        if not results.exists():
            pytest.skip("no generated results checked out")
        txts = sorted(p.stem for p in results.glob("*.txt"))
        twins = sorted(
            p.stem.removeprefix("BENCH_") for p in results.glob("BENCH_*.json")
        )
        assert txts == twins

    def test_shipped_json_is_schema_versioned(self, helpers):
        results = helpers.RESULTS_DIR
        docs = sorted(results.glob("BENCH_*.json"))
        if not docs:
            pytest.skip("no generated results checked out")
        for path in docs:
            doc = json.loads(path.read_text())
            assert doc["schema"] == helpers.BENCH_SCHEMA, path.name
            assert doc["tables"], path.name

    def test_e13_byzantine_twin_is_well_formed(self, helpers):
        """The E13 sweep's structured metrics back its headline claims:
        Theorem-1 regret held and the equivocator was quarantined fast
        at every Byzantine fraction."""
        path = helpers.RESULTS_DIR / "BENCH_E13_byzantine.json"
        if not path.exists():
            pytest.skip("E13 results not generated")
        doc = json.loads(path.read_text())
        assert doc["schema"] == helpers.BENCH_SCHEMA
        sweep = doc["metrics"]["byzantine_sweep"]
        assert [row["byzantine_collectors"] for row in sweep] == [1, 2, 3]
        for row in sweep:
            assert row["agreement"], row
            assert row["safety_violations"] == 0, row
            assert row["max_honest_regret"] <= row["rwm_bound"], row
            assert row["equivocator_quarantined"], row
            assert row["quarantine_latency_rounds"] <= 2, row
            assert row["ok"], row
        assert doc["metrics"]["all_ok"]
        # The audit layer's telemetry rode along in the snapshot.
        names = set(doc["observability"]["metrics"])
        assert "audit_violations_total" in names
        assert "byz_tampered_total" in names

    def test_e14_shards_twin_is_well_formed(self, helpers):
        """The E14 sweep's structured metrics back its headline claims:
        4 shards at least double the aggregate throughput of 1 shard at
        equal node totals, with cross-shard atomicity intact under the
        fault plan and bit-identical seeded repeats."""
        path = helpers.RESULTS_DIR / "BENCH_E14_shards.json"
        if not path.exists():
            pytest.skip("E14 results not generated")
        doc = json.loads(path.read_text())
        assert doc["schema"] == helpers.BENCH_SCHEMA
        sweep = doc["metrics"]["shard_sweep"]
        assert [row["shards"] for row in sweep] == [1, 2, 4]
        for row in sweep:
            assert row["audit_clean"], row
            assert row["atomicity_violations"] == 0, row
            assert row["receipts_pending"] == 0, row
        assert doc["metrics"]["speedup_s4_vs_s1"] >= 2.0
        assert doc["metrics"]["deterministic"]
        assert doc["metrics"]["all_ok"]
        # The shard coordinator's telemetry rode along in the snapshot.
        names = set(doc["observability"]["metrics"])
        assert "shard_rounds_total" in names
        assert "shard_cross_tx_in_total" in names
        assert "shard_receipt_relays_total" in names

    def test_e16_parallel_twin_is_well_formed(self, helpers):
        """The E16 sweep's structured metrics back its headline claim:
        the multi-process backend commits bit-identical ledgers to the
        serial one at every shard count, atomicity intact."""
        path = helpers.RESULTS_DIR / "BENCH_E16_shards_parallel.json"
        if not path.exists():
            pytest.skip("E16 results not generated")
        doc = json.loads(path.read_text())
        assert doc["schema"] == helpers.BENCH_SCHEMA
        sweep = doc["metrics"]["parity_sweep"]
        serial = {r["shards"]: r for r in sweep if r["backend"] == "serial"}
        assert sorted(serial) == [1, 2, 4]
        assert any(r["backend"] == "parallel" for r in sweep)
        for row in sweep:
            assert row["audit_clean"], row
            assert row["atomicity_violations"] == 0, row
            if row["backend"] == "parallel":
                assert row["tips_match_serial"], row
                # Same seed, same protocol: identical sim-time results.
                twin = serial[row["shards"]]
                assert row["committed"] == twin["committed"], row
                assert row["sim_seconds"] == twin["sim_seconds"], row
        assert doc["metrics"]["tips_identical"]
        assert doc["metrics"]["all_ok"]
        # The parallel harness telemetry rode along in the snapshot.
        names = set(doc["observability"]["metrics"])
        assert "par_ipc_msgs_total" in names
        assert "par_barrier_wait_seconds" in names
        assert "par_worker_round_seconds" in names

    def test_e15_recovery_twin_is_well_formed(self, helpers):
        """The E15 sweep's structured metrics back its headline claims:
        checkpoints bound restart replay to a fixed window regardless
        of chain length, and the seeded torn-tail crash was detected,
        truncated to a verified prefix, and peer-filled back to the
        original tip."""
        path = helpers.RESULTS_DIR / "BENCH_E15_recovery.json"
        if not path.exists():
            pytest.skip("E15 results not generated")
        doc = json.loads(path.read_text())
        assert doc["schema"] == helpers.BENCH_SCHEMA
        sweep = doc["metrics"]["recovery_sweep"]
        assert sweep, "empty recovery sweep"
        for row in sweep:
            assert row["ok"], row
            assert row["prefix_ok"], row
            if row["checkpoint_interval"]:
                # Compaction anchors recovery at a checkpoint base; the
                # replay window never spans the whole chain.
                assert row["replayed"] < row["blocks"], row
            else:
                assert row["base_serial"] == 0, row
                assert row["replayed"] == row["blocks"], row
        torn = doc["metrics"]["torn_tail"]
        assert torn["fault"] == "torn_record"
        assert torn["detected"] and not torn["clean"], torn
        assert "torn-tail" in torn["corruptions"], torn
        assert torn["converged"], torn
        assert doc["metrics"]["checkpoint_replay_bounded"]
        assert doc["metrics"]["all_ok"]
        # The storage telemetry rode along in the snapshot.
        names = set(doc["observability"]["metrics"])
        assert "storage_corruptions_detected_total" in names
        assert "storage_recovered_blocks_total" in names


@pytest.fixture(scope="module")
def fresh_twins():
    path = pathlib.Path(__file__).parent.parent / "tools" / "fresh_twins.py"
    spec = importlib.util.spec_from_file_location("fresh_twins", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFreshness:
    """``tools/fresh_twins.py`` names what a rerun no longer reproduces."""

    def twin(self, helpers, tmp_path, monkeypatch, rows, metrics=None, timing=()):
        monkeypatch.setattr(helpers, "RESULTS_DIR", tmp_path)
        table = format_table(["case", "ms/tx", "count"], rows)
        helpers.emit("T7_demo", "demo", table, metrics=metrics, timing=timing)
        return json.loads((tmp_path / "BENCH_T7_demo.json").read_text())

    def test_a_rerun_that_differs_only_in_meta_is_fresh(
        self, helpers, fresh_twins, tmp_path, monkeypatch
    ):
        first = self.twin(helpers, tmp_path, monkeypatch, [("a", 0.5, 3)])
        first["meta"]["duration_s"] += 1.0
        second = self.twin(helpers, tmp_path, monkeypatch, [("a", 0.5, 3)])
        assert fresh_twins.differences(first, second) == []

    def test_timing_fields_are_not_compared_and_the_rest_are_named(
        self, helpers, fresh_twins, tmp_path, monkeypatch
    ):
        timing = ("ms/tx", "chaos.bytes_*")
        tracked = self.twin(
            helpers, tmp_path, monkeypatch, [("a", 0.5, 3), ("b", 0.7, 4)],
            metrics={"real": {"bytes_out": 10}, "chaos": {"bytes_out": 12}},
            timing=timing,
        )
        fresh = self.twin(
            helpers, tmp_path, monkeypatch, [("a", 0.9, 3), ("b", 0.1, 5)],
            metrics={"real": {"bytes_out": 11}, "chaos": {"bytes_out": 13}},
            timing=timing,
        )
        assert fresh["timing"] == list(timing)
        assert fresh_twins.differences(tracked, fresh) == [
            "metrics.real.bytes_out",
            "tables.0.rows.b.count",
        ]

    def test_rows_sharing_a_first_cell_are_named_by_index(
        self, helpers, fresh_twins, tmp_path, monkeypatch
    ):
        tracked = self.twin(helpers, tmp_path, monkeypatch, [("a", 0.5, 3), ("a", 0.5, 4)])
        fresh = self.twin(helpers, tmp_path, monkeypatch, [("a", 0.5, 3), ("a", 0.5, 5)])
        tracked["metrics"] = {"gone": 1}
        assert fresh_twins.differences(tracked, fresh) == [
            "metrics",
            "tables.0.rows.1.count",
        ]
