import json

import pytest

from perfbench import harness
from perfbench.metrics import catalogue
from perfbench.workloads import REPEATS, WORKLOADS, RunRecord, Workload, derive_seed


def _record(tip="aa", committed=90, failed=0, **checks):
    return RunRecord(
        setup_s=0.01,
        drive_window=(0.0, 1.0),
        round_ms=[10.0] * 50,
        offered=100,
        committed=committed,
        failed=failed,
        fingerprint=(tip, 50),
        checks={"replicas_agree": True, "audit_clean": True, **checks},
        cpu_s=0.5,
    )


class Canned(Workload):
    """Replays prepared records: the reference first, then the repeats."""

    name = "canned"
    tx_per_round = 2
    rounds_per_second = 100.0

    def __init__(self, records, reference=None):
        self._records = iter(records)
        self._reference = reference

    def run(self, seed, rounds, obs=None, tracer=None):
        return next(self._records)

    def reference(self, seed, rounds, obs=None, tracer=None):
        return self._reference


def test_judge_passes_identical_runs():
    verdict = harness.judge([_record() for _ in range(REPEATS)], None)
    assert verdict.correct and (verdict.committed, verdict.failed) == (90, 0)


def test_judge_takes_the_twins_accounting_for_an_unreadable_chain():
    remote = [_record(committed=None, failed=None) for _ in range(REPEATS)]
    verdict = harness.judge(remote, _record(committed=88, failed=1))
    assert verdict.correct and (verdict.committed, verdict.failed) == (88, 1)
    assert not harness.judge(remote, None).correct


@pytest.mark.parametrize(
    "records, reference",
    [
        ([_record()] * 2 + [_record(tip="bb")] + [_record()] * 2, None),  # tampered tip
        ([_record()] * REPEATS, _record(tip="cc")),  # twin disagrees
        ([_record()] * 4 + [_record(audit_clean=False)], None),  # a check fails
    ],
)
def test_a_failed_correctness_check_marks_every_op_failed(records, reference):
    result = harness.measure(Canned([_record()] + records, reference), seed=1, seconds=5)
    assert not result["correct"] and result["problems"]
    assert result["ops_attempted"] == 100 * REPEATS
    assert result["ops_failed"] == result["ops_attempted"]


def test_measure_reports_failed_ops_of_correct_runs_and_refuses_a_short_p95():
    records = [_record()] + [_record(failed=2)] * REPEATS  # warm-up first
    result = harness.measure(Canned(records), seed=1, seconds=5)
    assert result["correct"]
    assert result["ops_failed"] == 2 * REPEATS
    assert result["detail"]["driver"]["driver.tx_per_s"] == pytest.approx(90.0)
    assert result["detail"]["driver"]["driver.cpu_ms_per_tx"] == pytest.approx(500.0 / 90)
    assert result["detail"]["round_ms_samples"] == 50 * REPEATS
    assert result["detail"]["driver.round_ms_p95"] == 10.0  # 250 pooled rounds
    short = [_record() for _ in range(REPEATS + 1)]
    for record in short:
        record.round_ms = [10.0] * 30  # 150 pooled rounds: p50 yes, p95 no
    result = harness.measure(Canned(short), seed=1, seconds=5)
    assert result["detail"]["driver"]["driver.round_ms_p50"] == 10.0
    assert result["detail"]["driver.round_ms_p95"] is None


def test_every_repeat_is_reported_and_the_twin_runs_after_the_rss_reading(monkeypatch):
    order = []

    class Ordered(Canned):
        extra_setups = 2

        def setup_sample(self, seed):
            return 0.03

        def run(self, seed, rounds, obs=None, tracer=None):
            order.append("run")
            return super().run(seed, rounds)

        def reference(self, seed, rounds, obs=None, tracer=None):
            order.append("twin")
            return self._reference

    monkeypatch.setattr(harness, "peak_rss_mib", lambda: order.append("rss") or 64.0)

    def timed(seconds):
        record = _record()
        record.drive_window = (0.0, seconds)
        return record

    # warm-up, then five repeats of which two were disturbed: none is dropped
    records = [timed(1.0)] + [timed(s) for s in (1.0, 1.6, 1.01, 1.5, 1.02)]
    result = harness.measure(Ordered(records, _record()), seed=1, seconds=5)
    assert order == ["run"] * (1 + REPEATS) + ["rss", "twin"]
    assert result["repeats"] == REPEATS and result["ops_attempted"] == REPEATS * 100
    assert result["detail"]["repeat_wall_s"] == [1.0, 1.6, 1.01, 1.5, 1.02]
    assert result["detail"]["driver"]["driver.tx_per_s"] == pytest.approx(90.0 / 1.02)
    assert result["metrics"]["peak_rss_mib"] == 64.0
    # five set-ups of 0.01 s from the repeats, two extra of 0.03 s before each
    assert sorted(result["detail"]["per_repeat"]["setup_s"]) == [0.01] * 5 + [0.03] * 10
    assert result["metrics"]["setup_s"] == 0.03


def test_derived_seeds_are_stable_and_independent():
    assert derive_seed(1, "engine") == derive_seed(1, "engine")
    seeds = {derive_seed(s, p) for s in (1, 2) for p in ("engine", "workload", "faults-0")}
    assert len(seeds) == 6 and all(0 <= s < 2**31 for s in seeds)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_every_workload_emits_every_metric(name):
    """Seconds-long: five repeats at a reduced round count."""
    result = harness.measure(WORKLOADS[name], seed=3, seconds=1)
    assert result["correct"], result["problems"]
    assert list(result["metrics"]) == list(catalogue().end_to_end)
    per_repeat = result["rounds"] * WORKLOADS[name].tx_per_round
    assert result["ops_attempted"] == REPEATS * per_repeat
    assert result["ops_failed"] == 0
    assert all(value > 0 for value in result["metrics"].values())
    assert all(value > 0 for value in result["detail"]["driver"].values())
    json.dumps(result)  # the detail file must be serialisable


def test_smoke_traced_run_covers_every_layer_metric():
    result = harness.trace(WORKLOADS["net_durable"], seed=3, seconds=5)
    assert result["correct"], result["problems"]
    assert list(result["metrics"]) == list(catalogue().per_layer)
    values = result["metrics"]
    assert values["storage.publish_calls"] > 0 and values["network.events_per_tx"] > 0
    assert values["network.reliable_self_ms"] == 0 and values["parallel.spawn_s"] == 0
    assert values["network.tcp_frames_per_tx"] == 0
    assert values["bench.unattributed_pct"] <= 20.0
    shares = result["detail"]["shares"]
    assert shares == sorted(shares, key=lambda row: -row["self_ms"])


def test_the_command_leaves_no_process_behind(capsys):
    """The pool's spawn context starts a resource tracker; it must be reaped."""
    from multiprocessing import resource_tracker

    from perfbench.__main__ import main

    argv = ["run", "--workload", "shard_par", "--seed", "3", "--seconds", "1", "--trace", "0"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"]
    assert resource_tracker._resource_tracker._pid is None
    assert resource_tracker._resource_tracker._fd is None
