import pytest

from perfbench import workloads
from perfbench.workloads import WORKLOADS


def test_meter_reads_the_steal_share_without_rescaling_anything(monkeypatch):
    """Host ticks that say a fifth of the demanded CPU time was stolen."""
    readings = iter([(1000, 100), (1100, 120)])
    monkeypatch.setattr(workloads, "_host_ticks", lambda: next(readings))
    meter = workloads._Meter()
    meter.drive_begins()
    meter.drive_ends()
    assert meter.steal_share == pytest.approx(0.2)


def test_a_run_times_its_drive_loop_in_plain_wall_seconds():
    record = WORKLOADS["inproc_mix"].run(seed=5, rounds=8)
    assert record.wall_s == record.drive_window[1] - record.drive_window[0]
    assert 0 < sum(record.round_ms) / 1e3 < record.wall_s
    assert 0 < record.cpu_s and 0 < record.setup_s


def test_round_counts_follow_seconds_and_never_drop_below_the_floor():
    for workload in WORKLOADS.values():
        assert workload.rounds_for(0) == workload.min_rounds
        assert workload.rounds_for(20) == round(workload.rounds_per_second * 4)
