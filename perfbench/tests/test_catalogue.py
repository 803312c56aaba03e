import json
import re

from perfbench.metrics import CATALOGUE_PATH, catalogue
from perfbench.trace import SPAN_TABLE
from perfbench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_names_and_units_are_inside_the_contract():
    known = catalogue()
    names = list(known.workloads) + list(known.end_to_end) + list(known.per_layer)
    assert len(names) == len(set(names)), "a name is used once"
    assert all(NAME.match(name) for name in names)
    for metric in [*known.end_to_end.values(), *known.per_layer.values()]:
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("lower", "higher")
    assert all(NAME.match(f"{layer}.{span}") for layer, span, _, _ in SPAN_TABLE)


def test_counts_are_inside_the_contract():
    document = json.loads(CATALOGUE_PATH.read_text())
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    assert 1 <= document["run_seconds"] <= 60
    assert document["paths"] == ["perfbench"]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in document["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in document["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in document["per_layer"])
    assert CATALOGUE_PATH.stat().st_size <= 64 * 1024


def test_the_end_to_end_metrics_and_their_bounds():
    known = catalogue()
    setup, rss = known.end_to_end["setup_s"], known.end_to_end["peak_rss_mib"]
    assert (setup.unit, setup.better, setup.bound) == ("s", "lower", 0.25)
    assert (rss.better, rss.bound) == ("lower", 0.10)
    # A time metric that does not reproduce within a tenth is demoted to
    # driver.*, never given a wider bound.
    assert all(m.bound == 0.10 for m in known.end_to_end.values() if m is not setup)
    demoted = [name for name in known.per_layer if name.startswith("driver.")]
    assert demoted == ["driver.tx_per_s", "driver.round_ms_p50", "driver.cpu_ms_per_tx"]
    assert known.per_layer["driver.tx_per_s"].better == "higher"


def test_catalogue_workloads_are_the_implemented_ones():
    assert list(catalogue().workloads) == list(WORKLOADS)
    assert len(WORKLOADS) == 4


def test_worse_by_respects_direction():
    known = catalogue()
    assert known.per_layer["driver.tx_per_s"].worse_by(100.0, 80.0) == 0.2
    assert known.per_layer["driver.tx_per_s"].worse_by(100.0, 120.0) == -0.2
    assert known.end_to_end["setup_s"].worse_by(10.0, 12.0) == 0.2
