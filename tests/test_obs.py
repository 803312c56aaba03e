"""Unit tests for the repro.obs metrics registry and exporters."""

from __future__ import annotations

import gc
import json
import weakref

import pytest

from repro.exceptions import ConfigurationError
from repro.obs import (
    NULL_REGISTRY,
    MetricsRegistry,
    snapshot,
    to_prometheus,
)


class TestCounters:
    def test_unlabelled_reader(self):
        reg = MetricsRegistry()
        record = {"hits": 0}
        c = reg.counter("hits_total", "hits", read=lambda: record["hits"])
        assert c.value == 0
        record["hits"] += 3
        assert c.value == 3  # evaluated when asked, nothing was pushed

    def test_labelled_series_are_independent(self):
        reg = MetricsRegistry()
        by_node = {"a": 1}
        c = reg.counter("req_total", "requests", labels=("node",), read=lambda: by_node)
        by_node["b"] = 4  # a label value that first appears mid-run
        assert c.value_of(node="a") == 1
        assert c.value_of(node="b") == 4
        assert c.value_of(node="never") == 0
        assert c.samples() == [(("a",), 1.0), (("b",), 4.0)]

    def test_several_label_names_key_by_tuple_and_coerce_to_str(self):
        reg = MetricsRegistry()
        c = reg.counter(
            "req_total", "requests", labels=("shard", "outcome"),
            read=lambda: {(0, "ok"): 2},
        )
        assert c.value_of(shard="0", outcome="ok") == 2

    def test_unknown_label_name_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter("req_total", "requests", labels=("node",), read=dict)
        with pytest.raises(ConfigurationError):
            c.value_of(zone="a")

    def test_reader_key_of_the_wrong_arity_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter(
            "req_total", "requests", labels=("node",), read=lambda: {("a", "b"): 1}
        )
        with pytest.raises(ConfigurationError):
            c.samples()

    def test_counter_readers_add_per_series(self):
        # S shard engines on one registry; an engine before and after a restart.
        reg = MetricsRegistry()
        reg.counter("req_total", "requests", labels=("node",), read=lambda: {"a": 1, "b": 2})
        c = reg.counter("req_total", "requests", labels=("node",), read=lambda: {"b": 5})
        assert c.samples() == [(("a",), 1.0), (("b",), 7.0)]
        total = reg.counter("hits_total", "hits", read=lambda: 2)
        reg.counter("hits_total", "hits", read=lambda: 3)
        assert total.value == 5

    def test_unlabelled_family_without_a_reader_exports_zero(self):
        reg = MetricsRegistry()
        assert reg.counter("hits_total", "hits").samples() == [((), 0.0)]
        assert reg.counter("req_total", "requests", labels=("node",)).samples() == []

    def test_there_is_no_push_api(self):
        reg = MetricsRegistry()
        for metric in (reg.counter("hits_total", "hits"), reg.gauge("depth", "d")):
            assert not hasattr(metric, "inc") and not hasattr(metric, "set")
        assert not hasattr(reg, "reset")


class TestRegistration:
    def test_idempotent_same_schema(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "x", labels=("k",))
        b = reg.counter("x_total", "x", labels=("k",))
        assert a is b

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "x")
        with pytest.raises(ConfigurationError):
            reg.gauge("x_total", "x")

    def test_label_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "x", labels=("k",))
        with pytest.raises(ConfigurationError):
            reg.counter("x_total", "x", labels=("j",), read=dict)


class TestGaugesAndHistograms:
    def test_gauge_reads_the_current_value(self):
        reg = MetricsRegistry()
        queue = [1, 2, 3]
        g = reg.gauge("depth", "queue depth", read=lambda: len(queue))
        queue.pop()
        assert g.value == 2

    def test_a_later_gauge_reader_replaces_per_series(self):
        # What "last set wins" did: the component built last is current.
        reg = MetricsRegistry()
        reg.gauge("depth", "queue depth", read=lambda: 7)
        g = reg.gauge("depth", "queue depth", read=lambda: 4)
        assert g.value == 4
        reg.gauge("mass", "m", labels=("shard",), read=lambda: {"0": 1.0, "1": 2.0})
        m = reg.gauge("mass", "m", labels=("shard",), read=lambda: {"1": 9.0})
        assert m.samples() == [(("0",), 1.0), (("1",), 9.0)]

    def test_histogram_buckets_fill(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "latency", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        ((_labels, state),) = h.samples()
        assert state.bucket_counts == [1, 1]  # 0.05 <= 0.1, 0.5 <= 1.0
        assert state.count == 3
        assert state.sum == pytest.approx(5.55)

    def test_labelled_histogram_children_are_cached(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "latency", labels=("part",), buckets=(1.0,))
        assert h.labels(part="a") is h.labels(part="a")
        h.labels(part="a").observe(0.5)
        assert h._states[("a",)].count == 1
        with pytest.raises(ConfigurationError):
            h.labels(zone="a")

    def test_histogram_buckets_must_ascend(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.histogram("lat", "latency", buckets=(1.0, 0.5))


class TestSpans:
    def test_record_span_coerces_labels(self):
        reg = MetricsRegistry()
        reg.record_span("round", 1.0, 3.5, round=3)
        (span,) = [s for s in reg.spans if s.name == "round"]
        assert span.start == 1.0 and span.end == 3.5
        assert span.duration == 2.5
        assert span.labels == {"round": "3"}


class TestDisabledRegistry:
    def test_null_registry_is_noop(self):
        assert NULL_REGISTRY.counter("x_total", "x", labels=("k",), read=dict) is None
        assert NULL_REGISTRY.gauge("g", "g", read=lambda: 1) is None
        NULL_REGISTRY.histogram("h", "h").observe(1)
        NULL_REGISTRY.histogram("h", "h", labels=("k",)).labels(k="a").observe(1)
        NULL_REGISTRY.record_span("s", 0.0, 1.0)
        assert NULL_REGISTRY.names() == []
        assert NULL_REGISTRY.spans == []

    def test_disabled_registry_exports_empty(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("x_total", "x", read=lambda: 1)
        assert to_prometheus(reg) == ""
        assert snapshot(reg) == {"metrics": {}, "spans": []}

    def test_disabled_registry_retains_no_reader(self):
        # An untraced run must not keep its engine alive through obs.
        class Component:
            count = 1

        component = Component()
        alive = weakref.ref(component)
        for reg in (NULL_REGISTRY, MetricsRegistry(enabled=False)):
            reg.counter("x_total", "x", read=lambda c=component: c.count)
            reg.gauge("g", "g", read=lambda c=component: c.count)
        del component
        gc.collect()
        assert alive() is None


class TestExportDeterminism:
    @staticmethod
    def _populated():
        reg = MetricsRegistry()
        # Insertion order b-then-a must not leak into the export.
        reg.counter(
            "req_total", "requests", labels=("node",), read=lambda: {"b": 2, "a": 1}
        )
        reg.gauge("depth", "queue depth", read=lambda: 4)
        reg.histogram("lat", "latency", buckets=(0.1, 1.0)).observe(0.5)
        reg.record_span("phase", 0.0, 2.0, node="a")
        return reg

    def test_prometheus_sorted_and_cumulative(self):
        text = to_prometheus(self._populated())
        lines = text.splitlines()
        assert lines[0] == "# HELP depth queue depth"
        a = lines.index('req_total{node="a"} 1')
        b = lines.index('req_total{node="b"} 2')
        assert a < b
        assert 'lat_bucket{le="0.1"} 0' in lines
        assert 'lat_bucket{le="1"} 1' in lines
        assert 'lat_bucket{le="+Inf"} 1' in lines
        assert "lat_sum 0.5" in lines and "lat_count 1" in lines

    def test_equal_registries_export_equal_bytes(self):
        one, two = self._populated(), self._populated()
        assert to_prometheus(one) == to_prometheus(two)
        assert json.dumps(snapshot(one), sort_keys=True) == json.dumps(
            snapshot(two), sort_keys=True
        )

    def test_snapshot_roundtrips_through_json(self):
        snap = snapshot(self._populated())
        assert json.loads(json.dumps(snap)) == snap
