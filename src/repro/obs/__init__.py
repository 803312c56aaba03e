"""repro.obs — the unified observability layer.

A dependency-free metrics registry (counters, gauges, histograms with
labels), sim-time span tracing, and an export layer
(Prometheus text / dict snapshot).  Every instrumented
component takes an optional registry and defaults to the no-op
:data:`NULL_REGISTRY`, so un-instrumented runs stay bit-identical.

Quickstart::

    from repro.obs import MetricsRegistry, to_prometheus

    obs = MetricsRegistry()
    engine = NetworkedProtocolEngine(topo, params, obs=obs)
    engine.run_round(workload.take(8))
    print(to_prometheus(obs))          # every counter the run touched
    for span in obs.spans:             # where the sim time went
        print(span.name, span.duration)

The full telemetry reference (every metric name, span name, and the
``BENCH_*.json`` schema) lives in OBSERVABILITY.md.
"""

from repro.obs.export import snapshot, to_prometheus
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import Span

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "Span",
    "snapshot",
    "to_prometheus",
]
