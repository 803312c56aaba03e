"""OBSERVABILITY.md must stay a complete, non-stale telemetry inventory.

Two directions:

* every metric the engines actually register is documented;
* every token in the doc that looks like a metric name is actually
  registered (no stale entries surviving a rename).
"""

from __future__ import annotations

import pathlib
import re
from dataclasses import replace

import pytest

from repro.byzantine.tampering import MessageTamperer, TamperSpec
from repro.obs import MetricsRegistry
from repro.workloads.scenarios import SCENARIOS, build

DOC = pathlib.Path(__file__).parent.parent / "OBSERVABILITY.md"
#: ``durable-smoke`` with the engine's repair machinery on.
RESILIENT = replace(SCENARIOS["durable-smoke"], resilience=True)


def _metric_tokens(doc: str, names: list[str]) -> set[str]:
    """Anything in ``doc`` shaped like a metric name: a registered
    family's subsystem prefix, then an underscore-separated tail."""
    prefixes = sorted({name.split("_", 1)[0] for name in names})
    return set(re.findall(rf"\b(?:{'|'.join(prefixes)})_[a-z0-9_]+\b", doc))


@pytest.fixture(scope="module")
def registered() -> MetricsRegistry:
    """One registry that has seen every instrumented constructor."""
    reg = MetricsRegistry()
    # The sharding layer's coordinator metrics and the cross-shard
    # auditor's counters ride on the same registry as the engines'.
    for preset in (RESILIENT, "smoke", "sharded-smoke"):
        build(preset, obs=reg)
    MessageTamperer(TamperSpec(flip_label=0.1), seed=0, obs=reg)
    # The transport family registers lazily inside RealNetwork; use the
    # fetch-or-register helper so no sockets are needed here.
    from repro.network.realnet import transport_metrics

    transport_metrics(reg)
    # The streaming family likewise exposes a fetch-or-register helper.
    from repro.streaming.app import stream_metrics

    stream_metrics(reg)
    return reg


def test_every_registered_metric_is_documented(registered):
    doc = DOC.read_text()
    missing = [name for name in registered.names() if f"`{name}`" not in doc]
    assert not missing, f"metrics exported but absent from OBSERVABILITY.md: {missing}"


def test_no_stale_metric_names_in_doc(registered):
    doc = DOC.read_text()
    known = set(registered.names())
    stale = sorted(
        {
            token
            for token in _metric_tokens(doc, registered.names())
            if token not in known
            # histogram series suffixes appear in the format description
            and not token.endswith(("_bucket", "_sum", "_count"))
        }
    )
    assert not stale, f"OBSERVABILITY.md documents unknown metrics: {stale}"


def test_every_recorded_span_name_is_documented():
    reg = MetricsRegistry()
    engine, workload, _ = build(RESILIENT, seed=5, obs=reg)
    for _ in range(2):
        engine.run_round(workload.take(6))
    engine.finalize()
    engine.drain_recovery()
    doc = DOC.read_text()
    recorded = {span.name for span in reg.spans}
    assert recorded == {"round", "argue_phase", "drain_recovery"}
    missing = [name for name in sorted(recorded) if f"`{name}`" not in doc]
    assert not missing, f"spans recorded but absent from OBSERVABILITY.md: {missing}"


def test_bench_schema_version_is_documented():
    import importlib.util

    helpers_path = (
        pathlib.Path(__file__).parent.parent / "benchmarks" / "_helpers.py"
    )
    spec = importlib.util.spec_from_file_location("_bench_helpers", helpers_path)
    helpers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(helpers)
    assert f"`{helpers.BENCH_SCHEMA}`" in DOC.read_text()
