"""Pluggable export layer: Prometheus text, JSONL, dict snapshot.

Three renderings of one :class:`~repro.obs.registry.MetricsRegistry`:

* :func:`to_prometheus` — the standard text exposition format, for
  eyeballs and for any Prometheus-compatible scraper;
* :func:`snapshot` — a nested plain-dict form, the shape embedded in
  the benches' ``BENCH_*.json`` files;
* :func:`to_jsonl` — one JSON object per sample and per span, for jq /
  pandas streaming.

All three are deterministic: metrics sort by name, series by label
values, spans keep record order.  See OBSERVABILITY.md for the schema
reference and consumption recipes.
"""

from __future__ import annotations

import json
import pathlib
from typing import TextIO

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["to_prometheus", "to_jsonl", "snapshot", "write_jsonl"]


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_str(names: tuple[str, ...], values: tuple[str, ...], extra: str = "") -> str:
    parts = [f'{n}="{v}"' for n, v in zip(names, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: list[str] = []
    for metric in registry.metrics():
        lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, (Counter, Gauge)):
            for values, value in metric.samples():
                labels = _label_str(metric.label_names, values)
                lines.append(f"{metric.name}{labels} {_fmt(value)}")
        elif isinstance(metric, Histogram):
            for values, state in metric.samples():
                cumulative = 0
                for bound, count in zip(metric.buckets, state.bucket_counts):
                    cumulative += count
                    le = _label_str(
                        metric.label_names, values, extra=f'le="{_fmt(bound)}"'
                    )
                    lines.append(f"{metric.name}_bucket{le} {cumulative}")
                le = _label_str(metric.label_names, values, extra='le="+Inf"')
                lines.append(f"{metric.name}_bucket{le} {state.count}")
                labels = _label_str(metric.label_names, values)
                lines.append(f"{metric.name}_sum{labels} {_fmt(state.sum)}")
                lines.append(f"{metric.name}_count{labels} {state.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot(registry: MetricsRegistry) -> dict:
    """The registry as a nested plain dict (JSON-ready).

    Shape (see OBSERVABILITY.md for the full schema)::

        {"metrics": {name: {"type", "help", "labels", "samples": [...]}},
         "spans": [{"span", "labels", "start", "end", "duration"}, ...]}
    """
    metrics: dict[str, dict] = {}
    for metric in registry.metrics():
        entry: dict = {
            "type": metric.kind,
            "help": metric.help,
            "labels": list(metric.label_names),
            "samples": [],
        }
        if isinstance(metric, (Counter, Gauge)):
            for values, value in metric.samples():
                entry["samples"].append(
                    {"labels": dict(zip(metric.label_names, values)), "value": value}
                )
        elif isinstance(metric, Histogram):
            entry["buckets"] = list(metric.buckets)
            for values, state in metric.samples():
                entry["samples"].append(
                    {
                        "labels": dict(zip(metric.label_names, values)),
                        "bucket_counts": list(state.bucket_counts),
                        "sum": state.sum,
                        "count": state.count,
                    }
                )
        metrics[metric.name] = entry
    return {
        "metrics": metrics,
        "spans": [span.as_dict() for span in registry.spans],
    }


def to_jsonl(registry: MetricsRegistry) -> str:
    """One JSON object per metric sample and per span, newline-delimited."""
    lines: list[str] = []
    for metric in registry.metrics():
        if isinstance(metric, (Counter, Gauge)):
            for values, value in metric.samples():
                lines.append(
                    json.dumps(
                        {
                            "metric": metric.name,
                            "type": metric.kind,
                            "labels": dict(zip(metric.label_names, values)),
                            "value": value,
                        },
                        sort_keys=True,
                    )
                )
        elif isinstance(metric, Histogram):
            for values, state in metric.samples():
                lines.append(
                    json.dumps(
                        {
                            "metric": metric.name,
                            "type": metric.kind,
                            "labels": dict(zip(metric.label_names, values)),
                            "buckets": list(metric.buckets),
                            "bucket_counts": list(state.bucket_counts),
                            "sum": state.sum,
                            "count": state.count,
                        },
                        sort_keys=True,
                    )
                )
    for span in registry.spans:
        lines.append(json.dumps(span.as_dict(), sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(registry: MetricsRegistry, fp: TextIO | str | pathlib.Path) -> int:
    """Stream :func:`to_jsonl` into ``fp`` (a path or an open text file).

    Returns the line count.
    """
    text = to_jsonl(registry)
    if isinstance(fp, (str, pathlib.Path)):
        pathlib.Path(fp).write_text(text)
    else:
        fp.write(text)
    return text.count("\n")
