"""Compare two result files: verdicts per metric, deltas per layer.

For every workload × end-to-end metric the table shows both medians, the
ratio with its base, the fixed bound and a verdict:

* ``ok`` — B is not worse than A by more than the bound (for ``setup_s``,
  nor by more than an absolute floor of 0.05 s);
* ``regressed`` — it is;
* ``unresolved`` — it is, but the repeats of either file spread wider than
  the bound and the two files' repeats overlap, so the runs cannot tell.

Then the demoted ``driver.`` metrics (five-repeat medians and their ratio,
no verdict), then the per-layer deltas, ranked by absolute ``*_self_ms``
change.
"""

from __future__ import annotations

import json

from perfbench.metrics import Metric, catalogue
from perfbench.stats import spread

__all__ = ["SETUP_FLOOR_S", "compare", "load_result", "verdict_of"]

#: ``setup_s`` is never called regressed for growing by less than this.
SETUP_FLOOR_S = 0.05


def load_result(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _overlap(a: list[float], b: list[float]) -> bool:
    return bool(a and b) and min(a) <= max(b) and min(b) <= max(a)


def verdict_of(
    metric: Metric,
    base: float,
    new: float,
    base_repeats: list[float],
    new_repeats: list[float],
) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric of one workload."""
    if metric.worse_by(base, new) <= metric.bound:
        return "ok"
    if metric.name == "setup_s" and new - base <= SETUP_FLOOR_S:
        return "ok"  # a millisecond-sized set-up moves by more than its bound
    widest = max(
        (spread(values) for values in (base_repeats, new_repeats) if len(values) > 1),
        default=0.0,
    )
    if widest > metric.bound and _overlap(base_repeats, new_repeats):
        return "unresolved"
    return "regressed"


def _failure_share(entry: dict) -> float:
    return entry["ops_failed"] / max(entry["ops_attempted"], 1)


def compare(a: dict, b: dict, symmetric: bool = False) -> tuple[str, bool]:
    """Render the comparison of results ``a`` (base) and ``b``.

    Returns ``(text, passed)``.  ``passed`` is False on any ``regressed``
    verdict or a larger share of failed operations in ``b``.  With
    ``symmetric`` (two runs of the same code) a metric also fails when
    ``a`` is worse than ``b`` by more than the bound.
    """
    lines, passed = [], True
    header = (
        f"{'workload':<12} {'metric':<20} {'A':>12} {'B':>12} "
        f"{'B/A':>7} {'bound':>6}  verdict"
    )
    lines += ["end-to-end (ratio base: A)", header, "-" * len(header)]
    shared = [name for name in a["workloads"] if name in b["workloads"]]
    for workload in shared:
        ea, eb = (r["workloads"][workload]["end_to_end"] for r in (a, b))
        for name, metric in catalogue().end_to_end.items():
            va, vb = ea["metrics"][name], eb["metrics"][name]
            ra = ea["detail"]["per_repeat"].get(name, [])
            rb = eb["detail"]["per_repeat"].get(name, [])
            verdict = verdict_of(metric, va, vb, ra, rb)
            if symmetric and verdict == "ok":
                verdict = verdict_of(metric, vb, va, rb, ra)
            passed = passed and verdict != "regressed"
            lines.append(
                f"{workload:<12} {name:<20} {va:>12.4f} {vb:>12.4f} "
                f"{vb / va if va else 0.0:>7.3f} {metric.bound:>6.2f}  {verdict}"
            )
        if _failure_share(eb) > _failure_share(ea):
            passed = False
            lines.append(
                f"{workload:<12} ops_failed/ops_attempted rose: "
                f"{ea['ops_failed']}/{ea['ops_attempted']} -> "
                f"{eb['ops_failed']}/{eb['ops_attempted']}"
            )
    lines += ["", "demoted: medians of the five repeats, no bound (ratio base: A)"]
    for workload in shared:
        da, db = (r["workloads"][workload]["end_to_end"]["detail"]["driver"] for r in (a, b))
        for name, va in da.items():
            vb = db[name]
            lines.append(
                f"{workload:<12} {name:<20} {va:>12.4f} {vb:>12.4f} "
                f"{vb / va if va else 0.0:>7.3f}"
            )
    lines += ["", "per-layer, ranked by absolute *_self_ms change (B - A)"]
    deltas = []
    for workload in shared:
        la = a["workloads"][workload].get("per_layer")
        lb = b["workloads"][workload].get("per_layer")
        if not la or not lb:
            continue
        for name, va in la["metrics"].items():
            vb = lb["metrics"].get(name)
            if va is None or vb is None or va == vb:
                continue
            deltas.append((name.endswith("_self_ms"), abs(vb - va), workload, name, va, vb))
    deltas.sort(key=lambda d: (not d[0], -d[1]))
    for _, _, workload, name, va, vb in deltas:
        unit = catalogue().per_layer[name].unit
        lines.append(
            f"{workload:<12} {name:<36} {va:>12.4f} -> {vb:>12.4f} {unit:<9} "
            f"({vb - va:+.4f})"
        )
    lines.append("")
    lines.append("PASS" if passed else "FAIL")
    return "\n".join(lines), passed
