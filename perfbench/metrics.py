"""The benchmark's catalogue, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the contract the driver
reads and the single place a workload, a metric, its unit, its direction
and its regression bound are declared.  The code (the result tables,
``compare``, the tests) reads the same file through this module, so the
two cannot drift apart.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

__all__ = ["Catalogue", "Metric", "catalogue", "CATALOGUE_PATH"]

CATALOGUE_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which an end-to-end metric may
    #: worsen before a change is rejected; None for per-layer metrics.
    bound: float | None = None

    def worse_by(self, base: float, new: float) -> float:
        """How much worse ``new`` is than ``base``, as a share of ``base``."""
        if not base:
            return 0.0
        change = (new - base) / abs(base)
        return -change if self.better == "higher" else change


class Catalogue(NamedTuple):
    run_seconds: int
    workloads: dict[str, str]  # name -> why
    end_to_end: dict[str, Metric]
    per_layer: dict[str, Metric]


@lru_cache(maxsize=1)
def catalogue() -> Catalogue:
    """Parse ``BENCHMARK.json`` once per process."""
    document = json.loads(CATALOGUE_PATH.read_text(encoding="utf-8"))
    return Catalogue(
        run_seconds=int(document["run_seconds"]),
        workloads={w["name"]: w["why"] for w in document["workloads"]},
        end_to_end={m["name"]: Metric(**m) for m in document["end_to_end"]},
        per_layer={m["name"]: Metric(**m) for m in document["per_layer"]},
    )
