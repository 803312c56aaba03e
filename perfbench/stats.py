"""Order statistics with the sample-count rule the benchmark reports under.

A timing is reported as a median and a high percentile, and a percentile
is only reported when at least :data:`MIN_BEYOND` samples lie beyond it
(the choosing-metrics rule): with fewer, the value is one straggler's
latency, not a property of the system.  :func:`percentile` refuses
instead of returning such a number.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = [
    "MIN_BEYOND",
    "TooFewSamples",
    "samples_needed",
    "percentile",
    "quartiles",
    "spread",
]

#: Samples that must lie beyond a reported quantile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested quantile."""


def samples_needed(q: float) -> int:
    """Smallest sample size for which quantile ``q`` may be reported."""
    tail = min(q, 1.0 - q)
    # The epsilon absorbs binary round-off (10 / (1 - 0.95) is 200.0000…3).
    return math.ceil(MIN_BEYOND / tail - 1e-9)


def percentile(samples: Sequence[float], q: float) -> float:
    """Quantile ``q`` (0 < q < 1) by linear interpolation.

    Raises:
        TooFewSamples: fewer than :data:`MIN_BEYOND` samples lie beyond
            the quantile on its short side.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be inside (0, 1), got {q}")
    need = samples_needed(q)
    if len(samples) < need:
        raise TooFewSamples(
            f"p{q * 100:g} needs {need} samples "
            f"({MIN_BEYOND} beyond it), got {len(samples)}"
        )
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them.

    The same estimator the benchmark contract uses to judge run-to-run
    spread, so a spread computed here is the spread the driver sees.  A
    single value is its own three quartiles.
    """
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 when undefined)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0
