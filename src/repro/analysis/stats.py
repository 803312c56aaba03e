"""Statistical helpers for the experiments.

* :func:`empirical_tail` — empirical ``P[X > threshold]`` over repeated
  runs, compared against Theorem 3's Hoeffding bound;
* :func:`chi_squared_uniformity` — the E10 test that leader election is
  proportional to stake;
* :func:`loglog_slope` — the scaling-exponent estimate used to verify
  O(sqrt(T)) regret and O(m^2) message growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import linear_regression
from typing import Sequence

from repro.exceptions import ConfigurationError

__all__ = [
    "empirical_tail",
    "ChiSquaredResult",
    "chi_squared_uniformity",
    "loglog_slope",
]


def empirical_tail(samples: Sequence[float], threshold: float) -> float:
    """Fraction of samples strictly above ``threshold``."""
    if not samples:
        raise ConfigurationError("empirical tail needs at least one sample")
    return sum(x > threshold for x in samples) / len(samples)


@dataclass(frozen=True)
class ChiSquaredResult:
    """Goodness-of-fit outcome for categorical frequencies."""

    statistic: float
    dof: int
    p_value: float

    def consistent(self, alpha: float = 0.01) -> bool:
        """Whether the observed frequencies are consistent at level alpha."""
        return self.p_value >= alpha


def _chi2_sf(x: float, k: int) -> float:
    """Chi-squared survival function via the regularised upper gamma.

    Implemented with a series/continued-fraction split so the analysis
    layer stays importable without scipy (scipy is available in dev
    environments; this keeps the package free of runtime dependencies).
    """
    a = k / 2.0
    s = x / 2.0
    if s < 0:
        raise ConfigurationError("chi-squared statistic cannot be negative")
    if s == 0:
        return 1.0
    # Regularised lower incomplete gamma P(a, s) by series (s < a+1) or
    # upper Q(a, s) by continued fraction (s >= a+1); Numerical-Recipes
    # style with double precision tolerances.
    gln = math.lgamma(a)
    if s < a + 1.0:
        term = 1.0 / a
        total = term
        ap = a
        for _ in range(1000):
            ap += 1.0
            term *= s / ap
            total += term
            if abs(term) < abs(total) * 1e-15:
                break
        p_lower = total * math.exp(-s + a * math.log(s) - gln)
        return max(0.0, min(1.0, 1.0 - p_lower))
    b = s + 1.0 - a
    c = 1e300
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < 1e-300:
            d = 1e-300
        c = b + an / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    q_upper = math.exp(-s + a * math.log(s) - gln) * h
    return max(0.0, min(1.0, q_upper))


def chi_squared_uniformity(
    observed: Sequence[int], expected_proportions: Sequence[float]
) -> ChiSquaredResult:
    """Pearson chi-squared test of observed counts vs expected proportions.

    Used by E10: observed leadership counts per governor vs stake shares.
    """
    if len(observed) != len(expected_proportions):
        raise ConfigurationError("observed and expected lengths differ")
    if len(observed) < 2:
        raise ConfigurationError("need at least two categories")
    if abs(sum(expected_proportions) - 1.0) > 1e-9:
        raise ConfigurationError(
            f"expected proportions sum to {sum(expected_proportions)}, not 1"
        )
    total = sum(observed)
    if total <= 0:
        raise ConfigurationError("no observations")
    expected = [p * total for p in expected_proportions]
    if min(expected) <= 0:
        raise ConfigurationError("every category needs positive expectation")
    statistic = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    dof = len(observed) - 1
    return ChiSquaredResult(statistic=statistic, dof=dof, p_value=_chi2_sf(statistic, dof))


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) on log(x) — the scaling exponent.

    ``ys`` entries that are zero are floored at the smallest positive
    value to keep the fit defined (a zero regret at small T is common).
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ConfigurationError("need >= 2 paired points for a slope")
    if min(xs) <= 0:
        raise ConfigurationError("x values must be positive for a log-log fit")
    positive = [y for y in ys if y > 0]
    if not positive:
        return 0.0
    floor = min(positive)
    log_x = [math.log(x) for x in xs]
    return linear_regression(log_x, [math.log(max(y, floor)) for y in ys]).slope
