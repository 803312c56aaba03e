"""Communication-complexity verification (experiment E7).

Section 4.1 claims ``O(b_limit * m)`` messages for an ordinary block and
``O(m^2)`` for a stake-transform block.  The helpers here fit measured
message counts against those growth laws:

* :func:`fit_power_law` — least-squares exponent of count vs m;
* :func:`fit_linear` / :func:`fit_quadratic` — explicit-model fits with
  an R^2 so the bench can report "matches O(m) with R^2 = ..." rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import fmean
from typing import Sequence

from repro.analysis.stats import loglog_slope
from repro.exceptions import ConfigurationError

__all__ = ["FitResult", "fit_power_law", "fit_linear", "fit_quadratic"]


@dataclass(frozen=True)
class FitResult:
    """One model fit: coefficients plus goodness."""

    model: str
    coefficients: tuple[float, ...]
    r_squared: float

    def predict(self, x: float) -> float:
        """Evaluate the fitted model at ``x``."""
        if self.model == "power":
            scale, exponent = self.coefficients
            return scale * x**exponent
        value = 0.0
        for c in self.coefficients:  # Horner, highest power first
            value = value * x + c
        return value


def _fit(
    model: str, coefficients: tuple[float, ...], x: list[float], y: list[float]
) -> FitResult:
    """The fit of ``coefficients`` to ``(x, y)``, with its R^2."""
    predict = FitResult(model, coefficients, 0.0).predict
    ss_res = math.fsum((b - predict(a)) ** 2 for a, b in zip(x, y))
    mean = fmean(y)
    ss_tot = math.fsum((b - mean) ** 2 for b in y)
    if ss_tot == 0.0:
        return FitResult(model, coefficients, 1.0 if ss_res == 0.0 else 0.0)
    return FitResult(model, coefficients, 1.0 - ss_res / ss_tot)


def _check(xs: Sequence[float], ys: Sequence[float]) -> tuple[list[float], list[float]]:
    if len(xs) != len(ys) or len(xs) < 3:
        raise ConfigurationError("complexity fits need >= 3 paired points")
    return [float(x) for x in xs], [float(y) for y in ys]


def _polyfit(x: list[float], y: list[float], degree: int) -> tuple[float, ...]:
    """Least-squares polynomial coefficients, highest power first: the
    normal equations ``(A^T A) c = A^T y`` solved by Gauss-Jordan."""
    rows = [[a ** (degree - j) for j in range(degree + 1)] for a in x]
    system = [
        [math.fsum(r[i] * r[j] for r in rows) for j in range(degree + 1)]
        + [math.fsum(r[i] * b for r, b in zip(rows, y))]
        for i in range(degree + 1)
    ]
    for col in range(degree + 1):
        pivot = max(range(col, degree + 1), key=lambda i: abs(system[i][col]))
        system[col], system[pivot] = system[pivot], system[col]
        if system[col][col] == 0.0:
            raise ConfigurationError(f"a degree-{degree} fit needs more distinct x values")
        for i in range(degree + 1):
            if i != col:
                k = system[i][col] / system[col][col]
                system[i] = [a - k * b for a, b in zip(system[i], system[col])]
    return tuple(system[i][-1] / system[i][i] for i in range(degree + 1))


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> FitResult:
    """Fit ``y = a * x^b`` by log-log least squares."""
    x, y = _check(xs, ys)
    if min(y) <= 0:
        raise ConfigurationError("power-law fit needs positive counts")
    exponent = loglog_slope(x, y)
    scale = math.exp(fmean(math.log(b) - exponent * math.log(a) for a, b in zip(x, y)))
    return _fit("power", (scale, exponent), x, y)


def fit_linear(xs: Sequence[float], ys: Sequence[float]) -> FitResult:
    """Fit ``y = a*x + b``."""
    x, y = _check(xs, ys)
    return _fit("linear", _polyfit(x, y, 1), x, y)


def fit_quadratic(xs: Sequence[float], ys: Sequence[float]) -> FitResult:
    """Fit ``y = a*x^2 + b*x + c``."""
    x, y = _check(xs, ys)
    return _fit("quadratic", _polyfit(x, y, 2), x, y)
